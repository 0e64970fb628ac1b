"""Steadiness check: two sets of benchmark runs of the same commit, compared.

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json ten times with
--trace 0, each time with another seed (the sets use disjoint seeds),
interleaving the workloads so that slow phases of a shared machine spread
over all of them.  For every workload and end-to-end metric it reports, per
set, the median and the quartile spread (q3 - q1) / median, and whether

* both spreads stay within the metric's bound,
* both spreads stay below a third of the bound (the target for a bound),
* the second set's median is not worse than the first's by more than the bound,
* both sets failed the same share of their operations.

The exit status is 0 when every bound holds.  Use it to choose the bounds:
a bound should be at least three times the largest spread it reports.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """The result line of one benchmark run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result, exit {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    # first[workload], second[workload]: the result objects of each set
    first: dict[str, list[dict]] = {n: [] for n in names}
    second: dict[str, list[dict]] = {n: [] for n in names}
    for number, results, seeds in ((1, first, range(1, RUNS + 1)),
                                   (2, second, range(RUNS + 1, 2 * RUNS + 1))):
        for seed in seeds:
            for name in names:
                res = run_once(spec, name, seed)
                results[name].append(res)
                shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"set {number} seed {seed:3d} {name:20s} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {shown}", flush=True)

    def failed_share(results: list[dict]) -> float:
        return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)

    ok = True
    for name in names:
        same_share = failed_share(first[name]) == failed_share(second[name])
        correct = all(r["correct"] for r in first[name] + second[name])
        ok &= same_share and correct
        if not (same_share and correct):
            print(f"{name}: correct={correct}, same failed share={same_share}")
        for meta in spec["end_to_end"]:
            metric, bound = meta["name"], meta["bound"]
            (m1, s1), (m2, s2) = (spread([r["metrics"][metric]["value"] for r in results])
                                  for results in (first[name], second[name]))
            worse_by = ((m2 - m1) if meta["better"] == "lower" else (m1 - m2)) / m1
            within = s1 <= bound and s2 <= bound and worse_by <= bound
            ok &= within
            print(f"{name:20s} {metric:12s} bound {bound:.3f} "
                  f"medians [{m1:.4f}, {m2:.4f}] spreads [{s1:.4f}, {s2:.4f}] "
                  f"worse_by {worse_by:+.4f} {'ok' if within else 'OUT OF BOUND'}"
                  f"{'' if max(s1, s2) < bound / 3 else ' (spread above bound/3)'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
