"""Benchmark of the wctree CLI: one workload per run, each command in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The run repeats the workload's CLI command, one child
process at a time, until S seconds have passed, and checks every output (see
workloads.py).  A fresh interpreter per command matters: the simplex memo,
the selector caches and the tree cache are process-wide, and a second
command in the same process would find them warm.

--trace 0 reports the end-to-end metrics over the commands run:
  wall_s       launch of the CLI process to its exit, the mean;
  setup_s      launch until `wctree.cli` is imported and ready, the median over
               the commands and SETUP_LAUNCHES set-up-only launches a round;
  peak_rss_mb  peak resident memory of the CLI process, the median.
wall_s is a mean because on a shared machine a run's samples fall into slow
and fast phases, and the median jumps between them; over ten seeds the mean
of a run spread about a quarter less than its median.

Both times are given at a reference machine speed.  Before each command the
run times reference_task(), a fixed Fraction computation that shares no code
with wctree, and scales wall_s and setup_s by REFERENCE_S over the run's mean
reference time.  A shared machine runs in phases of minutes that are slower
or faster by a fifth or more for all code alike, and a whole run can fall
into one; the scale cancels them.  The unscaled times and the reference
times are in the record line.

--trace 1 alternates plain and traced commands, then makes one profiler pass,
and reports the per-layer metrics of layers.py (medians over the traced
commands), `fraction.calls` from the profiler pass and `trace.overhead_s`,
the traced minus the plain mean wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the inputs, the
samples and the environment.  A command that exits nonzero or times out is
a failed operation; a wrong output makes `correct` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread everywhere: idle pool threads of the checks' numpy would
# otherwise compete with the measured child for the CPUs
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_LIMITS)

import layers  # noqa: E402
from workloads import WORKLOADS, Probe, cli_args, draw_params  # noqa: E402

COMMAND_TIMEOUT_S = 150
# seconds that reference_task() takes at the reference speed; about what it
# took on a 2-vCPU virtual machine with Python 3.11.7
REFERENCE_S = 0.2
# launches a round that only import wctree.cli: a command of a few seconds
# alone gives too few set-up samples for a steady median
SETUP_LAUNCHES = 2


def reference_task() -> float:
    """Seconds for a fixed computation in exact rationals, wctree's main kind of work.

    The garbage collector is off meanwhile: the task makes no cycles, and
    collections would scan whatever the checks left on this process's heap.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 16_000):
            if i % 16 == 0:  # keeps numerators and denominators small
                acc = Fraction(0)
            acc = (Fraction(i, 7) + Fraction(3, i + 1)) * Fraction(i % 11 + 1, 9) - acc / 2
        return time.perf_counter() - started
    finally:
        gc.enable()


@dataclass
class Launch:
    """One child process: exit code, measurements and captured output."""

    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    stdout: str
    stderr: str
    out_path: Path

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.setup_s is not None

    def envelope(self) -> dict:
        return json.loads(self.stdout)


class Runner:
    """Launches CLI commands in child processes and measures each one."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ)  # carries THREAD_LIMITS
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"})

    def launch(self, mode: str, args: list[str]) -> Launch:
        stats, out = self.scratch / "stats", self.scratch / "out"
        stdout, stderr = self.scratch / "stdout", self.scratch / "stderr"
        for path in (stats, out):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(stats), mode, str(out),
               "--", *args]
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so,
                                    stderr=se, env=self.env, cwd=ROOT)
            # a blocking wait keeps the end time exact; Popen.wait(timeout) polls
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = rss = None
        if stats.exists():
            measured = json.loads(stats.read_text())
            setup, rss = measured["ready"] - started, measured["peak_rss_kb"] / 1024
        return Launch(proc.returncode, ended - started, setup, rss,
                      stdout.read_text(), stderr.read_text(), out)

    def run_cli(self, args: list[str]) -> dict:
        """Run a CLI command that a check needs, outside any measurement."""
        res = self.launch("plain", args)
        if not res.ok:
            raise RuntimeError(f"wctree {' '.join(args)} exited {res.code}: {res.stderr}")
        return res.envelope()


def _import_wctree():
    sys.path.insert(0, str(ROOT / "src"))
    import wctree
    return wctree


def _check(workload, params, res: Launch, probe: Probe) -> list[str]:
    try:
        envelope = res.envelope()
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if envelope.get("schema") != "wctree-report/1" or envelope.get("command") != workload.command:
        return [f"unexpected envelope: {envelope.get('schema')} {envelope.get('command')}"]
    try:
        return workload.check(params, envelope["payload"], probe)
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        return [f"malformed output or failed probe: {exc!r}"]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, params, args: list[str], seconds: float, trace: bool,
            runner: Runner) -> tuple[dict, dict]:
    """Run whole rounds until `seconds` have passed; return (result, record)."""
    probe = Probe(runner.run_cli, _import_wctree)
    plain: list[Launch] = []
    reference: list[float] = []
    setups: list[float] = []
    traced: list[tuple[Launch, dict]] = []
    profiled: list[dict] = []
    attempted = 0
    errors: list[str] = []  # failed operations
    wrong: list[str] = []  # outputs that failed a check
    version = None

    def account(res: Launch) -> bool:
        nonlocal attempted, version
        attempted += 1
        if not res.ok:
            errors.append(f"exit {res.code}: {res.stderr.strip()[-300:]}")
            return False
        found = _check(workload, params, res, probe)
        wrong.extend(found)
        if not found:
            version = res.envelope().get("version")
        return True

    deadline = time.monotonic() + seconds
    while True:
        reference.append(reference_task())
        for _ in range(0 if trace else SETUP_LAUNCHES):
            res = runner.launch("setup", [])
            attempted += 1
            if res.ok:
                setups.append(res.setup_s)
            else:
                errors.append(f"set-up exit {res.code}: {res.stderr.strip()[-300:]}")
        res = runner.launch("plain", args)
        if account(res):
            plain.append(res)
            setups.append(res.setup_s)
        if trace:
            res = runner.launch("trace", args)
            if account(res):
                spans = json.loads(res.out_path.read_text())
                traced.append((res, layers.layer_metrics(spans["names"], spans["spans"])))
        if time.monotonic() >= deadline:
            break
    if trace:
        res = runner.launch("profile", args)
        if account(res):
            profiled.append(json.loads(res.out_path.read_text()))

    metrics: dict = {}
    if trace and traced and plain and profiled:
        per_round = [m for _, m in traced]
        for key in per_round[0]:
            unit = "s" if key.endswith("_s") or key.endswith(".s") else (
                "ratio" if key.endswith("hit_ratio") else "count")
            metrics[key] = _metric(statistics.median(m[key] for m in per_round), unit)
        metrics["fraction.calls"] = _metric(profiled[0]["fraction.calls"], "count")
        metrics["trace.overhead_s"] = _metric(
            statistics.fmean(r.wall_s for r, _ in traced)
            - statistics.fmean(r.wall_s for r in plain), "s")
    elif not trace and plain:
        scale = REFERENCE_S / statistics.fmean(reference)
        metrics = {
            "wall_s": _metric(statistics.fmean(r.wall_s for r in plain) * scale, "s"),
            "setup_s": _metric(statistics.median(setups) * scale, "s"),
            "peak_rss_mb": _metric(statistics.median(r.rss_mb for r in plain), "MB"),
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    record = {
        "workload": workload.name, "seed": params.seed, "argv": args,
        "trace": trace, "rounds": len(plain),
        "samples": {
            "wall_s": [r.wall_s for r in plain],
            "setup_s": setups,
            "peak_rss_mb": [r.rss_mb for r in plain],
            "traced_wall_s": [r.wall_s for r, _ in traced],
            "reference_s": reference,
        },
        "errors": errors[:10], "wrong": wrong[:20],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "wctree_version": version, "commit": _commit(),
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wctree" / "cli.py").is_file():
        print(f"error: no wctree sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = draw_params(workload, args.seed)
    command = cli_args(workload, params)

    scratch = HERE / ".runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(scratch)
        # compile the package's bytecode once, as an installed package would have it
        warm = subprocess.run(
            [sys.executable, "-c", "import wctree.cli; print(wctree.cli.__file__)"],
            env=runner.env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=False)
        imported = Path(warm.stdout.strip() or ".").resolve()
        if warm.returncode != 0 or imported.parent != (ROOT / "src" / "wctree").resolve():
            print(f"error: cannot import wctree.cli from {ROOT / 'src'}: "
                  f"{warm.stderr.strip() or imported}", file=sys.stderr)
            return 2
        result, record = measure(workload, params, command, args.seconds,
                                 bool(args.trace), runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
