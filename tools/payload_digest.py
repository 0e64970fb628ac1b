"""Digest of every report payload of a fixed list of CLI commands.

    python3 tools/payload_digest.py [--dump DIR] > digests.txt

Run from anywhere; the program is imported from the `src/` directory next to
this file's directory, and the benchmark commands are read from the
`perfbench/` directory there.  Each command runs in a fresh interpreter, in
that directory, once plainly and once under `python -O`, and one line is
printed per run:

    <sha256>  <plain|-O>  <command>

The digest covers the report envelope without its `timing_ms`, with keys
sorted; a `--format text` report is digested as printed, without its
`elapsed` line; a command that exits nonzero is digested by its exit code
and standard error instead.  Diffing the output of two checkouts shows which
payloads a change moved; `--dump DIR` also writes every digested text to
DIR, one numbered file per run, so that the moved ones can be read.

The list: the four benchmark workloads at seed 5, the CLI scenarios of the
acceptance criteria and of README, traversals on every kind of space
(`analyze-tree` also with undecided nodes below an all-holds path, and
under node budgets that cut it, a `branch-hunt` in lp:3/2 whose 25
float descents mostly run for a while before their Frank-Wolfe gap stops
them, the seed-5 l1 `branch-hunt` under node budgets, one that cuts its
beam search and two that cover the children it evaluates, and `wf-scan` over
dense-space in c0, l1 and l2 at eps 1/4, M = 3, depth 4 and index bound 8,
which runs the polyhedral basis constants, the simplex LP and Wolfe's
corral solves), and `predicate`
on nodes that repeat an index, in l1, c0, l2, lp:3/2 and lp:3, over every
built-in set, at an eps that the lower end of a bracket minimum
decides and at one that needs its upper end.  On some sets node 1,2,3,1 is
dependent before its repeat, so its structural witness is not e_j - e_i.
Then `predicate` on nodes of 2-4 distinct nonzero vectors, in lp:4/3 and
lp:5/2 over every built-in set, at an eps of 1/16 that the lower end
decides (every such lower end is at least 1/16) and at 2, above every
lower end, where the upper end is needed.
Then `fixed-point`, averaged and saturating, with every registered map, and
`poset-demo`, on the default poset and on given ones, so that each result
record of `fixedpoint` reaches some payload; the averaged shift also runs
with `--set unit-vector-hull`, `summing-hull`, `hilbert-cube` and
`unit-vector-family`, so that each of their membership tests is reached.
Last, four paths that the lists above miss: a failing exact-gram report at
M >= 1, a set read from `tools/digest_set.json` (points with non-unit
denominators), the same file under a `--space` other than its own, which is
refused, and one report rendered with `--format text`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, cli_args, draw_params  # noqa: E402

SPACES = ["l1", "c0", "l2", "lp:3/2", "lp:3"]
SETS = ["unit-vector-hull", "summing-hull", "unit-ball", "hilbert-cube",
        "unit-vector-family", "dense-space"]
REPEAT_NODES = ["0,0", "0,1,0", "1,0,1", "2,3,2,3", "0,4,8,4", "5,1,5,1,5", "1,2,3,1"]
PREDICATE_EPS = ["1/2", "1"]
BRACKET_SPACES = ["lp:4/3", "lp:5/2"]
DISTINCT_NODES = {
    "unit-vector-hull": ["4,0", "0,4,8", "8,0,14,4"],
    "summing-hull": ["4,0", "0,4,8", "12,8,4,0"],
    "unit-ball": ["2,6", "8,2,12", "2,6,8,14"],
    "hilbert-cube": ["1,3", "8,1,5", "1,2,3,6"],
    "unit-vector-family": ["1,0", "0,2,4", "3,0,1,2"],
    "dense-space": ["4,2", "2,1,6", "1,8,3,7"],
}
DISTINCT_EPS = ["1/16", "2"]

SCENARIOS = [
    # acceptance criteria 01, 02 and 10
    "branch-hunt --space l1 --set unit-vector-hull --eps 1 --bigm 1 --depth 10"
    " --index-bound 64 --beam-width 4",
    "wf-scan --space l2 --set unit-vector-family --eps 3/5 --bigm 2 --depth 4"
    " --index-bound 16",
    "branch-hunt --space l2 --set hilbert-cube --eps 7/10 --bigm 2 --depth 1"
    " --index-bound 64",
    # README
    "predicate --space l2 --set unit-vector-family --node 0,1,2 --eps 3/5 --bigm 2",
    "analyze-tree --space l1 --set unit-vector-hull --eps 1 --bigm 1 --depth 3"
    " --index-bound 8",
    "export-dot --space l2 --set unit-vector-family --eps 3/5 --bigm 2 --depth 3"
    " --index-bound 6",
    # traversals on every kind of space
    "analyze-tree --space l2 --set summing-hull --eps 1/2 --bigm 3 --depth 3"
    " --index-bound 12",
    "analyze-tree --space l2 --set summing-hull --eps 3/16 --bigm 3 --depth 3"
    " --index-bound 12",
    "analyze-tree --space l2 --set summing-hull --bigm 3 --depth 3 --index-bound 12"
    " --stacked",
    "analyze-tree --space lp:3/2 --set unit-vector-family --depth 4 --index-bound 6"
    " --stacked",
    "analyze-tree --space c0 --set summing-hull --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 10",
    "analyze-tree --space lp:3 --set unit-vector-family --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 6",
    # undecided nodes below an all-holds path, and budgets that cut the levels
    # or leave the characteristic nodes some of their own
    "analyze-tree --space lp:3/2 --set dense-space --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 6",
    "analyze-tree --space lp:3 --set hilbert-cube --eps 1/3 --bigm 2 --depth 3"
    " --index-bound 8",
    "analyze-tree --space l2 --set summing-hull --eps 1/2 --bigm 3 --depth 3"
    " --index-bound 12 --node-budget 50",
    "analyze-tree --space l2 --set summing-hull --eps 1/2 --bigm 3 --depth 3"
    " --index-bound 12 --node-budget 1000",
    "wf-scan --space lp:3/2 --set unit-vector-family --eps 3/5 --bigm 2 --depth 5"
    " --index-bound 5",
    "wf-scan --space lp:3 --set hilbert-cube --eps 1/3 --bigm 2 --depth 3"
    " --index-bound 8",
    "wf-scan --space lp:3 --set hilbert-cube --eps 1/3 --bigm 2 --depth 3"
    " --index-bound 8 --node-budget 40",
    "wf-scan --space l1 --set dense-space --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 10",
    "wf-scan --space lp:4/3 --set summing-hull --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 8",
    "wf-scan --space c0 --set unit-vector-hull --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 8",
    # dense-space scans that run every exact solver of their space: the c0 and
    # l1 polyhedral basis constants and simplex LPs, and l2's Wolfe solves
    "wf-scan --space c0 --set dense-space --eps 1/4 --bigm 3 --depth 4"
    " --index-bound 8",
    "wf-scan --space l1 --set dense-space --eps 1/4 --bigm 3 --depth 4"
    " --index-bound 8",
    "wf-scan --space l2 --set dense-space --eps 1/4 --bigm 3 --depth 4"
    " --index-bound 8",
    "branch-hunt --space lp:3/2 --set unit-vector-family --eps 3/5 --bigm 2"
    " --depth 4 --index-bound 6",
    # 25 float descents: 3 stop at their first point, 15 later in their first
    # start, 7 after it
    "branch-hunt --space lp:3/2 --set hilbert-cube --eps 1/4 --bigm 3 --depth 4"
    " --index-bound 8 --beam-width 4",
    # the seed-5 l1-hull-branch hunt under node budgets: 200 cuts its beam
    # search, 400 and 900 cover the children it evaluates but not every child
    "branch-hunt --space l1 --set unit-vector-hull --eps 3/8 --bigm 1 --depth 8"
    " --index-bound 32 --beam-width 4 --seed 5 --node-budget 200",
    "branch-hunt --space l1 --set unit-vector-hull --eps 3/8 --bigm 1 --depth 8"
    " --index-bound 32 --beam-width 4 --seed 5 --node-budget 400",
    "branch-hunt --space l1 --set unit-vector-hull --eps 3/8 --bigm 1 --depth 8"
    " --index-bound 32 --beam-width 4 --seed 5 --node-budget 900",
    "export-dot --space l2 --set summing-hull --eps 1/2 --bigm 3 --depth 3"
    " --index-bound 5",
    "export-dot --space lp:3/2 --set unit-vector-family --eps 3/5 --bigm 2"
    " --depth 3 --index-bound 5",
    "export-dot --space l1 --set unit-vector-hull --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 5",
    "export-dot --space c0 --set summing-hull --eps 1/2 --bigm 2 --depth 3"
    " --index-bound 5",
]

# whitespace-free arguments, split on spaces like SCENARIOS
FIXED_POINT = [
    # README
    "fixed-point --space l2 --map shift --steps 10000 --set unit-ball",
    "poset-demo --elements a,b,c --covers a<b,a<c",
    # averaged iteration on every map and kind of space, with and without a domain
    "fixed-point --space l2 --map shift --steps 100 --set unit-ball",
    "fixed-point --space l1 --map shift --steps 50 --weight 1/3 --start 0:1,2:-1/2",
    "fixed-point --space c0 --map halving --steps 40 --set unit-ball",
    "fixed-point --space lp:3/2 --map identity --steps 20 --start 1:3/4",
    "fixed-point --space l2 --map constant --point 0:1,3:1/2 --steps 30 --set unit-ball",
    "fixed-point --space lp:3 --map constant --point 2:-1 --steps 25 --weight 9/10",
    "fixed-point --space l2 --map shift --steps 0",
    "fixed-point --space l2 --map shift --steps 10 --weight 1",
    # the membership test of every other set model with a decidable one
    "fixed-point --space l2 --map shift --steps 20 --set unit-vector-hull",
    "fixed-point --space l2 --map shift --steps 20 --set summing-hull",
    "fixed-point --space l2 --map shift --steps 20 --set hilbert-cube",
    "fixed-point --space l2 --map shift --steps 20 --set unit-vector-family",
    # orbit saturation: closed, closed at once, and cut by the point budget
    "fixed-point --space l2 --map constant --point 0:1 --saturate --start 3:1/2",
    "fixed-point --space l1 --map halving --saturate --start 0:1 --max-points 40",
    "fixed-point --space l2 --map identity --saturate",
    "fixed-point --space c0 --map shift --saturate --max-points 16",
    # ascent in finite posets
    "poset-demo",
    "poset-demo --elements a,b,c,d --covers a<b,b<c,a<d",
    "poset-demo --elements x",
    "poset-demo --elements a,b --covers a-b",
]

OTHER_PATHS = [
    # the PSD witness fails the bound M = 1: its margin comes from its prefix ratio
    "predicate --space l2 --set summing-hull --node 0,4 --eps 1/2 --bigm 1",
    # the path is relative to the directory the commands run in
    "analyze-tree --space l1 --set @tools/digest_set.json --eps 1/4 --bigm 2 --depth 3"
    " --index-bound 4",
    # a set file is refused in any space but its own
    "analyze-tree --space l2 --set @tools/digest_set.json --eps 1/4 --bigm 2 --depth 3"
    " --index-bound 4",
    "predicate --space l2 --set summing-hull --node 0,4,8 --eps 1/2 --bigm 2 --format text",
]


def commands() -> list[list[str]]:
    cmds = [cli_args(w, draw_params(w, 5)) for w in WORKLOADS.values()]
    cmds += [s.split() for s in SCENARIOS]
    for space in SPACES:
        for kind in SETS:
            for node in REPEAT_NODES:
                for eps in PREDICATE_EPS:
                    cmds.append(["predicate", "--space", space, "--set", kind,
                                 "--node", node, "--eps", eps, "--bigm", "2"])
    for space in BRACKET_SPACES:
        for kind in SETS:
            for node in DISTINCT_NODES[kind]:
                for eps in DISTINCT_EPS:
                    cmds.append(["predicate", "--space", space, "--set", kind,
                                 "--node", node, "--eps", eps, "--bigm", "2"])
    cmds += [s.split() for s in FIXED_POINT]
    cmds += [s.split() for s in OTHER_PATHS]
    return cmds


def digested_text(args: list[str], optimize: bool) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-m", "wctree.cli", *args],
                          capture_output=True, text=True, env=env, check=False, cwd=ROOT)
    if proc.returncode != 0:
        return f"exit {proc.returncode}\n{proc.stderr}"
    if "--format" in args and args[args.index("--format") + 1] == "text":
        return "\n".join(line for line in proc.stdout.splitlines()
                         if not line.startswith("  elapsed = "))
    envelope = json.loads(proc.stdout)
    envelope.pop("timing_ms")
    return json.dumps(envelope, indent=1, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write every digested text to this directory")
    args = parser.parse_args()
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    runs = 0
    for cmd in commands():
        for optimize in (False, True):
            text = digested_text(cmd, optimize)
            mode = "-O" if optimize else "plain"
            if args.dump:
                (args.dump / f"{runs:04d}{mode}.json").write_text(text + "\n")
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{digest}  {mode:5}  {' '.join(cmd)}", flush=True)
            runs += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
