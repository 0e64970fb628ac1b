"""Print every function of `src/wctree` that no command, demo or criterion enters.

    python3 tools/reach.py

A profile hook is set before `wctree` is imported, so calls made at import
time count.  The script then runs, in this one process, every command of
`tools/payload_digest.py` through `wctree.cli.main` (from the repository
root, with the output thrown away), each script in `demos/`, and
`tests/test_acceptance.py` through `pytest.main`.  It prints, one per line,
each function or method defined in `src/wctree` (nested ones included,
lambdas and comprehensions not) that was never entered and is not on the
allowlist below, each allowlist entry that a run enters or that names no
function, and each command that raised, demo that exited nonzero or failing
criterion run, and exits 1 if it printed anything.  Exit 0 means every
function is reached or allowed for the reason given, and every allowance
is needed.
"""

from __future__ import annotations

import contextlib
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wctree"

# function (module:qualname) -> why no run enters it
ALLOWED = {
    "spaces:Vector.__setattr__": "refuses assignment, pinned by tests/test_records.py",
    "spaces:Vector.__delattr__": "refuses deletion, pinned by tests/test_records.py",
    "spaces:Vector.__reduce__": "copy and pickle, pinned by tests/test_records.py",
    "sets:SetModel.__repr__": "a debugging view; no report prints a set model",
    "trees:WcTree.__repr__": "a debugging view; no report prints a tree",
    "spaces:Vector.__neg__": "the unary minus of the vector algebra",
    "errors:ContractViolation.__init__": "raised only when an analytic claim fails its check",
    "linalg:rank": "perfbench/spans.py wraps it by name, tests/test_benchmark_hooks.py pins it",
    "linalg:mat_vec": "perfbench/spans.py wraps it by name, tests/test_benchmark_hooks.py "
                      "pins it",
    "linalg:dot": "perfbench/spans.py wraps it by name, tests/test_benchmark_hooks.py pins it",
}


def _functions() -> dict[tuple[str, str, int], str]:
    """(file, qualname, first line) -> module:qualname of every def in src/wctree."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if code.co_name.startswith("<"):  # module body, lambda, comprehension
                continue
            out[code.co_filename, code.co_qualname, code.co_firstlineno] = \
                f"{path.stem}:{code.co_qualname}"
    return out


def _run_everything() -> list[str]:
    """Run the commands, demos and criteria; the problems met on the way."""
    from wctree import cli
    import payload_digest

    problems = []
    os.chdir(ROOT)  # payload_digest's commands name files relative to it
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for args in payload_digest.commands():
            try:
                cli.main(args)
            except Exception as exc:  # a crash is reported, not hidden
                problems.append(f"command {' '.join(args)}: {exc!r}")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            sys.argv = [str(demo)]
            try:
                runpy.run_path(str(demo), run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    problems.append(f"demo {demo.name} exited {exc.code}")
        import pytest
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py")])
        if code != 0:
            problems.append(f"tests/test_acceptance.py exited {code}")
    return problems


def main() -> int:
    prefix = str(SRC) + os.sep
    codes: dict[int, object] = {}  # id -> code object, kept alive so ids stay unique

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            codes[id(frame.f_code)] = frame.f_code

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    sys.setprofile(hook)  # before wctree is imported, so import-time calls count
    try:
        problems = _run_everything()
    finally:
        sys.setprofile(None)
    entered = {(c.co_filename, c.co_qualname, c.co_firstlineno) for c in codes.values()}
    never = {name for key, name in _functions().items() if key not in entered}
    lines = problems + sorted(never - ALLOWED.keys())
    lines += [f"{name}: on the allowlist, but entered or not defined"
              for name in sorted(ALLOWED.keys() - never)]
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
