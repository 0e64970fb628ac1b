"""The names that the traced benchmark run wraps must exist in the library."""

import importlib.util
from pathlib import Path

from wctree import predicates, trees


def test_traced_benchmark_wraps_existing_names():
    """perfbench/spans.py patches these names only once a traced run starts,
    so a renamed or deleted one would otherwise surface only there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines the wrappers; install() is not called
    hooks = [(owner, attr) for owner, attr, _ in spans._PLAIN]
    hooks += [(trees.WcTree, "member"), (predicates, "is_M_schauder"),
              (predicates, "simplex_min_norm")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks
               if not callable(getattr(owner, attr, None))]
    assert not missing
