"""Every exported name is reached by the library, a demo, the benchmark or a criterion."""

import ast
from pathlib import Path

import wctree

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(paths) -> set[str]:
    """Names read, attributes looked up and names imported in the given files.

    Definitions (`def`, `class`, assignment targets) do not read their name,
    so a name counts only where some code uses it.
    """
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_export_is_reached_outside_its_unit_tests():
    """A name only its own unit tests call is surface with no user: delete it
    or leave it out of `__all__`."""
    paths = [p for p in (ROOT / "src" / "wctree").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    used = _referenced_names(paths)
    assert sorted(set(wctree.__all__) - used) == []
