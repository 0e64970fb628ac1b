"""Every exported name, function and method is reached by the library's live
code, a demo, the benchmark or a criterion."""

import ast
from pathlib import Path

import wctree

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "wctree").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _referenced_names(nodes, strings: bool = False) -> set[str]:
    """Names read, attributes looked up and names imported among the nodes;
    with `strings`, string constants too, for code that looks names up with
    `getattr`.

    Definitions (`def`, `class`, assignment targets) do not read their name,
    so a name counts only where some code uses it.
    """
    used = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _outside_function_bodies(tree: ast.AST):
    """The nodes that run when a module is imported: module-level and
    class-body code, with the decorators and defaults of each `def` but not
    its body."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, DEFS):
            stack += [*node.decorator_list, *node.args.defaults,
                      *(d for d in node.args.kw_defaults if d is not None)]
        else:
            stack += ast.iter_child_nodes(node)


def _live_names() -> tuple[set[str], list[ast.FunctionDef]]:
    """The names live code references, and every `def` in `src/wctree`.

    Seeds: import-time code of `src/` and the bodies of its dunders, which
    the language calls without naming them, and all of `demos/`,
    `perfbench/` (its string constants included) and
    `tests/test_acceptance.py`.  Then the body of each `def` whose name is
    already referenced joins in, until nothing changes, so a chain of
    functions that only call each other stays out.
    """
    trees = [_parse(path) for path in SRC]
    live = set()
    for tree in trees:
        live |= _referenced_names(_outside_function_bodies(tree))
    for path in [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        live |= _referenced_names(ast.walk(_parse(path)))
    for path in (ROOT / "perfbench").glob("*.py"):
        live |= _referenced_names(ast.walk(_parse(path)), strings=True)
    defs = [node for tree in trees for node in ast.walk(tree) if isinstance(node, DEFS)]
    for d in defs:
        if _is_dunder(d.name):
            live |= _referenced_names(ast.walk(d))
    waiting = [d for d in defs if not _is_dunder(d.name)]
    while True:
        reached = [d for d in waiting if d.name in live]
        if not reached:
            return live, defs
        waiting = [d for d in waiting if d.name not in live]
        for d in reached:
            live |= _referenced_names(ast.walk(d))


def test_every_export_is_reached_outside_its_unit_tests():
    """A name only its own unit tests call is surface with no user: delete it
    or leave it out of `__all__`."""
    paths = [p for p in SRC if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in paths:
        used |= _referenced_names(ast.walk(_parse(path)))
    assert sorted(set(wctree.__all__) - used) == []


def test_every_function_is_reached_from_live_code():
    """A function or method that no live code names, directly or through a
    chain of live functions, is dead: delete it.  Dunders are called by the
    language, not by name, and are left out."""
    live, defs = _live_names()
    dead = sorted({d.name for d in defs if not _is_dunder(d.name) and d.name not in live})
    assert dead == []
