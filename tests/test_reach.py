"""Every function of the library is reached by the library or the benchmark.

A function or method that only the tests name is code no check and no CLI
path runs: it goes, or it moves into the tests that use it.  The sweep is by
name, so it is coarse: a method counts as reached when anything of the same
name is named anywhere outside its own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Kept on purpose: the README promises the round trip of the BWB tables.
ALLOWED = {"serialize_tables"}


def _names(tree):
    """(name, line) of every ast.Name and ast.Attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_library_function_is_named_outside_the_tests():
    library = sorted((ROOT / "src" / "steinberg").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert library and bench
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in library + bench}
    uses = {path: list(_names(tree)) for path, tree in trees.items()}
    unreached = []
    for path in library:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in ALLOWED:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and not (where == path and line in body)
                       for where, names in uses.items() for used, line in names):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert not unreached, unreached
