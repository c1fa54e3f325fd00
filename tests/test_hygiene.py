"""Source hygiene: no assert statements and no unreferenced definitions."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csmloci"
# perfbench is a consumer of the library too: what only it calls stays.
USERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
CALLED_BY_LIBRARIES = {"error"}  # argparse.ArgumentParser.error, overridden in cli


def trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # exactness checks must survive python -O
    found = [f"{path.name}:{node.lineno}" for path, tree in trees([PACKAGE])
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_every_definition_is_referenced():
    refs = collections.Counter()
    for _, tree in trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name.rpartition(".")[2]] += 1
    defined = {node.name for _, tree in trees([PACKAGE]) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    unused = sorted(name for name in defined - CALLED_BY_LIBRARIES
                    if not name.startswith("__") and not refs[name])
    assert not unused
