"""Source hygiene: no assert statements or raised AssertionErrors, no
unreferenced definitions, and no production caller of the alpha-route
conversions."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csmloci"
# perfbench is a consumer of the library too: what only it calls stays.
USERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
CALLED_BY_LIBRARIES = {"error"}  # argparse.ArgumentParser.error, overridden in cli
# Conversions through the full polynomial in the Chern roots: test oracles only.
ALPHA_ROUTE = {"csm_to_ssm", "to_chern_basis", "chern_to_alpha", "to_schur_basis",
               "total_chern"}


def trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def raises_assertion_error(node):
    exc = node.exc if isinstance(node, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # exactness checks must survive python -O, and a failed one is a named error
    found = [f"{path.name}:{node.lineno}" for path, tree in trees([PACKAGE])
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert) or raises_assertion_error(node)]
    assert not found


def test_every_definition_is_referenced():
    refs = collections.Counter()
    for _, tree in trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name.rpartition(".")[2]] += 1
    defined = set()
    for _, tree in trees([PACKAGE]):
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        # module-level assignment targets too (refs skips their Store names)
        for node in tree.body:
            tops = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            defined |= {target.id for top in tops for target in ast.walk(top)
                        if isinstance(target, ast.Name)}
    unused = sorted(name for name in defined - CALLED_BY_LIBRARIES
                    if not name.startswith("__") and not refs[name])
    assert not unused


def test_alpha_route_has_no_production_caller():
    # a call may sit only inside the definition of another alpha-route oracle;
    # every guarded name is defined, so a stale entry cannot guard nothing
    defined = {node.name for _, tree in trees([PACKAGE]) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert ALPHA_ROUTE <= defined
    found = []

    def visit(node, path, inside_oracle):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ALPHA_ROUTE and not inside_oracle:
                    found.append(f"{path.name}:{child.lineno} {name}")
            visit(child, path, inside_oracle or (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name in ALPHA_ROUTE))

    for path, tree in trees([PACKAGE]):
        visit(tree, path, False)
    assert not found
