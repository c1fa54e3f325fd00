"""Source hygiene: no assert statements or raised AssertionErrors, no
definition that production never names, no defaulted parameter that
production never passes, no production module that reaches the reference
routes in csmloci.oracles, no functools cache off a module-level function,
and no two caches of one name."""

import ast
import collections
import pathlib

from csmloci import _EXPORTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csmloci"
CALLED_BY_LIBRARIES = {"error"}  # argparse.ArgumentParser.error, overridden in cli
ORACLES = PACKAGE / "oracles.py"


def trees(dirs, skip=()):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            if path not in skip:
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
    # a name counts as used only when production names it: the package
    # outside the oracles, or perfbench, which drives the library too.  The
    # oracles and the public names of __init__ need no production caller.
    refs = collections.Counter()
    for _, tree in trees([PACKAGE, ROOT / "perfbench"], skip={ORACLES}):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name.rpartition(".")[2]] += 1
    defined = set()
    for _, tree in trees([PACKAGE], skip={ORACLES}):
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        # module-level assignment targets too (refs skips their Store names)
        for node in tree.body:
            tops = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            defined |= {target.id for top in tops for target in ast.walk(top)
                        if isinstance(target, ast.Name)}
    unused = sorted(name for name in defined - CALLED_BY_LIBRARIES - set(_EXPORTS)
                    if not name.startswith("__") and not refs[name])
    assert not unused, f"defined but never named by production: {unused}"


def defaulted_parameters(tree):
    """(called name, positional index or None, parameter name, line) for each
    defaulted parameter of each function, a method's index counted without
    self; a class is called by its own name for __init__."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner if child.name == "__init__" and owner else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if owner and "staticmethod" not in \
                    {getattr(d, "id", None) for d in child.decorator_list} else 0
                for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        len(positional) - len(args.defaults)):
                    found.append((name, i - skip, arg.arg, child.lineno))
                found.extend((name, None, arg.arg, child.lineno)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
            visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return found


def test_every_default_is_passed_by_production():
    # a default that no production call overrides is a parameter production
    # does not need; a call passes it by keyword, by position, or through a
    # *args or **kwargs splat
    passed = collections.defaultdict(set)
    for _, tree in trees([PACKAGE, ROOT / "perfbench"], skip={ORACLES}):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if any(isinstance(a, ast.Starred) for a in node.args):
                passed[name].add("*")
            passed[name] |= set(range(len(node.args)))
            passed[name] |= {kw.arg or "**" for kw in node.keywords}
    unpassed = []
    for path, tree in trees([PACKAGE], skip={ORACLES}):
        for name, index, param, line in defaulted_parameters(tree):
            got = passed[name]
            if not ({param, "**"} & got or index is not None and {index, "*"} & got):
                unpassed.append(f"{path.name}:{line} {name}({param}=...)")
    assert not unpassed, f"defaulted parameters no production call passes: {unpassed}"


def oracle_imports(tree):
    """Lines of the imports that name the oracles module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for a in node.names for p in a.name.split(".")]
        else:
            continue
        if "oracles" in parts:
            found.append(node.lineno)
    return found


def test_oracles_stay_off_the_production_path():
    # oracles imports the production modules and never the other way round:
    # no production module loads it or names anything the oracles define,
    # and the package namespace exports none of it
    assert "oracles" not in _EXPORTS.values()
    defined = {node.name for node in ast.parse(ORACLES.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    found = []
    for path, tree in trees([PACKAGE]):
        if path == ORACLES:
            continue
        found += [f"{path.name}:{line} imports oracles" for line in oracle_imports(tree)]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None
            if name in defined:
                found.append(f"{path.name}:{node.lineno} names {name}")
    assert not found


CACHES = {"lru_cache", "cache"}


def cache_uses(tree):
    """(line, allowed?) of each use of a functools cache: allowed only as a
    decorator of a module-level function."""
    local = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names if a.name in CACHES}
    allowed = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed |= {id(dec.func if isinstance(dec, ast.Call) else dec)
                        for dec in node.decorator_list}
    return [(node.lineno, id(node) in allowed) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in local
            or isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id == "functools"]


def test_caches_decorate_module_level_functions():
    # the benchmark empties before each cold pass the caches it finds among a
    # module's attributes; one on a method, a nested function or a wrapped
    # callable would stay warm from pass to pass
    found = [f"{path.name}:{line}" for path, tree in trees([PACKAGE])
             for line, ok in cache_uses(tree) if not ok]
    assert not found


def cached_function_names(tree):
    """Names of the module-level functions that a functools cache decorates."""
    lines = {line for line, ok in cache_uses(tree) if ok}
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(dec.lineno in lines for dec in node.decorator_list)]


def test_cache_names_are_unique():
    # the benchmark keys the caches it empties before each cold pass by bare
    # function name, so of two caches with one name one stays warm
    names = collections.Counter(name for _, tree in trees([PACKAGE])
                                for name in cached_function_names(tree))
    assert len(names) > 20
    repeated = sorted(name for name, k in names.items() if k > 1)
    assert not repeated, f"cache names used more than once: {repeated}"
