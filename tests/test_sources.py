"""Source-level rules for the strongpoly package."""

import ast
import re
from pathlib import Path

import strongpoly


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards soundness
    # must be an explicit raise.
    modules = sorted(Path(strongpoly.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is used in that module; only __init__.py
    # imports names to re-export them
    unused = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_unchecked_constructor_stays_in_ring():
    # LaurentPoly._trusted skips the checks of __init__, so only the ring's
    # own arithmetic may build with it; every other module, which may hold
    # outside data, goes through __init__
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if "_trusted" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))}
        if path.name == "ring.py":
            assert names
        else:
            found += sorted(names)
    assert found == []


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_dead_module_names():
    # a module-level function, class or assigned name that is neither
    # exported nor used anywhere else in the package is dead code
    package = Path(strongpoly.__file__).parent
    statements = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path, stmt) for stmt in tree.body]
    uses = {}
    for index, (_, stmt) in enumerate(statements):
        for name in _referenced_names(stmt):
            uses.setdefault(name, set()).add(index)
    dead = []
    for index, (path, stmt) in enumerate(statements):
        if path.name == "__init__.py":
            continue
        for name in _defined_names(stmt):
            exempt = name in strongpoly.__all__ or (name.startswith("__") and name.endswith("__"))
            if not exempt and not uses.get(name, set()) - {index}:
                dead.append(f"{path.name}:{stmt.lineno} {name}")
    assert dead == []


# the only module-level mutable containers: constant tables nothing mutates
MODULE_CONTAINERS = {
    ("__init__.py", "__all__"),
    ("cli.py", "_EXIT_FOR_STATUS"),
    ("cli.py", "_BUDGET_FLAGS"),
}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
FUNCTOOLS_CACHES = {"cache", "lru_cache"}


def _is_container(value):
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("dict", "list", "set")
    return isinstance(value, CONTAINERS)


def test_no_cache_outlives_a_call():
    # a memo must not carry answers from one call to the next, so that a
    # repeated input costs what it cost the first time: no functools caches,
    # and no module-level dict, list or set outside the allowlist
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & FUNCTOOLS_CACHES]
        for stmt in tree.body:
            if _is_container(getattr(stmt, "value", None)):
                for target in _defined_names(stmt):
                    if (path.name, target) not in MODULE_CONTAINERS:
                        found.append(f"{path.name}:{stmt.lineno} {target}")
    assert found == []


def test_no_one_item_counters():
    # a running total is an errors.Meter, not a one-item list passed down the
    # call chain and decremented in place (x[0] -= units); the dense loops
    # index with computed expressions and a report's counters with string
    # keys, so only such lists match
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.slice, ast.Constant)
            and isinstance(node.target.slice.value, int)
        ]
    assert found == []


def test_every_cap_is_documented():
    # each module-level MAX_* constant is a budget or a cap on input, so the
    # README names it where a user looks up why a run exited 3 or 4
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if name.startswith("MAX_") and not re.search(rf"\b{name}\b", readme):
                    missing.append(f"{path.name}:{stmt.lineno} {name}")
    assert missing == []
