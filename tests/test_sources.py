"""Source-level rules for the strongpoly package."""

import ast
import importlib
import re
from collections import Counter
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


# the methods of a class that packs monomials into words
WORD_METHODS = {"pack", "unpack", "shift", "shifts"}


def test_word_layout_stays_in_ring():
    # ring.WordFormat is the package's one packed monomial layout: no other
    # class packs or unpacks monomials, and no module has field widths or
    # masks of its own (a MAX_ cap on bits is a cap on input)
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and WORD_METHODS & {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        ]
        found += [
            (path.name, name)
            for stmt in tree.body
            for name in _defined_names(stmt)
            if re.fullmatch(r"(?!MAX_)[A-Z_]*(BITS|MASK|WIDTH)", name)
        ]
    assert found == [("ring.py", "WordFormat")]


def test_content_gcd_stays_in_poly_gcd():
    # poly_gcd returns the gcd with the shared integer content, so only it
    # takes a gcd of .content() results; a caller that patches content back
    # in splits one decision over two places
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and "gcd" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    and any(
                        isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "content"
                        for arg in node.args
                    )
                ):
                    found.append((path.name, getattr(top, "name", None), node.lineno))
    outside = [f"{name}:{line}" for name, top, line in found
               if (name, top) != ("factor.py", "poly_gcd")]
    assert outside == []
    assert found


def test_unit_reattached_in_is_irreducible():
    # is_irreducible divides a Laurent polynomial's monomial unit out and
    # puts it back on the first factor of a refutation, so it alone calls
    # mul_monomial; the strong-irreducibility search hands it whole
    # substitutions rather than shifting factors itself
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            found += [
                (path.name, getattr(top, "name", None))
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and "mul_monomial" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
            ]
    assert sorted(set(found)) == [("factor.py", "is_irreducible")]


def test_exit_codes_stay_in_main():
    # cli.main alone turns a verdict into its output and exit code: a handler
    # returns the Verdict itself, so only main reads the status table
    found = []
    for path in sorted(Path(strongpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if "_EXIT_FOR_STATUS" in (
                    getattr(node, "attr", None), getattr(node, "name", None)
                ) or (isinstance(node, ast.Name) and node.id == "_EXIT_FOR_STATUS"
                      and isinstance(node.ctx, ast.Load)):
                    found.append((path.name, getattr(top, "name", None), node.lineno))
    outside = [f"{name}:{top}:{line}" for name, top, line in found
               if (name, top) != ("cli.py", "main")]
    assert outside == []
    assert found


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


# names with no caller in the package on purpose, each with its reason
ENTRY_POINTS = {
    "coprime": "README documents it as a library entry point",
    "divisor_set_member": "README documents it as a library entry point",
    "reduce_multi_prime": "README documents it as a library entry point",
    "radical_member": "the reference the tests check only_trivial_solution against",
    "fox_derivative": "the reference the tests check the colored Burau pass against",
    "family_corpus": "the benchmark draws its strong-irred instances from it",
    "eval_at_ones": "the benchmark checks each Alexander polynomial with it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_no_dead_module_names():
    # a module-level function, class or assigned name that nothing else in
    # the package uses is dead code, unless it is a listed entry point;
    # __init__.py only re-exports, so its imports are no use.  So is a
    # non-dunder method that no attribute reference outside its own body
    # names, unless it overrides a method of a base class from outside the
    # package, such as ArgumentParser.error.
    package = Path(strongpoly.__file__).parent
    statements = []
    for path in sorted(package.rglob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            statements += [(path, stmt) for stmt in tree.body]
    uses = {}
    attributes = Counter()
    for index, (_, stmt) in enumerate(statements):
        for name in _referenced_names(stmt):
            uses.setdefault(name, set()).add(index)
        attributes.update(node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute))
    dead = []
    for index, (path, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            exempt = name in ENTRY_POINTS or _is_dunder(name)
            if not exempt and not uses.get(name, set()) - {index}:
                dead.append(f"{path.name}:{stmt.lineno} {name}")
        if not isinstance(stmt, ast.ClassDef):
            continue
        module = importlib.import_module(f"strongpoly.{path.stem}")
        bases = [base for base in getattr(module, stmt.name).__mro__[1:]
                 if not base.__module__.startswith("strongpoly")]
        for method in stmt.body:
            if not isinstance(method, ast.FunctionDef) or _is_dunder(method.name):
                continue
            if any(hasattr(base, method.name) for base in bases):
                continue
            own = sum(isinstance(node, ast.Attribute) and node.attr == method.name
                      for node in ast.walk(method))
            if attributes[method.name] == own:
                dead.append(f"{path.name}:{method.lineno} {stmt.name}.{method.name}")
    assert dead == []
    # an entry point is a public name, so a deleted one leaves no stale entry
    assert set(ENTRY_POINTS) <= set(strongpoly.__all__)


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
