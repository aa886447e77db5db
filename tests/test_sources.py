"""Source-level rules for the strongpoly package."""

import ast
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
