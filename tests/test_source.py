"""Checks over the library's source text rather than its behaviour."""

import ast
from pathlib import Path

import itmlib


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise
    # explicitly (AssertionError or a domain error) to hold in every mode
    root = Path(itmlib.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
