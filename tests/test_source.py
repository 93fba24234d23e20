"""Checks over the library's source text rather than its behaviour."""

import ast
import sys
from pathlib import Path

import pytest

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


def test_library_imports_only_the_standard_library():
    # the package promises no runtime dependencies, so a module outside the
    # standard library must not creep in even when it is installed
    root = Path(itmlib.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(root)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"itmlib"}
            ]
    assert found == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
