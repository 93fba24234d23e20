"""Checks over the library's source text rather than its behaviour."""

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import itmlib

TESTS = Path(__file__).resolve().parent


def imported_modules(tree) -> list:
    """(line, module) for each absolute import in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def parsed(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def reads(tree) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


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
    found = [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] not in sys.stdlib_module_names | {"itmlib"}
    ]
    assert found == []


def test_oracle_imports_only_the_standard_library():
    # the differential tests' oracle is a model written from the definitions:
    # it reads library objects through their public fields and never calls
    # into itmlib, so a fault in the library's design cannot reach it
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    found = [
        f"oracle.py:{line}: {name}"
        for line, name in imported_modules(tree)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def top_level_names(tree) -> list:
    """The names a module binds at its top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def test_no_test_module_binds_a_top_level_name_twice():
    # a second definition silently shadows the first, and the tests that
    # meant the first run the second
    found = []
    for path in sorted(TESTS.glob("*.py")):
        names = Counter(top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
        found += [f"{path.name}: {name}" for name, count in names.items() if count > 1]
    assert found == []


def test_each_test_helper_has_one_home():
    # a helper copied into a second test module drifts from the first; a
    # shared one lives in conftest.py, or in oracle.py when it is a model
    homes = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith(("test", "Test")):
                    homes[node.name].append(path.name)
    assert {name: paths for name, paths in homes.items() if len(paths) > 1} == {}


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_library_lines_fit_in_100_columns():
    # a longer line hides its end in a side-by-side diff; the library, the
    # tests and the demos are all checked
    paths = [
        *sorted(Path(itmlib.__file__).parent.rglob("*.py")),
        *sorted(TESTS.glob("*.py")),
        *sorted((TESTS.parent / "demos").glob("*.py")),
    ]
    found = [
        f"{path.parent.name}/{path.name}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


def test_library_has_no_unused_imports():
    # an import that no expression reads is dead weight; a name listed in
    # __all__ is a re-export and counts as read
    root = Path(itmlib.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                used.update(ast.literal_eval(node.value))
        found += [
            f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used and name != "annotations"
        ]
    assert found == []


def test_every_private_helper_is_read_in_the_library():
    # a private module-level function or class that no other code in the
    # package reads was orphaned by a refactor; reads inside its own body
    # (recursion) do not count
    root = Path(itmlib.__file__).parent
    trees = {path: parsed(path) for path in sorted(root.rglob("*.py"))}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    found = [
        f"{path.relative_to(root)}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == reads(node)[node.name]
    ]
    assert found == []


def test_every_public_name_is_read_somewhere():
    # a public module-level function or class that nothing in the library,
    # the tests or the demos reads is an orphan: no caller keeps it honest;
    # reads inside its own body (recursion) do not count
    root = Path(itmlib.__file__).parent
    library = {path: parsed(path) for path in sorted(root.rglob("*.py"))}
    readers = list(library.values()) + [
        parsed(path)
        for folder in (TESTS, TESTS.parent / "demos")
        for path in sorted(folder.glob("*.py"))
    ]
    everywhere = sum((reads(tree) for tree in readers), Counter())
    found = [
        f"{path.relative_to(root)}:{node.lineno}: {node.name}"
        for path, tree in library.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == reads(node)[node.name]
    ]
    assert found == []


def test_only_circle_reads_arcset_storage():
    # an ArcSet's grid and runs are circle.py's business: other modules use
    # the public algebra, and move sets through charts with ArcSet._moved
    root = Path(itmlib.__file__).parent
    circle = ast.parse((root / "circle.py").read_text(encoding="utf-8"))
    arcset = next(
        node for node in circle.body
        if isinstance(node, ast.ClassDef) and node.name == "ArcSet"
    )
    names = set()
    for node in arcset.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and node.targets[0].id == "__slots__":
            names.update(ast.literal_eval(node.value))
    private = {
        name for name in names if name.startswith("_") and not name.startswith("__")
    } - {"_moved"}
    assert {"_q", "_runs", "_from_runs"} <= private
    found = [
        f"{path.relative_to(root)}:{node.lineno}: {node.attr}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "circle.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert found == []


def private_names(cls) -> set:
    """The private names a class binds: its methods, its slots and the
    attributes its methods set on self."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and node.targets[0].id == "__slots__":
            names.update(ast.literal_eval(node.value))
    names.update(
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_only_measure_reads_measure_storage():
    # a Measure's grid and cells, and a Cdf's integer rows and the methods
    # that read them, are measure.py's business: other modules read the
    # density, atoms and Cdf views, or the rows through measure.py's
    # helpers, and measure.py reaches an ArcSet's runs through circle.py's
    # helpers, as the pin above requires
    root = Path(itmlib.__file__).parent
    measure = ast.parse((root / "measure.py").read_text(encoding="utf-8"))
    classes = {
        node.name: node for node in measure.body
        if isinstance(node, ast.ClassDef) and node.name in ("Measure", "Cdf")
    }
    private = private_names(classes["Measure"]) | private_names(classes["Cdf"])
    assert {"_grid", "_cells", "_on_cells"} <= private
    assert {"_ticks", "_left", "_at", "_slopes", "_unit", "_quantile"} <= private
    found = [
        f"{path.relative_to(root)}:{node.lineno}: {node.attr}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "measure.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert found == []


def test_every_enum_member_is_named_outside_its_class():
    # a member that no code names as Class.MEMBER is never produced or read:
    # a value no caller can meet
    root = Path(itmlib.__file__).parent
    trees = {path: parsed(path) for path in sorted(root.rglob("*.py"))}
    enums = {
        node.name: node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)
    }
    inside = {id(n) for cls in enums.values() for n in ast.walk(cls)}
    named = {
        (node.value.id, node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in enums
        and id(node) not in inside
    }
    members = {
        (name, target.id)
        for name, cls in enums.items()
        for node in cls.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert {"FiniteType", "Side", "Domain"} <= enums.keys()
    assert sorted(members - named) == []


def test_all_lists_exactly_the_imported_names():
    # __all__ and the imports of __init__.py are two lists of one API, and a
    # name added to one alone drifts from the other
    tree = parsed(Path(itmlib.__file__))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(itmlib.__all__) == sorted(imported)
    assert len(itmlib.__all__) == len(set(itmlib.__all__))
