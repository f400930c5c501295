"""Every name a library or test module imports is used in that module.  No
linter ships with the project, so this stands in for one.  ``__init__.py`` is
skipped: it imports names to re-export them.  The independent checker imports
only the standard library, so it shares no code with what it checks."""

import ast
import sys
from pathlib import Path

import graphcake

TESTS = Path(__file__).parent


def _unused_imports(tree):
    """(line, name) of each name bound by an import and never read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _unused_in(modules):
    return [
        f"{path.name}:{line} {name}"
        for path in modules
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_library_imports_only_what_it_uses():
    modules = sorted(Path(graphcake.__file__).parent.rglob("*.py"))
    assert modules and _unused_in(modules) == []


def test_tests_import_only_what_they_use():
    modules = sorted(TESTS.glob("*.py"))
    assert TESTS / "conftest.py" in modules and _unused_in(modules) == []


def test_independent_checker_imports_only_the_standard_library():
    tree = ast.parse((TESTS / "independent.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    # a relative import names no module, so it reads as "" and fails too
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and {name.partition(".")[0] for name in modules} <= sys.stdlib_module_names


def test_detector_sees_plain_dotted_aliased_and_from_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as js\nfrom math import gcd, lcm as l\n"
        "from fractions import Fraction\n"
        "x: Fraction = gcd(1, 2)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "os"), (4, "js"), (5, "l")]
