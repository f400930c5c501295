"""Every name a library module imports is used in that module.  No linter
ships with the project, so this stands in for one.  ``__init__.py`` is
skipped: it imports names to re-export them."""

import ast
from pathlib import Path

import graphcake


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


def test_library_imports_only_what_it_uses():
    modules = sorted(Path(graphcake.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line} {name}"
        for path in modules
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_detector_sees_plain_dotted_aliased_and_from_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as js\nfrom math import gcd, lcm as l\n"
        "from fractions import Fraction\n"
        "x: Fraction = gcd(1, 2)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "os"), (4, "js"), (5, "l")]
