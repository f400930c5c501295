"""Every public module-level function or class the library defines is exported
in ``graphcake.__all__`` or read by library code outside its own definition.
A public name that is neither is reached only by tests, if at all.  Like the
private-name check beside it, this reads the modules' syntax trees and matches
names by spelling; tests do not count."""

import ast
from collections import defaultdict
from pathlib import Path

import graphcake

from test_no_dead_private_code import _reads


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def _dead_public_names(sources, exported):
    """``module:line name`` of each public definition in ``sources``, a dict of
    module name to parsed tree, that ``exported`` leaves out and no code
    outside it reads."""
    reads = defaultdict(list)  # name -> (module, line) of each read
    for module, tree in sources.items():
        for name, line in _reads(tree):
            reads[name].append((module, line))
    return [
        f"{module}:{first} {name}"
        for module, tree in sources.items()
        for name, first, last in _public_definitions(tree)
        if name not in exported and all(other == module and first <= line <= last for other, line in reads[name])
    ]


def test_library_defines_no_dead_public_code():
    paths = sorted(Path(graphcake.__file__).parent.rglob("*.py"))
    assert paths
    sources = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    assert _dead_public_names(sources, set(graphcake.__all__)) == []


def test_detector_sees_unexported_unread_functions_and_classes():
    source = (
        "def exported():\n    return 1\n"
        "def called():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unused:\n    def called(self):\n        return 3\n"
        "def _private():\n    return called()\n"
    )
    assert _dead_public_names({"a.py": ast.parse(source)}, {"exported"}) == ["a.py:5 recursive", "a.py:7 Unused"]
