"""Every private name a library module defines is used by library code.  No
linter ships with the project, so this stands in for one: a private
(``_``-prefixed, not dunder) module-level function, class or constant, or a
private method, must be read somewhere in ``src`` outside its own definition.
Names are matched by spelling, so a use of another object of the same name
counts too; tests do not count."""

import ast
from collections import defaultdict
from pathlib import Path

import graphcake


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, first line, last line) of each private module-level function,
    class or constant and each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if _is_private(name):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(item.name):
                    yield item.name, item.lineno, item.end_lineno


def _reads(tree):
    """(name, line) of each name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _dead_private_names(sources):
    """``module:line name`` of each private definition in ``sources``, a dict
    of module name to parsed tree, that no code outside it reads."""
    reads = defaultdict(list)  # name -> (module, line) of each read
    for module, tree in sources.items():
        for name, line in _reads(tree):
            reads[name].append((module, line))
    dead = []
    for module, tree in sources.items():
        for name, first, last in _private_definitions(tree):
            if all(other == module and first <= line <= last for other, line in reads[name]):
                dead.append(f"{module}:{first} {name}")
    return dead


def test_library_defines_no_dead_private_code():
    paths = sorted(Path(graphcake.__file__).parent.rglob("*.py"))
    assert paths
    sources = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    assert _dead_private_names(sources) == []


def test_detector_sees_functions_classes_constants_and_methods():
    source = (
        "_USED = 1\n_UNUSED = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
        "def _helper():\n    return 1\n"
        "class _Dead:\n    pass\n"
        "class Live:\n"
        "    def _called(self):\n        return self._lonely\n"
        "    def _lonely(self):\n        return self._lonely()\n"
        "    def __repr__(self):\n        return ''\n"
        "print(Live()._called())\n"
    )
    other = "from a import _helper\n_helper()\n"
    sources = {"a.py": ast.parse(source), "b.py": ast.parse(other)}
    assert _dead_private_names(sources) == ["a.py:2 _UNUSED", "a.py:3 _recursive", "a.py:7 _Dead"]
