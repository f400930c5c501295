"""Internal checks must survive ``python -O``: no module of the library may use
``assert`` or raise ``AssertionError``; they raise ``ProtocolInvariantError``."""

import ast
from pathlib import Path

import graphcake


def _asserting_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_library_has_no_asserts():
    modules = sorted(Path(graphcake.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _asserting_lines(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_detector_sees_both_forms():
    source = "assert x\nraise AssertionError\nraise AssertionError('no')\nraise ValueError\n"
    assert list(_asserting_lines(ast.parse(source))) == [1, 2, 3]
