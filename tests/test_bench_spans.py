"""The traced benchmark (``bench/run.py --trace 1``) wraps graphcake's layer
functions by name, from the list in ``bench/spans.py``.  A rename or removal in
the library must show up here rather than as a failed benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    # spans.py imports only the standard library, so it loads by path alone
    spec = importlib.util.spec_from_file_location("graphcake_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = _load_spans().LAYER_FUNCTIONS


def test_the_span_list_is_not_empty():
    assert LAYER_FUNCTIONS


@pytest.mark.parametrize(
    "module_name, attribute, span", LAYER_FUNCTIONS, ids=[f"{m}.{a}" for m, a, _ in LAYER_FUNCTIONS]
)
def test_every_layer_function_resolves(module_name, attribute, span):
    home = importlib.import_module(f"graphcake.{module_name}")
    if "." in attribute:
        cls_name, method = attribute.split(".")
        # install() rewraps the descriptor it finds on the class itself
        assert isinstance(vars(getattr(home, cls_name)).get(method), (staticmethod, classmethod))
    else:
        assert callable(getattr(home, attribute))
