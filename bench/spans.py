"""Span recording for the traced benchmark run.

Spans are recorded by wrapping graphcake's layer-boundary functions from the
outside: each function is replaced in the module that defines it and in every
graphcake module that imported it by name, and put back afterwards.  Static
and class methods are wrapped on their class.  A wrapper records nothing
outside an operation, so the checker's own library calls leave no spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name); "Class.method" names a static or class method.
# A span name's first component is the layer the time is charged to.
LAYER_FUNCTIONS = (
    ("graph_core", "is_contiguous", "graph_core.is_contiguous"),
    ("graph_core", "compute_contiguous_labeling", "graph_core.labeling"),
    ("graph_core", "find_bridges", "graph_core.find_bridges"),
    ("graph_core", "split_cycles_to_tree", "graph_core.split_cycles"),
    ("graph_core", "classify_almost_bridgeless", "graph_core.classify"),
    ("graph_core", "induced_cake", "graph_core.induced_cake"),
    ("graph_core", "piece_component_count", "graph_core.piece_components"),
    ("graph_core", "piece_is_connected", "graph_core.piece_components"),
    ("graph_core", "CakeGraph.from_json", "graph_core.from_json"),
    ("valuation", "restrict", "valuation.restrict"),
    ("valuation", "restrict_and_renormalize", "valuation.restrict"),
    ("valuation", "cut_trajectory", "valuation.cut"),
    ("valuation", "latest_position_within", "valuation.cut"),
    ("valuation", "value_of_piece", "valuation.eval"),
    ("valuation", "Instance.from_json", "valuation.from_json"),
    ("valuation", "Valuation.from_json", "valuation.from_json"),
    ("protocols", "run_protocol", "protocols.run"),
    ("protocols", "guarantee_violations", "protocols.guarantee_check"),
    ("allocation", "verify_allocation", "allocation.verify"),
    ("oracle", "grid_search_best", "oracle.grid_search"),
    ("oracle", "pair_feasible", "oracle.pair_feasible"),
    ("oracle", "check_powers_of_three", "oracle.powers3"),
    ("cli", "main", "cli.main"),
    ("fixtures", "build_fixture", "fixtures.build"),
    ("fixtures", "random_instance", "fixtures.build"),
    ("fixtures", "random_valuations", "fixtures.valuations"),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans as ``[name, start, end, parent index, operation id]``, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None  # id of the operation being recorded; None outside operations

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextlib.contextmanager
    def operation(self, op_id, name: str = "bench.op"):
        """Record spans for one operation, under a root span of its own."""
        self._op = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _graphcake_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "graphcake" or name.startswith("graphcake.")]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer function; returns the (owner, attribute, original) list for ``restore``."""
    modules = _graphcake_modules()
    saved = []
    for module_name, attribute, span in LAYER_FUNCTIONS:
        home = importlib.import_module(f"graphcake.{module_name}")
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            descriptor = cls.__dict__[method]  # staticmethod or classmethod
            saved.append((cls, method, descriptor))
            setattr(cls, method, type(descriptor)(tracer.wrap(span, descriptor.__func__)))
            continue
        original = getattr(home, attribute)
        wrapper = tracer.wrap(span, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def snapshot() -> dict:
    """Every function, class and method object of every graphcake module, by identity."""
    out = {}
    for module in _graphcake_modules():
        for name, value in vars(module).items():
            if callable(value):
                out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, obj in vars(value).items():
                    if callable(obj) or isinstance(obj, (staticmethod, classmethod)):
                        out[(module.__name__, f"{name}.{member}")] = obj
    return out


def changed(before: dict, after: dict) -> list[str]:
    """Names whose object differs between two snapshots."""
    keys = before.keys() | after.keys()
    return sorted(".".join(k) for k in keys if before.get(k) is not after.get(k))


@dataclass
class SpanStats:
    calls: int = 0  # spans not nested inside a span of the same name
    total_s: float = 0.0  # their durations, so recursion is not counted twice
    self_s: float = 0.0  # duration minus the time covered by child spans, over all spans


def aggregate(spans: list) -> dict[str, SpanStats]:
    """Per span name: calls, inclusive time and self time.

    Spans come from one call stack, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, SpanStats())
        entry.self_s += (end - start) - covered[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry.calls += 1
            entry.total_s += end - start
    return stats


def layer_self_times(stats: dict[str, SpanStats]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, entry in stats.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + entry.self_s
    return out
