"""Topology of the cake: multigraph, points, pieces, bridge analysis and graph surgeries.

All positions are exact `fractions.Fraction` values; nothing in this module
touches floating point.  Every edge carries an implicit parametrization of
[0, 1] with position 0 at its first endpoint.

Most intervals the library meets are whole edges, and ``is_whole`` is the one
test for them.  A bound that is the shared ``ZERO`` or ``ONE`` passes by
identity; any other is compared with the int 0 or 1, which is exact and takes
``Fraction.__eq__``'s int fast path, where an order comparison of two
``Fraction``s goes through the slower ``numbers.Rational`` check.  Checks that a
whole edge meets trivially (bounds inside [0, 1] and in order) are skipped for
it; every other interval gets them in full.

A ``CakeGraph`` is immutable, so each analysis of the graph alone runs once
per graph object and is kept on it (see its docstring); later calls, such as
the classification, bridge search and bipolar numbering after a labeling,
read what it keeps.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    BadParameters,
    DisconnectedPiece,
    GraphConstructionError,
    MalformedInput,
    MalformedPiece,
    NotAlmostBridgeless,
    ProtocolInvariantError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str

    def other(self, vertex: str) -> str:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex!r} is not an endpoint of edge {self.id!r}")


class CakeGraph:
    """A connected loopless multigraph whose edges are unit intervals of cake.

    Vertices and edges keep their construction order; every deterministic
    tie-break in the library uses that order.

    A graph is immutable: its vertices and edges never change after
    construction.  It keeps what is computed from it alone, each on first
    use: the whole piece (``whole_piece``), the numbers of each edge's two
    ends in ``vertices`` (``_edge_ends``), its blocks (``_blocks``), its
    almost-bridgeless witness (``classify_almost_bridgeless``), its
    contiguous labeling (``compute_contiguous_labeling``) and, in
    ``_kept_trees``, the region trees of the whole graph that protocols walk,
    one per root and child order (``protocols._kept_tree``), without any
    valuation's sums.  What it keeps is read-only and is freed with the graph.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(Edge(*e) for e in edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphConstructionError("duplicate vertex ids")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise GraphConstructionError("duplicate edge ids")
        if not self.edges:
            raise GraphConstructionError("a cake graph needs at least one edge")
        vs = set(self.vertices)
        for e in self.edges:
            if e.u == e.v:
                raise GraphConstructionError(f"loop at vertex {e.u!r} (edge {e.id!r})")
            if e.u not in vs or e.v not in vs:
                raise GraphConstructionError(f"edge {e.id!r} references unknown vertex")
        self._by_id: dict[str, Edge] = {e.id: e for e in self.edges}
        adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = adj
        if len(_distances(self, self.vertices[0])) != len(self.vertices):
            raise GraphConstructionError("graph is not connected")
        self._whole: Optional[Piece] = None
        self._kept_ends: Optional[Mapping[str, tuple[int, int]]] = None
        self._kept_blocks: Optional[tuple[tuple[Edge, ...], ...]] = None
        self._kept_witness: Optional[AlmostBridgelessWitness] = None
        self._kept_labeling: Optional[OrientedLabeling] = None
        # whole-graph region trees by (root, stored edge order), filled by protocols
        self._kept_trees: dict[tuple[str, bool], Any] = {}

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise MalformedPiece(f"unknown edge {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def incident(self, vertex: str) -> tuple[Edge, ...]:
        return tuple(self._adj[vertex])

    def degree(self, vertex: str) -> int:
        return len(self._adj[vertex])

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        seen: list[str] = []
        for e in self._adj[vertex]:
            w = e.other(vertex)
            if w not in seen:
                seen.append(w)
        return tuple(seen)

    def whole_piece(self) -> "Piece":
        """The whole cake as a piece, built on the first call and shared after;
        pieces are immutable, so sharing is safe."""
        if self._whole is None:
            self._whole = Piece.of(Interval(e.id, ZERO, ONE) for e in self.edges)
        return self._whole

    def star_center(self) -> Optional[str]:
        """The center vertex if this graph is a star (a tree whose edges share one vertex)."""
        if self.m != len(self.vertices) - 1:
            return None
        for c in self.vertices:
            if self.degree(c) == self.m and self.m >= 2:
                return c
        return None

    def is_tree(self) -> bool:
        return self.m == len(self.vertices) - 1

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[e.id, e.u, e.v] for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CakeGraph":
        shape = 'a graph needs "vertices" and "edges": [id, u, v] lists'
        try:
            vertices, edges = data["vertices"], data["edges"]
            if not isinstance(vertices, list) or not all(isinstance(e, list) for e in edges):
                raise MalformedInput(shape)
            for x in (*vertices, *(x for e in edges for x in e)):
                if not isinstance(x, str):
                    raise MalformedInput(f"id {x!r} is not a string")
            return cls(vertices, edges)
        except (KeyError, TypeError):
            raise MalformedInput(shape) from None

    def to_dot(self, dashed_edges: Iterable[str] = ()) -> str:
        dashed = set(dashed_edges)
        lines = ["graph cake {"]
        for v in self.vertices:
            lines.append(f"  {_dot_quoted(v)};")
        for e in self.edges:
            style = ', style=dashed' if e.id in dashed else ""
            u, w, label = map(_dot_quoted, (e.u, e.v, e.id))
            lines.append(f"  {u} -- {w} [label={label}{style}];")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CakeGraph({len(self.vertices)} vertices, {self.m} edges)"


def _dot_quoted(name: str) -> str:
    """``name`` as a DOT quoted string.  A quote inside is written ``\\"``, and
    a backslash ``\\\\``, so that none, not even one at the end, escapes the
    closing quote; a name with neither prints as it is, between quotes."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _distances(g: CakeGraph, source: str) -> dict[str, int]:
    """Each vertex reachable from ``source`` to its distance in edges, by
    breadth-first search."""
    dist = {source: 0}
    queue = [source]
    for v in queue:  # the list grows while it is read, as a queue
        for e in g._adj[v]:
            w = e.other(v)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# Points, intervals, pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgePoint:
    edge: str
    pos: Fraction


Point = str | EdgePoint  # a graph vertex by name, or a point inside an edge


def canonical_point(g: CakeGraph, edge_id: str, pos: Fraction) -> Point:
    """Canonical form: positions 0 and 1 collapse to the name of that end vertex."""
    e = g.edge(edge_id)
    if pos == 0:
        return e.u
    if pos == 1:
        return e.v
    if not ZERO < pos < ONE:
        raise MalformedPiece(f"position {pos} outside [0, 1] on edge {edge_id!r}")
    return EdgePoint(edge_id, pos)


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    edge: str
    lo: Fraction
    hi: Fraction


_EDGE_LO_HI = attrgetter("edge", "lo", "hi")


def is_whole(lo: Fraction, hi: Fraction) -> bool:
    """True when [lo, hi] is a whole edge, [0, 1].  Most whole intervals carry the
    shared ``ZERO`` and ``ONE``, which the identity tests catch without a call."""
    return (lo is ZERO or lo == 0) and (hi is ONE or hi == 1)


def _bound(x: object) -> Fraction:
    """A Fraction as it is, or an int that is not a bool as a Fraction;
    anything else raises MalformedPiece."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise MalformedPiece(f"interval bound {x!r} is not a Fraction or an int")


def _edge_of(item: Interval | tuple) -> str:
    """The edge id of an ``Interval`` or of an (edge, lo, hi) tuple."""
    return item.edge if isinstance(item, Interval) else item[0]


class Piece:
    """A finite union of closed subintervals of edges, kept in canonical form.

    Canonical form: per edge, intervals are sorted, interior-disjoint,
    touching intervals merged, and zero-length intervals dropped.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[Interval, ...]):
        self.intervals = intervals

    @staticmethod
    def of(intervals: Iterable[Interval | tuple]) -> "Piece":
        """The canonical piece covering the given intervals.  Every bound is
        checked: a Fraction or an int in [0, 1], else MalformedPiece.  The
        shared ``ZERO`` and ``ONE`` pass by identity, and any other whole edge
        skips the range test.  An ``Interval`` with Fraction bounds is kept
        as the object given; a tuple, or an ``Interval`` with an int bound, is
        stored with Fraction bounds, a whole edge's the shared ``ZERO`` and
        ``ONE``.  Intervals already in canonical order are kept as they are,
        and only others are sorted and merged."""
        ivs: list[Interval] = []
        canonical = True
        prev: Optional[Interval] = None
        for item in intervals:
            if isinstance(item, Interval):
                iv, lo, hi = item, item.lo, item.hi
            else:
                iv, lo, hi = None, item[1], item[2]
            if lo is not ZERO or hi is not ONE:
                if type(lo) is not Fraction or type(hi) is not Fraction:
                    lo, hi, iv = _bound(lo), _bound(hi), None
                if is_whole(lo, hi):
                    if iv is None:
                        lo, hi = ZERO, ONE
                else:
                    if not (ZERO <= lo <= hi <= ONE):
                        raise MalformedPiece(f"interval [{lo}, {hi}] outside [0, 1] on edge {_edge_of(item)!r}")
                    if canonical and lo == hi:
                        canonical = False
            if iv is None:
                iv = Interval(_edge_of(item), lo, hi)
            if canonical and not (
                prev is None or prev.edge < iv.edge or (prev.edge == iv.edge and prev.hi < iv.lo)
            ):
                canonical = False
            ivs.append(iv)
            prev = iv
        return Piece(tuple(ivs)) if canonical else Piece._sorted_and_merged(ivs)

    @staticmethod
    def _sorted_and_merged(ivs: list[Interval]) -> "Piece":
        """One sort by (edge, lo, hi) and one merge pass.  An interval that
        overlaps or touches the one before it on its edge extends it; every
        other interval is kept as it is, unless it has zero length."""
        out: list[Interval] = []
        for iv in sorted(ivs, key=_EDGE_LO_HI):
            if out and (last := out[-1]).edge == iv.edge and iv.lo <= last.hi:
                if iv.hi > last.hi:
                    out[-1] = Interval(iv.edge, last.lo, iv.hi)
            elif iv.lo != iv.hi:
                out.append(iv)
        return Piece(tuple(out))

    @staticmethod
    def empty() -> "Piece":
        return Piece(())

    def is_empty(self) -> bool:
        return not self.intervals

    def to_json(self) -> list:
        return [[iv.edge, format_fraction(iv.lo), format_fraction(iv.hi)] for iv in self.intervals]

    @staticmethod
    def from_json(data: Iterable) -> "Piece":
        shape = "a piece must be a list of [edge, lo, hi] triples"
        try:
            if not all(isinstance(triple, list) for triple in data):
                raise MalformedPiece(shape)
            triples = [(e, parse_fraction(lo), parse_fraction(hi)) for e, lo, hi in data]
        except (TypeError, ValueError):
            raise MalformedPiece(shape) from None
        for e, _, _ in triples:
            if not isinstance(e, str):
                raise MalformedPiece(f"edge id {e!r} is not a string")
        return Piece.of(triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Piece) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{iv.edge}[{iv.lo},{iv.hi}]" for iv in self.intervals)
        return f"Piece({parts})"


def _format_ratio(n: int, d: int) -> str:
    """The text of the reduced number n / d, with d > 0: ``"p"`` or ``"p/q"``."""
    return str(n) if d == 1 else f"{n}/{d}"


def format_fraction(x: Fraction) -> str:
    return _format_ratio(x.numerator, x.denominator)


def _shown(x: object, text: Callable[[object], str] = str) -> str:
    """``text(x)`` for an error message; for a number too long to print (an
    int past the interpreter's digit limit for ``str``, or a ratio of one), a
    short stand-in that gives its type and size in bits."""
    try:
        return text(x)
    except ValueError:
        bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        return f"<{type(x).__name__} of {bits} bits>"


def _read_ratio(text: str | int) -> tuple[int, int]:
    """An int, ``"p"`` or ``"p/q"`` as a reduced pair (numerator, positive
    denominator).  Each part is read by ``int``, so signs and surrounding
    spaces are accepted, and a negative denominator moves its sign to the
    numerator.  Anything else, a bool, a float or a zero denominator
    included, raises MalformedInput."""
    try:
        if not isinstance(text, str):
            if isinstance(text, int) and not isinstance(text, bool):
                return text, 1
            raise ValueError(f"{text!r} is not an int or a string")
        num, slash, den = text.strip().partition("/")
        p = int(num)
        if not slash:
            return p, 1
        q = int(den)
    except (AttributeError, ValueError):
        raise MalformedInput(f"{text!r} is not a rational number p/q") from None
    if not q:
        raise MalformedInput(f"{text!r} is not a rational number p/q")
    if q < 0:
        p, q = -p, -q
    common = math.gcd(p, q)
    return p // common, q // common


def parse_fraction(text: str | int) -> Fraction:
    """Parse an int, ``"p"`` or ``"p/q"``; anything else, a bool included,
    raises MalformedInput."""
    return Fraction(*_read_ratio(text))


def exact_int(value: object) -> int:
    """``value`` as an int: an int, a string of digits, or an integral number
    such as ``Fraction(4, 2)`` or ``Decimal("4.0")``, read by
    ``exact_fraction``.  A float (2.0 too, as ``exact_fraction`` refuses every
    float), a bool, a ``Decimal`` in exponent notation (``Decimal("1E+2")``)
    or a number with a fractional part raises ValueError, where ``int`` would
    read True as 1 and truncate 2.5."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(value, (int, str)):
        return int(value)
    number = exact_fraction(value)
    if number.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return number.numerator


def exact_fraction(value: object) -> Fraction:
    """``value`` as a Fraction: an int, a Fraction, or a string such as
    ``"1/4"`` or ``"0.25"``.  A float or a bool raises ValueError, where
    ``Fraction`` would read 0.2 as its binary approximation and True as 1.  So
    does a string in exponent notation: ``Fraction("1e-10000000")`` spends
    seconds building a 33-million-bit denominator.  A ``Decimal`` is read as
    its ``str()``, so one that prints in exponent notation (``1E-7``), a NaN
    or an infinity is refused as that string is."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"{value!r} is not exact")
    if isinstance(value, Decimal):
        value = str(value)
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"{value!r} is in exponent notation")
    return Fraction(value)


@dataclass(frozen=True)
class Param:
    """A ``key=value`` parameter: how to read its value, and whether it must be given."""

    convert: Callable[[object], object]
    required: bool = True


def read_params(who: str, schema: Mapping[str, Param], params: Optional[Mapping]) -> dict:
    """``params`` checked against ``schema`` and converted.  A key outside the
    schema, a required key left out, or a value its ``convert`` rejects raises
    BadParameters naming ``who``; keys not given are left out of the result."""
    params = params or {}
    unknown = [str(key) for key in params if key not in schema]
    if unknown:
        raise BadParameters(f"{who} got unknown parameters: {', '.join(unknown)}")
    missing = [key for key, param in schema.items() if param.required and key not in params]
    if missing:
        raise BadParameters(f"{who} needs parameters: {', '.join(missing)}")
    args = {}
    for key, value in params.items():
        try:
            args[key] = schema[key].convert(value)
        except (TypeError, ValueError, ArithmeticError):
            raise BadParameters(f"{who} parameter {key}={_shown(value, repr)} is not a valid value") from None
    return args


# ---------------------------------------------------------------------------
# Piece connectivity
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Join the two sets; False when they were already one.  Both finds are
        written out, as the two calls would cost more than the walks."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        parent[b] = a
        return True


def _edge_ends(g: CakeGraph) -> Mapping[str, tuple[int, int]]:
    """Each edge id to the numbers of its two ends, ``u`` then ``v``, in
    ``g.vertices``; built on the first call and kept on the graph, read-only."""
    if g._kept_ends is None:
        index = {v: i for i, v in enumerate(g.vertices)}
        g._kept_ends = MappingProxyType({e.id: (index[e.u], index[e.v]) for e in g.edges})
    return g._kept_ends


def piece_component_count(g: CakeGraph, p: Piece) -> int:
    """Number of connected components of a canonical piece (0 for the empty
    piece).  Intervals meet only at graph vertices, so the count is the
    intervals that reach no vertex, plus the classes of the vertices reached,
    where a whole edge joins its two ends in a union-find over vertex numbers."""
    ends = _edge_ends(g)
    union = _UnionFind(len(g.vertices)).union
    reached: set[int] = set()
    loose = joins = 0
    for iv in p.intervals:
        try:
            a, b = ends[iv.edge]
        except KeyError:
            raise MalformedPiece(f"piece references unknown edge {iv.edge!r}") from None
        lo, hi = iv.lo, iv.hi
        if lo is ZERO or lo == 0:
            reached.add(a)
            if hi is ONE or hi == 1:
                reached.add(b)
                joins += union(a, b)
        elif hi is ONE or hi == 1:
            reached.add(b)
        else:
            loose += 1
    return loose + len(reached) - joins


def piece_is_connected(g: CakeGraph, p: Piece) -> bool:
    """True iff any two points of the piece are joined by a path inside it.

    After canonicalization, intervals can only meet at graph vertices, so
    connectivity reduces to the interval/vertex incidence structure.  The
    empty piece counts as connected.
    """
    return piece_component_count(g, p) <= 1


# ---------------------------------------------------------------------------
# Bridges and the almost-bridgeless classification
# ---------------------------------------------------------------------------


def _blocks(g: CakeGraph) -> list[tuple[Edge, ...]]:
    """The edges of each block: a maximal 2-connected subgraph, or a bridge on
    its own.  One iterative lowpoint DFS with an edge stack (Hopcroft and
    Tarjan 1973); a parallel copy of the edge a vertex was entered by is a
    back edge, so parallel edges share a block."""
    index = {v: i for i, v in enumerate(g.vertices)}
    disc = [0] * len(g.vertices)  # discovery times from 1; 0 is unvisited
    low = [0] * len(g.vertices)
    blocks: list[tuple[Edge, ...]] = []
    pending: list[Edge] = []  # edges of the blocks not closed yet, in visit order
    disc[0] = low[0] = counter = 1
    # entries are (vertex, incoming edge id, iterator over incident edges, the
    # length of ``pending`` before the incoming edge)
    stack: list[tuple[int, Optional[str], Iterator[Edge], int]] = [(0, None, iter(g._adj[g.vertices[0]]), 0)]
    while stack:
        v_i, in_edge, it, mark = stack[-1]
        for e in it:
            if e.id == in_edge:
                # the tree edge we entered through; a parallel copy has a different id
                continue
            w_i = index[e.other(g.vertices[v_i])]
            if not disc[w_i]:
                counter += 1
                disc[w_i] = low[w_i] = counter
                stack.append((w_i, e.id, iter(g._adj[g.vertices[w_i]]), len(pending)))
                pending.append(e)
                break
            if disc[w_i] < disc[v_i]:
                # a back edge up the tree; seen from its lower end it is already pending
                pending.append(e)
                low[v_i] = min(low[v_i], disc[w_i])
        else:
            stack.pop()
            if stack:
                p_i = stack[-1][0]
                low[p_i] = min(low[p_i], low[v_i])
                if low[v_i] >= disc[p_i]:
                    blocks.append(tuple(pending[mark:]))
                    del pending[mark:]
    return blocks


def _graph_blocks(g: CakeGraph) -> tuple[tuple[Edge, ...], ...]:
    """The graph's blocks, found by ``_blocks`` on the first call and kept on the graph."""
    if g._kept_blocks is None:
        g._kept_blocks = tuple(_blocks(g))
    return g._kept_blocks


def find_bridges(g: CakeGraph) -> set[str]:
    """Edge ids of all bridges (edges on no cycle): the edges of the one-edge
    blocks, as a new set on every call.  Parallel edges are never bridges."""
    return {block[0].id for block in _graph_blocks(g) if len(block) == 1}


@dataclass(frozen=True)
class AlmostBridgelessWitness:
    """Either an edge (x, y) whose addition kills all bridges, or three bridges
    that no single path can cover."""

    is_almost_bridgeless: bool
    endpoints: Optional[tuple[str, str]] = None
    obstruction: Optional[tuple[str, str, str]] = None


def classify_almost_bridgeless(g: CakeGraph) -> AlmostBridgelessWitness:
    """Decide whether one added edge can make the graph bridgeless.

    Contract the 2-edge-connected components into the bridge tree: the sets
    of a union-find over the non-bridge edges, each named by its first
    vertex.  The graph is almost bridgeless iff that tree is a path; the
    witness endpoints, where ``compute_contiguous_labeling`` starts its ear
    walk, name its two extreme components.  Otherwise the first component of
    bridge-degree >= 3 supplies three bridges no path can cover.  The witness
    is found on the first call and kept on the graph.
    """
    if g._kept_witness is None:
        g._kept_witness = _classify(g)
    return g._kept_witness


def _classify(g: CakeGraph) -> AlmostBridgelessWitness:
    bridges = find_bridges(g)
    if not bridges:
        e = g.edges[0]
        return AlmostBridgelessWitness(True, endpoints=(e.u, e.v))
    index = {v: i for i, v in enumerate(g.vertices)}
    uf = _UnionFind(len(g.vertices))
    for e in g.edges:
        if e.id not in bridges:
            uf.union(index[e.u], index[e.v])
    first: dict[int, str] = {}
    comp = {v: first.setdefault(uf.find(i), v) for i, v in enumerate(g.vertices)}
    incident_bridges: dict[str, list[str]] = defaultdict(list)
    for e in g.edges:
        if e.id in bridges:
            incident_bridges[comp[e.u]].append(e.id)
            incident_bridges[comp[e.v]].append(e.id)
    for c in sorted(incident_bridges, key=index.get):
        if len(incident_bridges[c]) >= 3:
            return AlmostBridgelessWitness(False, obstruction=tuple(incident_bridges[c][:3]))
    # all bridge-tree degrees <= 2, so the bridge tree is a path
    ends = sorted((c for c, bs in incident_bridges.items() if len(bs) == 1), key=index.get)
    return AlmostBridgelessWitness(True, endpoints=(ends[0], ends[1]))


# ---------------------------------------------------------------------------
# Oriented labelings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientedLabeling:
    """Edges in label order 1..m; ``tails[e]`` is the vertex the knife enters from."""

    order: tuple[str, ...]
    tails: Mapping[str, str]

    def head(self, g: CakeGraph, edge_id: str) -> str:
        return g.edge(edge_id).other(self.tails[edge_id])

    def to_json(self, g: CakeGraph) -> list:
        return [[e, self.tails[e], self.head(g, e)] for e in self.order]


def is_contiguous(g: CakeGraph, lab: OrientedLabeling) -> bool:
    """Check both halves of the contiguity predicate for every label, in O(m).

    The labeling must order every edge exactly once and give each edge a tail
    among its endpoints.  Contiguity asks that the edges before each label
    form a connected block touching that edge's tail, and that the edges after
    it form a connected block touching its head.  It suffices to check the
    anchors: every edge after the first has its tail among the vertices of the
    edges before it, and every edge before the last has its head among the
    vertices of the edges after it.  Connectivity then follows by induction,
    since the first edge is connected and each later edge hangs on what is
    already there (and the same from the end for suffixes).
    """
    if len(lab.order) != g.m or set(lab.order) != {e.id for e in g.edges}:
        return False
    ends: list[tuple[str, str]] = []
    for e_id in lab.order:
        e = g.edge(e_id)
        tail = lab.tails.get(e_id)
        if tail not in (e.u, e.v):
            return False
        ends.append((tail, e.other(tail)))

    def anchored(steps: Iterable[tuple[str, str]]) -> bool:
        """Every step after the first has its anchor among earlier steps' vertices."""
        touched: set[str] = set()
        for anchor, far in steps:
            if touched and anchor not in touched:
                return False
            touched.add(anchor)
            touched.add(far)
        return True

    return anchored(ends) and anchored((head, tail) for tail, head in reversed(ends))


def _search_path(
    g: CakeGraph,
    start: str,
    stop_at: set[str],
    banned_edge: Optional[str] = None,
    interior: Optional[set[str]] = None,
    banned_vertex: Optional[str] = None,
) -> list[tuple[str, str, str]]:
    """BFS path from ``start`` to any vertex in ``stop_at``, as (edge id, tail,
    head) steps directed away from ``start``; intermediate vertices are
    restricted to ``interior`` when given, and ``banned_vertex`` is never
    entered.  Neighbor expansion follows edge order, so the result is
    deterministic.  Callers search only graphs whose class promises a path,
    so finding none is an invariant breach."""
    parent: dict[str, tuple[str, str]] = {}
    queue = deque([start])
    seen = {start, banned_vertex}
    while queue:
        a = queue.popleft()
        for e in g._adj[a]:
            if e.id == banned_edge:
                continue
            b = e.other(a)
            if b in seen:
                continue
            parent[b] = (e.id, a)
            if b in stop_at:
                path: list[tuple[str, str, str]] = []
                cur = b
                while cur != start:
                    e_id, prev = parent[cur]
                    path.append((e_id, prev, cur))
                    cur = prev
                return path[::-1]
            if interior is None or b in interior:
                seen.add(b)
                queue.append(b)
    raise ProtocolInvariantError(f"internal search failed: no path from {start!r} reaches the stop set")


def _ears(g: CakeGraph, s: str, t: str, closed: bool) -> Iterator[list[tuple[str, str, str]]]:
    """The ear walk behind the contiguous labeling and the bipolar numbering.

    Yields ears as (edge id, tail, head) steps: first the BFS path from ``s``
    to ``t``; after each ear, the chords it created, in edge order and each
    from its first endpoint; then one ear along the lowest-index edge with
    exactly one used end x, through unused vertices back to a used vertex.
    That vertex may be x itself only when ``closed``, as 2-edge-connectivity
    allows and 2-connectivity does not.  Edges that gain a used end go on a
    heap of edge indices, so no ear rescans the graph.
    """
    index = {e.id: i for i, e in enumerate(g.edges)}
    done: set[str] = set()  # ids of the edges yielded
    used: set[str] = set()
    unused = set(g.vertices)
    reached: list[int] = []  # heap: indices of edges with one used end, and of done edges
    ear = _search_path(g, s, {t})
    while True:
        yield ear
        fresh = {v for _, tail, head in ear for v in (tail, head) if v in unused}
        done.update(e_id for e_id, _, _ in ear)
        used |= fresh
        unused -= fresh
        chords: set[int] = set()
        for v in fresh:
            for e in g._adj[v]:
                if e.id not in done:
                    if e.other(v) in used:
                        chords.add(index[e.id])
                    else:
                        heapq.heappush(reached, index[e.id])
        for i in sorted(chords):
            e = g.edges[i]
            done.add(e.id)
            yield [(e.id, e.u, e.v)]
        while reached and g.edges[reached[0]].id in done:
            heapq.heappop(reached)
        if not reached:
            return
        f = g.edges[reached[0]]
        x, y = (f.u, f.v) if f.u in used else (f.v, f.u)
        ear = [(f.id, x, y), *_search_path(g, y, used, f.id, unused, banned_vertex=None if closed else x)]


def compute_contiguous_labeling(g: CakeGraph) -> OrientedLabeling:
    """Construct a contiguous oriented labeling by ear insertion.

    Requires the graph to be almost bridgeless.  It takes the ear walk
    (``_ears``) from witness endpoint u to v with closed ears, which
    2-edge-connectivity allows.  Each ear is oriented from the end entered
    first (u before all) and inserted right after that end's first incoming
    edge, or at the front from u; its last edge then becomes the first edge
    into its other end, unless it closes where it started.

    The labeling is built on the first call and kept on the graph once it
    passes ``is_contiguous``; its ``tails`` is a read-only mapping.
    """
    if g._kept_labeling is None:
        g._kept_labeling = _ear_labeling(g)
    return g._kept_labeling


def _ear_labeling(g: CakeGraph) -> OrientedLabeling:
    witness = classify_almost_bridgeless(g)
    if not witness.is_almost_bridgeless:
        raise NotAlmostBridgeless(
            f"no contiguous labeling exists; obstruction bridges {witness.obstruction}"
        )
    u, v = witness.endpoints  # type: ignore[misc]
    order: list[str] = []  # edge ids in label order
    tails: dict[str, str] = {}
    first_in: dict[str, str] = {}  # each entered vertex's first incoming edge in ``order``
    for ear in _ears(g, u, v, closed=True):
        x, z = ear[0][1], ear[-1][2]
        if x != u and (z == u or order.index(first_in[z]) < order.index(first_in[x])):
            ear = [(e, head, tail) for e, tail, head in reversed(ear)]
            x, z = z, x
        at = 0 if x == u else order.index(first_in[x]) + 1
        order[at:at] = [e for e, _, _ in ear]
        for e, tail, head in ear:
            tails[e] = tail
            if head != x:
                first_in[head] = e
    lab = OrientedLabeling(tuple(order), MappingProxyType(tails))
    if not is_contiguous(g, lab):
        raise ProtocolInvariantError("ear construction produced a non-contiguous labeling")
    return lab


# ---------------------------------------------------------------------------
# Bipolar numberings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipolarNumbering:
    labels: Mapping[str, int]


def find_bipolar_numbering(g: CakeGraph) -> Optional[BipolarNumbering]:
    """A numbering of the vertices 1..k in which every vertex but the ends (1
    and k) has a smaller- and a larger-numbered neighbor, or None when there
    is none.

    A numbering with ends s and t exists exactly when adding the edge st makes
    the graph 2-connected (Lempel, Even and Cederbaum 1967): the blocks form a
    path, and s and t are non-cut vertices of its two end blocks (of a single
    block, its first two vertices).  The numbering starts as s, t, takes the
    labeling's ear walk (``_ears``) with open ears, which 2-connectivity
    needs, and places each ear's interior (a chord has none) between its ends.
    """
    blocks = [{v for e in block for v in (e.u, e.v)} for block in _graph_blocks(g)]
    count = Counter(v for block in blocks for v in block)
    cut = {v for v, c in count.items() if c > 1}
    if any(c > 2 for c in count.values()) or any(len(b & cut) > 2 for b in blocks):
        return None
    if len(blocks) == 1:
        s, t = g.vertices[:2]
    else:
        ends = [b - cut for b in blocks if len(b & cut) == 1]
        s, t = (next(v for v in g.vertices if v in end) for end in ends)
    order = [s, t]
    for ear in _ears(g, s, t, closed=False):
        interior = [head for _, _, head in ear[:-1]]
        if interior:
            at, other = order.index(ear[0][1]), order.index(ear[-1][2])
            if other < at:
                at = other
                interior.reverse()
            order[at + 1 : at + 1] = interior
    return BipolarNumbering({v: i + 1 for i, v in enumerate(order)})


# ---------------------------------------------------------------------------
# Graph surgeries
# ---------------------------------------------------------------------------


def _cycle_breaks(ends: Sequence[tuple[int, int]], n: int) -> list[bool]:
    """Which links to cut loose so that the others form a forest.

    Each link joins two of ``n`` nodes, numbered from 0; the caller numbers
    them, and the links cut loose do not depend on how.  Scans from the last
    link back and cuts a link loose when the links after it already join its
    ends.  On a connected multigraph this cuts the same edges as detaching the
    first cycle edge, recomputing the bridges and repeating, in O(m·α(m))
    rather than O(cycles·m).
    """
    union = _UnionFind(n).union
    loose = [False] * len(ends)
    for i in range(len(ends) - 1, -1, -1):
        loose[i] = not union(*ends[i])
    return loose


def split_cycles_to_tree(g: CakeGraph) -> tuple[CakeGraph, dict[str, str]]:
    """Detach the second endpoint of every cycle edge ``_cycle_breaks`` picks.

    Each detached end becomes a fresh leaf ``<vertex>~<k>``.  Edge ids and
    parametrizations are preserved, so pieces translate verbatim between the
    tree and the original graph.  The returned map sends every vertex of the
    tree to the original vertex it stands for.
    """
    vertices = list(g.vertices)
    origin = {v: v for v in vertices}
    index = {v: i for i, v in enumerate(vertices)}
    breaks = _cycle_breaks([(index[e.u], index[e.v]) for e in g.edges], len(vertices))
    edges: list[tuple[str, str, str]] = []
    counter = 0
    for e, loose in zip(g.edges, breaks):
        end = e.v
        if loose:
            while f"{e.v}~{counter}" in origin:
                counter += 1
            end = f"{e.v}~{counter}"
            counter += 1
            vertices.append(end)
            origin[end] = e.v
        edges.append((e.id, e.u, end))
    return CakeGraph(vertices, edges), origin


class SubcakeMap:
    """Affine coordinate map between an induced subcake and its parent graph.

    Each edge of the subcake corresponds to one interval of the parent piece;
    the map preserves measure (lengths scale by the interval length).
    """

    def __init__(self, spans: Mapping[str, Interval]):
        self.spans = dict(spans)

    def to_parent_interval(self, sub: Interval) -> Interval:
        span = self.spans[sub.edge]
        width = span.hi - span.lo
        return Interval(span.edge, span.lo + sub.lo * width, span.lo + sub.hi * width)

    def piece_to_parent(self, p: Piece) -> Piece:
        return Piece.of(self.to_parent_interval(iv) for iv in p.intervals)

    def point_to_parent(self, edge_id: str, pos: Fraction) -> tuple[str, Fraction]:
        span = self.spans[edge_id]
        return span.edge, span.lo + pos * (span.hi - span.lo)


def induced_cake(g: CakeGraph, p: Piece) -> tuple[CakeGraph, SubcakeMap]:
    """Stand-alone cake graph whose edges are the intervals of a connected piece.

    Interval endpoints at original vertices keep their identity; interior
    endpoints become fresh vertices, so connectivity and measure carry over
    through the returned map.
    """
    if p.is_empty():
        raise DisconnectedPiece("cannot induce a cake from the empty piece")
    if not piece_is_connected(g, p):
        raise DisconnectedPiece("piece is not connected")
    vertices: list[str] = []
    seen: set[str] = set()
    taken = set(g.vertices)

    def vertex_for(edge: Edge, pos: Fraction) -> str:
        if pos == ZERO:
            name = edge.u
        elif pos == ONE:
            name = edge.v
        else:
            name = f"{edge.id}@{pos.numerator}/{pos.denominator}"
            while name in taken:
                name += "'"
        if name not in seen:
            seen.add(name)
            vertices.append(name)
        return name

    new_edges: list[tuple[str, str, str]] = []
    spans: dict[str, Interval] = {}
    counters: dict[str, int] = defaultdict(int)
    for iv in p.intervals:
        e = g.edge(iv.edge)
        k = counters[iv.edge]
        counters[iv.edge] += 1
        new_id = iv.edge if is_whole(iv.lo, iv.hi) else f"{iv.edge}.{k}"
        a = vertex_for(e, iv.lo)
        b = vertex_for(e, iv.hi)
        new_edges.append((new_id, a, b))
        spans[new_id] = iv
    return CakeGraph(vertices, new_edges), SubcakeMap(spans)
