"""Agent preferences: exact piecewise-constant densities, evaluation and cut queries.

Valuations double as cost functions in chore mode.  Protocols interact with
them only through evaluation and cut queries, which keeps the interface
measure-agnostic; the piecewise-constant representation is closed under every
cut the protocols perform.  A valuation document is read in integers: each
distinct number text is read once per document, into a reduced integer pair
and one shared ``Fraction``, and segment order and density signs are checked
by cross-multiplying those pairs.  Each valuation sums every edge's value once,
when it is built, as the sum of (hi - lo) * density over its segments' integer
ratios, and keeps the totals once, as integers over one scale, the least
common multiple of their denominators; a query for a whole edge reads a stored
total, and sums of whole edges are exact integer sums.  Every interval a query
asks about is walked by ``_clip``, which yields its constant-density stretches
as integer lengths; evaluation and cut queries sum and compare those in
integers and build a ``Fraction`` only for the value or point they return.
One walk, ``_walk``, finds where every knife stops: ``cut_trajectory`` runs it
forward, and ``latest_position_within`` runs it backward from a leg's end, to
where the value beyond the budget is covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DomainError,
    InsufficientValue,
    MalformedInput,
    MalformedPiece,
    UnknownEdge,
    ZeroValuePiece,
)
from .graph_core import (
    ONE,
    ZERO,
    CakeGraph,
    Interval,
    Piece,
    Point,
    SubcakeMap,
    _read_ratio,
    canonical_point,
    format_fraction,
    is_whole,
)


@dataclass(frozen=True, slots=True)
class Segment:
    """Constant density over [lo, hi)."""

    lo: Fraction
    hi: Fraction
    density: Fraction


EdgeDensity = tuple[Segment, ...]


# A number as read: its reduced numerator, its positive denominator, and the
# same value as a Fraction.
_Number = tuple[int, int, Fraction]

_ONE_READ: _Number = (1, 1, ONE)


def _read_number(x: object) -> _Number:
    """A Fraction, an int, ``"p"`` or ``"p/q"`` as a read number; anything
    else, a bool or a float included, raises MalformedInput."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator, x
    p, q = _read_ratio(x)
    return p, q, Fraction(p, q)


def _normalize_segments(segments: Sequence[tuple[_Number, _Number, _Number]]) -> EdgeDensity:
    """Segments from (start, end, density) triples of read numbers, checked by
    cross-multiplying: they must partition [0, 1] in strictly increasing
    order, with nonnegative densities."""
    # Read numbers are reduced, so two are equal exactly when their tuples are.
    if not segments or segments[0][0][0] or segments[-1][1] != _ONE_READ:
        raise MalformedInput("segments must partition [0, 1]")
    for prev, cur in zip(segments, segments[1:]):
        if prev[1] != cur[0]:
            raise MalformedInput("segments must be contiguous")
    for (an, ad, _), (bn, bd, _), (p, _, _) in segments:
        if an * bd >= bn * ad:
            raise MalformedInput("segment breakpoints must be strictly increasing")
        if p < 0:
            raise MalformedInput("densities must be nonnegative")
    return tuple(Segment(a[2], b[2], d[2]) for a, b, d in segments)


def _clip(v: Valuation, edge: str, lo: Fraction, hi: Fraction) -> list[tuple[int, int, Fraction]]:
    """The constant-density stretches of [lo, hi] on an edge, in ascending order,
    as (length numerator, length denominator, density).

    Bounds are compared by cross-multiplying their numerators and denominators,
    so no Fraction is compared or built.  Segments are stored in ascending
    order, so the walk stops at the first one that starts at or past ``hi``.
    """
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    out = []
    for s in v.edge_segments(edge):
        an, ad = s.lo.as_integer_ratio()
        if an * hd >= hn * ad:
            break
        bn, bd = s.hi.as_integer_ratio()
        if an * ld < ln * ad:
            an, ad = ln, ld
        if hn * bd < bn * hd:
            bn, bd = hn, hd
        if an * bd < bn * ad:
            out.append((bn * ad - an * bd, ad * bd, s.density))
    return out


def _edge_total(segs: EdgeDensity) -> tuple[int, int]:
    """An edge's value, the sum of (hi - lo) * density over its segments, as
    an unreduced numerator and denominator."""
    num, den = 0, 1
    for s in segs:
        p, q = s.density.as_integer_ratio()
        if p:
            an, ad = s.lo.as_integer_ratio()
            bn, bd = s.hi.as_integer_ratio()
            d = ad * bd * q
            num, den = num * d + (bn * ad - an * bd) * p * den, den * d
    return num, den


def _integrate(stretches: Iterable[tuple[int, int, Fraction]]) -> tuple[int, int]:
    """The value of ``_clip``'s stretches, as an unreduced numerator and denominator."""
    num, den = 0, 1
    for n, d, density in stretches:
        p, q = density.as_integer_ratio()
        if p:
            num, den = num * d * q + n * p * den, den * d * q
    return num, den


class Valuation:
    """Map from edge id to a piecewise-constant rational density.

    Edges absent from the map carry zero density.  A normalized valuation
    integrates to exactly 1 over the whole cake.  Valuations are immutable:
    ``densities`` is a read-only view of a private copy, so the edge totals
    summed at construction never go stale.  The totals are kept once, as
    integers over one scale: ``int_totals[e] / scale`` is edge ``e``'s total,
    with ``scale`` the least common multiple of the totals' denominators.
    """

    __slots__ = ("densities", "scale", "int_totals")

    def __init__(self, densities: Mapping[str, EdgeDensity]):
        self.densities: Mapping[str, EdgeDensity] = MappingProxyType(dict(densities))
        sums = {e: _edge_total(segs) for e, segs in self.densities.items()}
        den = math.lcm(*(d for _, d in sums.values()))
        self._keep_totals({e: n * (den // d) for e, (n, d) in sums.items()}, den)

    def _keep_totals(self, totals: dict[str, int], den: int) -> None:
        """Keep edge totals given as integers over ``den``, at the least scale."""
        common = math.gcd(den, *totals.values())
        self.scale = den // common
        self.int_totals = MappingProxyType({e: x // common for e, x in totals.items()})

    @staticmethod
    def from_segments(per_edge: Mapping[str, Sequence[tuple]]) -> "Valuation":
        """Segments given as (start, end, density) triples of Fractions, ints,
        or ``"p"`` / ``"p/q"`` strings."""
        exact = {e: [tuple(map(_read_number, seg)) for seg in segs] for e, segs in per_edge.items()}
        return Valuation({e: _normalize_segments(segs) for e, segs in exact.items()})

    @staticmethod
    def from_edge_values(values: Mapping[str, Fraction | int | str]) -> "Valuation":
        """Uniform density within each edge, integrating to the given edge values:
        Fractions, ints, or ``"p"`` / ``"p/q"`` strings.  Edges valued zero are
        left out; a negative value raises MalformedInput."""
        read = [(e, _read_number(x)) for e, x in values.items()]
        if any(p < 0 for _, (p, _, _) in read):
            raise MalformedInput("densities must be nonnegative")
        return Valuation({e: (Segment(ZERO, ONE, x),) for e, (p, _, x) in read if p})

    @staticmethod
    def uniform(g: CakeGraph) -> "Valuation":
        share = Fraction(1, g.m)
        return Valuation.from_edge_values({e.id: share for e in g.edges})

    def edge_segments(self, edge_id: str) -> EdgeDensity:
        return self.densities.get(edge_id, (Segment(ZERO, ONE, ZERO),))

    def edge_value(self, edge_id: str) -> Fraction:
        return Fraction(self.int_totals.get(edge_id, 0), self.scale)

    def total(self) -> Fraction:
        return Fraction(sum(self.int_totals.values()), self.scale)

    def is_normalized(self) -> bool:
        return sum(self.int_totals.values()) == self.scale

    def interval_value(self, edge_id: str, lo: Fraction, hi: Fraction) -> Fraction:
        if is_whole(lo, hi):
            return self.edge_value(edge_id)
        return Fraction(*_integrate(_clip(self, edge_id, lo, hi)))

    def scaled(self, factor: Fraction) -> "Valuation":
        # Scaling every density scales each edge total exactly by the same
        # factor, so the totals are carried over; equal densities share a product.
        distinct = {s.density for segs in self.densities.values() for s in segs}
        products = {d: d * factor for d in distinct}
        out = Valuation.__new__(Valuation)
        out.densities = MappingProxyType(
            {
                e: tuple(Segment(s.lo, s.hi, products[s.density]) for s in segs)
                for e, segs in self.densities.items()
            }
        )
        p, q = factor.as_integer_ratio()
        out._keep_totals({e: x * p for e, x in self.int_totals.items()}, self.scale * q)
        return out

    def to_json(self) -> dict:
        out = {}
        for e, segs in sorted(self.densities.items()):
            out[e] = [[format_fraction(s.lo), format_fraction(s.density)] for s in segs]
        return out

    @staticmethod
    def from_json(data: Mapping) -> "Valuation":
        shape = "a valuation maps edge ids to [start, density] pairs"
        try:
            if not all(isinstance(pair, list) for pairs in data.values() for pair in pairs):
                raise MalformedInput(shape)
            per_edge = [(e, [(lo, d) for lo, d in pairs]) for e, pairs in data.items()]
        except (AttributeError, TypeError, ValueError):
            raise MalformedInput(shape) from None
        # Documents repeat numbers, so each distinct text is read once per call.
        # Only strings are looked up: True == 1 == 1.0, so a bool or a float
        # must not find the entry of an int.
        read: dict[object, _Number] = {}

        def number(text: object) -> _Number:
            got = read.get(text) if type(text) is str else None
            if got is None:
                p, q = _read_ratio(text)
                got = read[text] = (p, q, Fraction(p, q))
            return got

        densities = {}
        for e, pairs in per_edge:
            los = [number(lo) for lo, _ in pairs]
            ds = [number(d) for _, d in pairs]
            if not los or los[0][0]:
                raise MalformedInput(f"edge {e!r}: segment list must start at 0")
            densities[e] = _normalize_segments(list(zip(los, los[1:] + [_ONE_READ], ds)))
        return Valuation(densities)


class _MergedDensities(Mapping[str, EdgeDensity]):
    """Read-only densities of a weighted sum of valuations.  Each edge's segments
    are merged the first time it is read and kept for later reads."""

    def __init__(self, vals: Sequence[Valuation], weights: Sequence[Fraction], edges: Sequence[str]):
        self._vals = tuple(vals)
        self._weights = tuple(weights)
        self._merged: dict[str, Optional[EdgeDensity]] = dict.fromkeys(edges)

    def __getitem__(self, edge: str) -> EdgeDensity:
        segs = self._merged[edge]
        if segs is None:
            segs = self._merged[edge] = self._merge(edge)
        return segs

    def __iter__(self):
        return iter(self._merged)

    def __len__(self) -> int:
        return len(self._merged)

    def __contains__(self, edge: object) -> bool:
        return edge in self._merged

    def _merge(self, edge: str) -> EdgeDensity:
        per_val = [v.edge_segments(edge) for v in self._vals]
        cuts = sorted({ZERO, ONE, *(x for segs in per_val for s in segs for x in (s.lo, s.hi))})
        # Every density is constant between consecutive cuts, so one merge pass
        # reads each valuation's density there; a cursor skips segments that end
        # at or before the cut, and a gap between segments counts as zero.
        cursors = [0] * len(per_val)
        segs = []
        for lo, hi in zip(cuts, cuts[1:]):
            density = ZERO
            for j, (vsegs, w) in enumerate(zip(per_val, self._weights)):
                while cursors[j] < len(vsegs) and vsegs[cursors[j]].hi <= lo:
                    cursors[j] += 1
                if cursors[j] < len(vsegs) and vsegs[cursors[j]].lo <= lo:
                    density += w * vsegs[cursors[j]].density
            segs.append(Segment(lo, hi, density))
        return tuple(segs)


def combine_valuations(vals: Sequence[Valuation], weights: Sequence[Fraction]) -> Valuation:
    """Weighted sum of valuations.

    Integration is linear, so each edge total is the weighted sum of the
    agents' totals, summed exactly in integers over one denominator.  An edge's
    density breakpoints are merged only when a caller first reads that edge.
    """
    weights = [Fraction(w) for w in weights]
    den = math.lcm(*(w.denominator * v.scale for v, w in zip(vals, weights)))
    sums: dict[str, int] = {}
    for v, w in zip(vals, weights):
        lift = w.numerator * (den // (w.denominator * v.scale))
        for e, x in v.int_totals.items():
            sums[e] = sums.get(e, 0) + x * lift
    out = Valuation.__new__(Valuation)
    out.densities = _MergedDensities(vals, weights, sorted(sums))
    out._keep_totals({e: sums[e] for e in out.densities}, den)
    return out


@dataclass(frozen=True)
class Instance:
    """A cake or chore division problem: graph, one valuation per agent, mode."""

    graph: CakeGraph
    agents: tuple[Valuation, ...]
    mode: str = "cake"

    def __post_init__(self):
        if self.mode not in ("cake", "chore"):
            raise MalformedInput(f"unknown mode {self.mode!r}")
        for i, v in enumerate(self.agents):
            for e in v.densities:
                if not self.graph.has_edge(e):
                    raise UnknownEdge(f"agent {i} values unknown edge {e!r}")
            if not v.is_normalized():
                raise MalformedInput(f"agent {i} valuation integrates to {v.total()}, not 1")

    @property
    def n(self) -> int:
        return len(self.agents)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "mode": self.mode,
            "agents": [v.to_json() for v in self.agents],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Instance":
        try:
            graph, agents, mode = data["graph"], list(data["agents"]), data.get("mode", "cake")
        except (AttributeError, KeyError, TypeError):
            raise MalformedInput('an instance needs "graph" and "agents" fields') from None
        return Instance(
            CakeGraph.from_json(graph),
            tuple(Valuation.from_json(a) for a in agents),
            mode,
        )


# ---------------------------------------------------------------------------
# Evaluation and cut queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    """One directed sweep along an edge; ``start`` may exceed ``end``."""

    edge: str
    start: Fraction
    end: Fraction


Trajectory = tuple[Leg, ...]


@dataclass
class QueryLog:
    """Counts of evaluation and cut queries issued during a protocol run."""

    eval_count: int = 0
    cut_count: int = 0

    def to_json(self) -> dict:
        return {"eval": self.eval_count, "cut": self.cut_count}


def value_of_piece(v: Valuation, p: Piece, log: Optional[QueryLog] = None) -> Fraction:
    """Exact integral of the density over the piece (one evaluation query)."""
    if log is not None:
        log.eval_count += 1
    whole = 0  # over v.scale
    part = ZERO
    for iv in p.intervals:
        if is_whole(iv.lo, iv.hi):
            whole += v.int_totals.get(iv.edge, 0)
        else:
            part += v.interval_value(iv.edge, iv.lo, iv.hi)
    return Fraction(whole, v.scale) + part


def require_exact(x: object, what: str) -> None:
    """Raise DomainError unless ``x`` is a Fraction or an int.  A float or a
    bool is refused, so every query is asked and answered in exact numbers."""
    if not isinstance(x, (Fraction, int)) or isinstance(x, bool):
        raise DomainError(f"{what} {x!r} is not exact: pass a Fraction or an int")


def _leg_bounds(leg: Leg) -> tuple[Fraction, Fraction, bool]:
    """The leg's lower and upper bound, and whether it sweeps backward (from
    the upper to the lower), found by cross-multiplying.  Raises MalformedPiece
    unless both bounds lie in [0, 1]."""
    sn, sd = leg.start.as_integer_ratio()
    en, ed = leg.end.as_integer_ratio()
    if not (0 <= sn <= sd and 0 <= en <= ed):
        raise MalformedPiece(f"leg [{leg.start}, {leg.end}] outside [0, 1] on edge {leg.edge!r}")
    if sn * ed > en * sd:
        return leg.end, leg.start, True
    return leg.start, leg.end, False


def _position(leg: Leg, backward: bool, wn: int, wd: int) -> Fraction:
    """The point ``wn / wd`` along the leg from its start; the start itself
    when nothing has been swept."""
    if not wn:
        return leg.start
    return leg.start - Fraction(wn, wd) if backward else leg.start + Fraction(wn, wd)


@dataclass(frozen=True)
class TrajectoryCut:
    """A cut point expressed both as a trajectory offset and a cake point."""

    leg_index: int
    position: Fraction  # parametric position on the leg's edge
    sweep_offset: Fraction  # total length swept before the cut
    point: Point


def cut_trajectory(
    g: CakeGraph, v: Valuation, t: Trajectory, target: Fraction, log: Optional[QueryLog] = None
) -> TrajectoryCut:
    """Earliest point along the trajectory whose prefix has exactly the target value.

    Zero-density plateaus resolve to their first point.  Raises
    InsufficientValue when the whole trajectory is worth less than the target,
    DomainError for an empty trajectory, and MalformedPiece for any leg whose
    bounds do not lie in [0, 1].
    """
    require_exact(target, "cut target")
    if not t:
        raise DomainError("a cut query needs a trajectory of at least one leg")
    for leg in t:
        if not (is_whole(leg.start, leg.end) or is_whole(leg.end, leg.start)):
            _leg_bounds(leg)
    if log is not None:
        log.cut_count += 1
    if target < 0:
        raise InsufficientValue(f"negative cut target {target}")
    i, pos, offset = _walk(v, t, target)
    return TrajectoryCut(i, pos, offset, canonical_point(g, t[i].edge, pos))


def _walk(v: Valuation, t: Trajectory, target: Fraction) -> tuple[int, Fraction, Fraction]:
    """Where a knife sweeping ``t`` first covers the nonnegative ``target``: the
    leg index, the position on that leg's edge, and the length swept before it."""
    # The sweep runs in integers against the target tn / td.  ``acc`` = an / ad
    # is the value swept so far and ``offset`` = on / od the length swept
    # before the current leg.
    # Whole legs that end before the stop are stepped over: ``skipped`` of
    # them, worth ``whole`` over v.scale, follow acc and offset.  Another whole
    # leg worth x ends before the stop when whole + x < (target - acc) * scale,
    # that is whole + x < room.
    tn, td = target.as_integer_ratio()
    scale = v.scale
    an, ad = 0, 1
    on, od = 0, 1
    whole = skipped = 0
    room = -(-tn * scale // td)
    for i, leg in enumerate(t):
        if is_whole(leg.start, leg.end) or is_whole(leg.end, leg.start):
            x = v.int_totals.get(leg.edge, 0)
            if whole + x < room:  # the stop lies beyond this leg
                whole += x
                skipped += 1
                continue
        if skipped:
            an, ad = an * scale + whole * ad, ad * scale
            on += skipped * od
            whole = skipped = 0
        lo, hi, backward = _leg_bounds(leg)
        stretches = _clip(v, leg.edge, lo, hi)
        wn, wd = 0, 1  # the length swept on this leg
        for n, d, density in reversed(stretches) if backward else stretches:
            if an * td == tn * ad:
                break
            p, q = density.as_integer_ratio()
            if p:
                # the value swept to the stretch's far end, sn / sd
                sn, sd = an * d * q + n * p * ad, ad * d * q
                if sn * td >= tn * sd:
                    # the stop lies in this stretch
                    dist = (target - Fraction(an, ad)) / density
                    pos = _position(leg, backward, wn, wd) + (-dist if backward else dist)
                    return i, pos, Fraction(on * wd + wn * od, od * wd) + dist
                an, ad = sn, sd
            wn, wd = wn * d + n * wd, wd * d
        if an * td == tn * ad:
            return i, _position(leg, backward, wn, wd), Fraction(on * wd + wn * od, od * wd)
        on, od = on * wd + wn * od, od * wd
        room = -(-(tn * ad - an * td) * scale // (td * ad))
    acc = Fraction(an, ad) + Fraction(whole, scale)
    raise InsufficientValue(f"trajectory is worth {acc}, less than the target {target}")


def cut_query(
    g: CakeGraph, v: Valuation, t: Trajectory, target: Fraction, log: Optional[QueryLog] = None
) -> Point:
    return cut_trajectory(g, v, t, target, log).point


def trajectory_prefix_piece(t: Trajectory, cut: TrajectoryCut) -> Piece:
    """The piece covered by the knife up to the given cut.  A whole leg, in
    either direction, is the edge's shared ``[ZERO, ONE]``."""
    intervals = []
    for leg in t[: cut.leg_index]:
        start, end = leg.start, leg.end
        if is_whole(start, end) or is_whole(end, start):
            intervals.append(Interval(leg.edge, ZERO, ONE))
        else:
            intervals.append(Interval(leg.edge, min(start, end), max(start, end)))
    leg = t[cut.leg_index]
    lo, hi = min(leg.start, cut.position), max(leg.start, cut.position)
    intervals.append(Interval(leg.edge, lo, hi))
    return Piece.of(intervals)


def latest_position_within(
    v: Valuation, leg: Leg, budget: Fraction
) -> Optional[Fraction]:
    """Latest parametric position on the leg whose prefix value stays <= budget.

    Returns None for a negative budget, the leg end when the whole leg fits,
    and otherwise the far end of the plateau where the prefix equals the budget.
    That is where a knife swept back from the leg end first covers the value
    beyond the budget, so the cut walk finds it on the reversed leg.
    """
    require_exact(budget, "budget")
    lo, hi, _ = _leg_bounds(leg)
    if budget < 0:
        return None
    beyond = v.interval_value(leg.edge, lo, hi) - budget
    if beyond <= 0:
        return leg.end
    return _walk(v, (Leg(leg.edge, leg.end, leg.start),), beyond)[1]


# ---------------------------------------------------------------------------
# Restriction to subcakes
# ---------------------------------------------------------------------------


def restrict(v: Valuation, cmap: SubcakeMap) -> Valuation:
    """Transport a valuation onto an induced subcake, preserving measure."""
    densities: dict[str, EdgeDensity] = {}
    for new_edge, span in cmap.spans.items():
        width = span.hi - span.lo
        segs = []
        for s in v.edge_segments(span.edge):
            a, b = max(s.lo, span.lo), min(s.hi, span.hi)
            if a < b:
                segs.append(Segment((a - span.lo) / width, (b - span.lo) / width, s.density * width))
        if not segs:
            segs = [Segment(ZERO, ONE, ZERO)]
        # fill gaps left by clipping (zero-density outside the old segments)
        full: list[Segment] = []
        cursor = ZERO
        for s in segs:
            if s.lo > cursor:
                full.append(Segment(cursor, s.lo, ZERO))
            full.append(s)
            cursor = s.hi
        if cursor < ONE:
            full.append(Segment(cursor, ONE, ZERO))
        densities[new_edge] = tuple(full)
    return Valuation(densities)


def restrict_and_renormalize(v: Valuation, cmap: SubcakeMap) -> Valuation:
    """Restriction scaled so the subcake is worth exactly 1.

    Raises ZeroValuePiece when the agent values the subcake at zero; callers
    must special-case such agents.
    """
    r = restrict(v, cmap)
    total = r.total()
    if total == 0:
        raise ZeroValuePiece("agent values the subcake at zero")
    return r.scaled(Fraction(1) / total)
