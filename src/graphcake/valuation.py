"""Agent preferences: exact piecewise-constant densities, evaluation and cut queries.

Valuations double as cost functions in chore mode.  Protocols interact with
them only through evaluation and cut queries, which keeps the interface
measure-agnostic; the piecewise-constant representation is closed under every
cut the protocols perform.  A segment holds its bounds and its density as
reduced integer pairs, six integers in a tuple, and the document reader and
every query work on those integers: neither builds a ``Fraction`` per segment.

Every valued edge's segments partition [0, 1] in strictly increasing order,
with densities >= 0.  ``Valuation(...)`` refuses anything else: its checker,
``_checked``, passes once over an edge's segments, comparing by
cross-multiplying, and sums the edge's value.  Every reader builds segments
and calls the constructor; ``scaled`` and ``combine_valuations`` refuse a
negative factor or weight.

Each valuation keeps its edge totals once, as integers over one scale, the
least common multiple of their denominators; a query for a whole edge reads a
stored total, and sums of whole edges are exact integer sums.  Every interval
a query asks about is walked by ``_clip``, which yields its constant-density
stretches as integer lengths and densities; evaluation and cut queries sum and
compare those in integers and build a ``Fraction`` only for the value or point
they return.  One walk, ``_walk``, finds where every knife stops:
``cut_trajectory`` runs it forward, and ``latest_position_within`` runs it
backward from a leg's end, to where the value beyond the budget is covered.
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
    Piece,
    Point,
    SubcakeMap,
    _format_ratio,
    _read_ratio,
    _shown,
    canonical_point,
    is_whole,
)


def _ratio(x: object) -> tuple[int, int]:
    """A Fraction, an int, ``"p"`` or ``"p/q"`` as a reduced pair (numerator,
    positive denominator); anything else, a bool or a float included, raises
    MalformedInput."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return _read_ratio(x)


class Segment(tuple):
    """Constant density over [lo, hi), held as six integers
    ``(lo_n, lo_d, hi_n, hi_d, p, q)``: lo = lo_n / lo_d, hi = hi_n / hi_d and
    density = p / q, each pair reduced with a positive denominator.  Equality
    and hashing are those of the six integers, so they agree with the
    ``Fraction`` values.  ``Segment(lo, hi, density)`` reads Fractions, ints
    or ``"p/q"`` strings, and checks neither order nor sign: ``Valuation``
    checks its segments.  Readers build segments from reduced pairs directly,
    with ``_segment``."""

    __slots__ = ()

    def __new__(cls, lo: object, hi: object, density: object) -> "Segment":
        return tuple.__new__(cls, (*_ratio(lo), *_ratio(hi), *_ratio(density)))

    def __getnewargs__(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.lo, self.hi, self.density

    def __repr__(self) -> str:
        return f"Segment({self.lo!r}, {self.hi!r}, {self.density!r})"

    @property
    def lo(self) -> Fraction:
        return Fraction(self[0], self[1])

    @property
    def hi(self) -> Fraction:
        return Fraction(self[2], self[3])

    @property
    def density(self) -> Fraction:
        return Fraction(self[4], self[5])


def _segment(ints: tuple[int, int, int, int, int, int]) -> Segment:
    """A segment from six integers that already form reduced pairs."""
    return tuple.__new__(Segment, ints)


EdgeDensity = tuple[Segment, ...]

_ZERO_EDGE: EdgeDensity = (_segment((0, 1, 1, 1, 0, 1)),)


def _checked(segs: EdgeDensity) -> tuple[int, int]:
    """An edge's value, the sum of (hi - lo) * density over its segments, as an
    unreduced numerator and denominator.  The same pass checks, by
    cross-multiplying, that the segments partition [0, 1]: they start at 0,
    each starts where the last one ended and ends past its start, and the last
    ends at 1.  It also checks that the densities are nonnegative.  A segment
    that is not six integers fails to unpack, and raises MalformedInput."""
    try:
        if not segs or segs[0][0] or segs[-1][2] != segs[-1][3]:
            raise MalformedInput("segments must partition [0, 1]")
        num, den = 0, 1
        en, ed = 0, 1  # where the previous segment ended
        for an, ad, bn, bd, p, q in segs:
            if an * ed != en * ad:
                raise MalformedInput("segments must be contiguous")
            if an * bd >= bn * ad:
                raise MalformedInput("segment breakpoints must be strictly increasing")
            if p < 0:
                raise MalformedInput("densities must be nonnegative")
            if p:
                d = ad * bd * q
                num, den = num * d + (bn * ad - an * bd) * p * den, den * d
            en, ed = bn, bd
    except (IndexError, TypeError, ValueError):
        raise MalformedInput("a segment is a Segment: six integers") from None
    return num, den


def _clip(v: Valuation, edge: str, lo: Fraction, hi: Fraction) -> list[tuple[int, int, int, int]]:
    """The constant-density stretches of [lo, hi] on an edge, in ascending order,
    as (length numerator, length denominator, density numerator, density
    denominator).

    Bounds are compared by cross-multiplying their numerators and denominators,
    so no Fraction is compared or built.  Segments are stored in ascending
    order, so the walk stops at the first one that starts at or past ``hi``.
    """
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    out = []
    for an, ad, bn, bd, p, q in v.edge_segments(edge):
        if an * hd >= hn * ad:
            break
        if an * ld < ln * ad:
            an, ad = ln, ld
        if hn * bd < bn * hd:
            bn, bd = hn, hd
        if an * bd < bn * ad:
            out.append((bn * ad - an * bd, ad * bd, p, q))
    return out


def _integrate(stretches: Iterable[tuple[int, int, int, int]]) -> tuple[int, int]:
    """The value of ``_clip``'s stretches, as an unreduced numerator and denominator."""
    num, den = 0, 1
    for n, d, p, q in stretches:
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
        densities = {e: tuple(segs) for e, segs in densities.items()}
        sums = {e: _checked(segs) for e, segs in densities.items()}
        self.densities: Mapping[str, EdgeDensity] = MappingProxyType(densities)
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
        try:
            densities = {e: tuple(Segment(*seg) for seg in segs) for e, segs in per_edge.items()}
        except TypeError:
            raise MalformedInput("a segment is a (start, end, density) triple") from None
        return Valuation(densities)

    @staticmethod
    def from_edge_values(values: Mapping[str, Fraction | int | str]) -> "Valuation":
        """Uniform density within each edge, integrating to the given edge values:
        Fractions, ints, or ``"p"`` / ``"p/q"`` strings.  Edges valued zero are
        left out."""
        read = {e: _ratio(x) for e, x in values.items()}
        return Valuation({e: (_segment((0, 1, 1, 1, *pq)),) for e, pq in read.items() if pq[0]})

    @staticmethod
    def uniform(g: CakeGraph) -> "Valuation":
        share = Fraction(1, g.m)
        return Valuation.from_edge_values({e.id: share for e in g.edges})

    def edge_segments(self, edge_id: str) -> EdgeDensity:
        return self.densities.get(edge_id, _ZERO_EDGE)

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
        # factor, so the totals are carried over.  Each distinct segment is
        # scaled once, its density multiplied and reduced by the two cross
        # gcds, and equal segments share the scaled one.  A negative factor
        # would make negative densities, so it is refused.
        require_exact(factor, "scale factor")
        if factor < 0:
            raise DomainError(f"scale factor {_shown(factor)} is negative")
        fp, fq = factor.as_integer_ratio()
        scaled = {}
        for segs in self.densities.values():
            for s in segs:
                if s not in scaled:
                    an, ad, bn, bd, p, q = s
                    a, b = math.gcd(p, fq), math.gcd(fp, q)
                    scaled[s] = _segment((an, ad, bn, bd, (p // a) * (fp // b), (q // b) * (fq // a)))
        out = Valuation.__new__(Valuation)
        out.densities = MappingProxyType(
            {e: tuple(map(scaled.__getitem__, segs)) for e, segs in self.densities.items()}
        )
        out._keep_totals({e: x * fp for e, x in self.int_totals.items()}, self.scale * fq)
        return out

    def to_json(self) -> dict:
        return {
            e: [[_format_ratio(s[0], s[1]), _format_ratio(s[4], s[5])] for s in segs]
            for e, segs in sorted(self.densities.items())
        }

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
        read: dict[object, tuple[int, int]] = {}

        def number(text: object) -> tuple[int, int]:
            got = read.get(text) if type(text) is str else None
            if got is None:
                got = read[text] = _read_ratio(text)
            return got

        densities = {}
        for e, pairs in per_edge:
            los = [number(lo) for lo, _ in pairs]
            ds = [number(d) for _, d in pairs]
            if not los or los[0][0]:
                raise MalformedInput(f"edge {e!r}: segment list must start at 0")
            his = los[1:] + [(1, 1)]
            densities[e] = tuple(_segment((*a, *b, *d)) for a, b, d in zip(los, his, ds))
        return Valuation(densities)


class _MergedDensities(Mapping[str, EdgeDensity]):
    """Read-only densities of a weighted sum of valuations.  Each edge's segments
    are merged the first time it is read and kept for later reads."""

    def __init__(self, vals: Sequence[Valuation], weights: Sequence[Fraction], edges: Sequence[str]):
        self._vals = tuple(vals)
        self._weights = tuple(w.as_integer_ratio() for w in weights)
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
        points = {(0, 1), (1, 1)}
        for segs in per_val:
            for an, ad, bn, bd, _, _ in segs:
                points.add((an, ad))
                points.add((bn, bd))
        # The points are reduced pairs, so the set holds each once; over their
        # common denominator they sort as their numerators do.
        common = math.lcm(*(d for _, d in points))
        cuts = sorted(points, key=lambda x: x[0] * (common // x[1]))
        # Every density is constant between consecutive cuts, so one merge pass
        # reads each valuation's density there; a cursor skips segments that end
        # at or before the cut, comparing by cross-multiplying.  Each edge's
        # segments partition [0, 1], so the segment it reaches holds the cut.
        cursors = [0] * len(per_val)
        segs = []
        for (ln, ld), (hn, hd) in zip(cuts, cuts[1:]):
            num, den = 0, 1
            for j, (vsegs, (wn, wd)) in enumerate(zip(per_val, self._weights)):
                c = cursors[j]
                while vsegs[c][2] * ld <= ln * vsegs[c][3]:
                    c += 1
                cursors[j] = c
                p, q = vsegs[c][4], vsegs[c][5]
                num, den = num * q * wd + wn * p * den, den * q * wd
            g = math.gcd(num, den)
            segs.append(_segment((ln, ld, hn, hd, num // g, den // g)))
        return tuple(segs)


def combine_valuations(vals: Sequence[Valuation], weights: Sequence[Fraction]) -> Valuation:
    """Weighted sum of valuations, one exact nonnegative weight each.

    Integration is linear, so each edge total is the weighted sum of the
    agents' totals, summed exactly in integers over one denominator.  An edge's
    density breakpoints are merged only when a caller first reads that edge.
    Raises DomainError for no valuations, a weight count that differs from the
    valuation count, or a weight that is inexact or negative.
    """
    if not vals:
        raise DomainError("a weighted sum needs at least one valuation")
    if len(weights) != len(vals):
        raise DomainError(
            f"a weighted sum needs one weight per valuation, got {len(weights)} for {len(vals)}"
        )
    for w in weights:
        require_exact(w, "weight")
        if w < 0:
            raise DomainError(f"weight {_shown(w)} is negative")
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
        # a list given would make the instance mutable and unhashable
        object.__setattr__(self, "agents", tuple(self.agents))
        if not isinstance(self.graph, CakeGraph):
            raise TypeError(f"the graph must be a CakeGraph, not {type(self.graph).__name__}")
        if self.mode not in ("cake", "chore"):
            raise MalformedInput(f"unknown mode {self.mode!r}")
        # agents may share one valuation object; each is checked once, under
        # the first agent that holds it
        checked: set[int] = set()
        for i, v in enumerate(self.agents):
            if not isinstance(v, Valuation):
                raise TypeError(f"agent {i} must be a Valuation, not {type(v).__name__}")
            if id(v) in checked:
                continue
            checked.add(id(v))
            for e in v.densities:
                if not self.graph.has_edge(e):
                    raise UnknownEdge(f"agent {i} values unknown edge {e!r}")
            if not v.is_normalized():
                raise MalformedInput(f"agent {i} valuation integrates to {_shown(v.total())}, not 1")

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
    """Where a knife stopped on a trajectory: the leg it stopped on, its
    position on that leg's edge, and the length swept before it.  The cake
    point there is ``cut_query``'s answer."""

    leg_index: int
    position: Fraction  # parametric position on the leg's edge
    sweep_offset: Fraction  # total length swept before the cut


def cut_trajectory(
    v: Valuation, t: Trajectory, target: Fraction, log: Optional[QueryLog] = None
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
    return TrajectoryCut(*_walk(v, t, target))


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
        for n, d, p, q in reversed(stretches) if backward else stretches:
            if an * td == tn * ad:
                break
            if p:
                # the value swept to the stretch's far end, sn / sd
                sn, sd = an * d * q + n * p * ad, ad * d * q
                if sn * td >= tn * sd:
                    # the stop lies in this stretch, (target - acc) / density into it
                    dist = Fraction((tn * ad - an * td) * q, td * ad * p)
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
    """The cake point where ``cut_trajectory`` stops: the name of an end
    vertex at positions 0 and 1, else an ``EdgePoint``."""
    cut = cut_trajectory(v, t, target, log)
    return canonical_point(g, t[cut.leg_index].edge, cut.position)


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
