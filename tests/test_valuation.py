import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcake.errors import (
    DomainError,
    InsufficientValue,
    MalformedInput,
    MalformedPiece,
    UnknownEdge,
    ZeroValuePiece,
)
from graphcake.graph_core import (
    EdgePoint,
    Interval,
    Piece,
    canonical_point,
    format_fraction,
    induced_cake,
)
from graphcake.valuation import (
    Instance,
    Leg,
    QueryLog,
    Segment,
    TrajectoryCut,
    Valuation,
    _clip,
    _integrate,
    combine_valuations,
    cut_query,
    cut_trajectory,
    latest_position_within,
    restrict,
    restrict_and_renormalize,
    value_of_piece,
)

import independent
from conftest import path_graph, prefix_piece, single_edge_graph, star_graph, trajectory_value

F = Fraction
HALF = F(1, 2)


def stepped_valuation():
    """Density 2 on [0,1/4], 0 on [1/4,3/4], 2 on [3/4,1]: total 1."""
    return Valuation.from_segments(
        {"e0": [(0, F(1, 4), 2), (F(1, 4), F(3, 4), 0), (F(3, 4), 1, 2)]}
    )


# -- evaluation ----------------------------------------------------------------


def test_uniform_half_edge():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    assert value_of_piece(v, Piece.of([Interval("e0", F(0), F(1, 2))])) == F(1, 2)


def test_star_additivity():
    g = star_graph(3)
    v = Valuation.uniform(g)
    p = Piece.of([Interval("e0", F(0), F(1)), Interval("e1", F(0), F(1, 2))])
    assert value_of_piece(v, p) == F(1, 2)


def test_piecewise_integration():
    v = stepped_valuation()
    assert value_of_piece(v, Piece.of([Interval("e0", F(0), F(1, 2))])) == F(1, 2)
    assert value_of_piece(v, Piece.of([Interval("e0", F(1, 4), F(3, 4))])) == F(0)
    assert v.total() == 1


def test_unknown_edge_rejected_by_instance():
    g = single_edge_graph()
    v = Valuation.from_edge_values({"zzz": F(1)})
    with pytest.raises(UnknownEdge):
        Instance(g, (v,), "cake")


def test_a_shared_valuation_is_checked_once(monkeypatch):
    checked = []
    is_normalized = Valuation.is_normalized
    monkeypatch.setattr(Valuation, "is_normalized", lambda v: checked.append(v) or is_normalized(v))
    g = star_graph(4)
    shared = Valuation.uniform(g)
    inst = Instance(g, (shared,) * 1000)
    assert inst.n == 1000 and checked == [shared]
    # equal but distinct objects are each checked
    checked.clear()
    Instance(g, (shared, Valuation.uniform(g), shared))
    assert len(checked) == 2
    # a shared faulty valuation is reported under the first agent that holds it
    heavy = Valuation.from_edge_values({e.id: F(1) for e in g.edges})
    with pytest.raises(MalformedInput, match="^agent 1 valuation integrates to 4, not 1$"):
        Instance(g, (shared, heavy, shared, heavy))
    stray = Valuation.from_edge_values({"zzz": F(1)})
    with pytest.raises(UnknownEdge, match="^agent 2 values unknown edge 'zzz'$"):
        Instance(g, (shared, shared, stray, stray))


def test_empty_piece_is_worthless():
    v = stepped_valuation()
    assert value_of_piece(v, Piece.empty()) == 0


# -- cut queries ---------------------------------------------------------------


def test_cut_uniform_third():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    point = cut_query(g, v, (Leg("e0", F(0), F(1)),), F(1, 3))
    assert point == EdgePoint("e0", F(1, 3))


def test_cut_with_leading_zero_density():
    g = single_edge_graph()
    v = Valuation.from_segments({"e0": [(0, F(1, 2), 0), (F(1, 2), 1, 2)]})
    point = cut_query(g, v, (Leg("e0", F(0), F(1)),), F(1, 2))
    assert point == EdgePoint("e0", F(3, 4))


def test_cut_plateau_resolves_to_earliest_point():
    g = single_edge_graph()
    v = stepped_valuation()
    point = cut_query(g, v, (Leg("e0", F(0), F(1)),), F(1, 2))
    assert point == EdgePoint("e0", F(1, 4))


def test_cut_target_zero_is_trajectory_start():
    g = single_edge_graph()
    v = stepped_valuation()
    point = cut_query(g, v, (Leg("e0", F(0), F(1)),), F(0))
    assert point == "a"


def test_cut_reverse_direction():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    point = cut_query(g, v, (Leg("e0", F(1), F(0)),), F(1, 4))
    assert point == EdgePoint("e0", F(3, 4))


def test_cut_insufficient_value():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    with pytest.raises(InsufficientValue):
        cut_query(g, v, (Leg("e0", F(0), F(1, 2)),), F(3, 4))


def test_cut_counts_queries():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    log = QueryLog()
    cut_query(g, v, (Leg("e0", F(0), F(1)),), F(1, 2), log)
    value_of_piece(v, g.whole_piece(), log)
    assert log.cut_count == 1 and log.eval_count == 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(1, 24),
)
def test_cut_round_trip(w1, w2, w3, num):
    g = single_edge_graph()
    weights = [w1, w2, w3]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    v = Valuation.from_segments(
        {
            "e0": [
                (0, F(1, 3), F(3 * weights[0], total)),
                (F(1, 3), F(2, 3), F(3 * weights[1], total)),
                (F(2, 3), 1, F(3 * weights[2], total)),
            ]
        }
    )
    traj = (Leg("e0", F(0), F(1)),)
    target = F(num, 24)
    if target > trajectory_value(v, traj):
        return
    cut = cut_trajectory(v, traj, target)
    prefix = Piece.of([Interval("e0", F(0), cut.position)])
    assert value_of_piece(v, prefix) == target
    assert cut_query(g, v, traj, target) == canonical_point(g, "e0", cut.position)


def test_cut_round_trip_multi_leg():
    rng = random.Random(7)
    g = star_graph(3)
    for _ in range(100):
        weights = [F(rng.randint(0, 5)) for _ in range(3)]
        if sum(weights) == 0:
            weights[0] = F(1)
        total = sum(weights)
        v = Valuation.from_edge_values(
            {f"e{i}": w / total for i, w in enumerate(weights)}
        )
        traj = (Leg("e0", F(1), F(0)), Leg("e1", F(0), F(1)), Leg("e2", F(1), F(0)))
        target = F(rng.randint(0, 24), 24)
        if target > trajectory_value(v, traj):
            continue
        cut = cut_trajectory(v, traj, target)
        assert value_of_piece(v, prefix_piece(traj, cut)) == target
        point = canonical_point(g, traj[cut.leg_index].edge, cut.position)
        assert cut_query(g, v, traj, target) == point


def test_prefix_value_monotone_along_trajectory():
    g = star_graph(2)
    v = Valuation.from_segments(
        {
            "e0": [(0, F(1, 2), 1), (F(1, 2), 1, 0)],
            "e1": [(0, F(1, 4), 0), (F(1, 4), 1, F(2, 3))],
        }
    )
    traj = (Leg("e0", F(1), F(0)), Leg("e1", F(0), F(1)))
    values = []
    for k in range(0, 17):
        t = F(k, 16)
        if t <= 1:
            prefix = Piece.of([Interval("e0", 1 - t, F(1))])
        values.append(value_of_piece(v, prefix))
    assert all(a <= b for a, b in zip(values, values[1:]))


# -- restriction ---------------------------------------------------------------


def test_restrict_whole_cake_identity():
    g = star_graph(3)
    v = Valuation.uniform(g)
    sub, cmap = induced_cake(g, g.whole_piece())
    r = restrict_and_renormalize(v, cmap)
    assert r.total() == 1
    for e in sub.edges:
        assert r.edge_value(e.id) == F(1, 3)


def test_restrict_half_edge_doubles():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    sub, cmap = induced_cake(g, Piece.of([Interval("e0", F(0), F(1, 2))]))
    plain = restrict(v, cmap)
    assert plain.total() == F(1, 2)
    r = restrict_and_renormalize(v, cmap)
    assert r.total() == 1
    assert r.edge_value(sub.edges[0].id) == 1


def test_restrict_preserves_value_through_map():
    rng = random.Random(12)
    g = star_graph(3)
    v = Valuation.from_segments(
        {
            "e0": [(0, F(1, 2), F(3, 2)), (F(1, 2), 1, F(1, 2))],
            "e1": [(0, 1, F(1, 2))],
            "e2": [(0, 1, F(1, 2))],
        }
    )
    assert v.total() == F(2)
    piece = Piece.of([Interval("e0", F(0), F(3, 4)), Interval("e1", F(0), F(1))])
    sub, cmap = induced_cake(g, piece)
    plain = restrict(v, cmap)
    for _ in range(20):
        e = rng.choice(sub.edges)
        a, b = sorted(F(rng.randint(0, 8), 8) for _ in range(2))
        sub_piece = Piece.of([Interval(e.id, a, b)])
        assert value_of_piece(plain, sub_piece) == value_of_piece(
            v, cmap.piece_to_parent(sub_piece)
        )


def test_renormalize_scales_ratios():
    g = star_graph(3)
    v = Valuation.uniform(g)
    piece = Piece.of([Interval("e0", F(0), F(1))])
    sub, cmap = induced_cake(g, piece)
    r = restrict_and_renormalize(v, cmap)
    # the subcake was worth 1/3, so every subpiece value triples
    rng = random.Random(3)
    for _ in range(5):
        a, b = sorted(F(rng.randint(0, 10), 10) for _ in range(2))
        sub_piece = Piece.of([Interval("e0", a, b)])
        assert value_of_piece(r, sub_piece) == 3 * value_of_piece(
            v, cmap.piece_to_parent(sub_piece)
        )


def test_renormalize_zero_value_piece():
    g = star_graph(2)
    v = Valuation.from_edge_values({"e0": F(1)})
    sub, cmap = induced_cake(g, Piece.of([Interval("e1", F(0), F(1))]))
    with pytest.raises(ZeroValuePiece):
        restrict_and_renormalize(v, cmap)


# -- serialization ---------------------------------------------------------------


def test_instance_json_round_trip():
    g = star_graph(3)
    v = Valuation.from_segments(
        {
            "e0": [(0, F(1, 2), F(3, 2)), (F(1, 2), 1, F(1, 2))],
            "e1": [(0, 1, F(1, 2))],
            "e2": [(0, 1, F(1, 2))],
        }
    ).scaled(F(1, 2))
    inst = Instance(g, (v, Valuation.uniform(g)), "chore")
    data = inst.to_json()
    back = Instance.from_json(data)
    assert back.to_json() == data
    assert back.mode == "chore"
    assert back.agents[0].total() == 1


# -- the integer walks against Fraction loops ------------------------------------
# The Fraction forms of the whole-leg skip and the knife stop, and the eager
# merge that the one-pass merge replaces; interval values are checked against
# the independent checker.


def _cut_and_point(g, i, pos, offset, edge):
    return TrajectoryCut(i, pos, offset), canonical_point(g, edge, pos)


def cut_with_point(g, v, t, target):
    """``cut_trajectory``'s cut and ``cut_query``'s point, as the references give them."""
    return cut_trajectory(v, t, target), cut_query(g, v, t, target)


def fraction_latest_position_within(v, leg, budget):
    """latest_position_within as a Fraction segment loop."""
    if budget < 0:
        return None
    direction = 1 if leg.end >= leg.start else -1
    lo, hi = min(leg.start, leg.end), max(leg.start, leg.end)
    clipped = [
        (max(s.lo, lo), min(s.hi, hi), s.density)
        for s in v.edge_segments(leg.edge)
        if max(s.lo, lo) < min(s.hi, hi)
    ]
    if leg.start > leg.end:
        clipped.reverse()
    pos = leg.start
    acc = F(0)
    for a, b, density in clipped:
        length = b - a
        seg_value = density * length
        if acc + seg_value > budget:
            return pos + direction * ((budget - acc) / density)
        acc += seg_value
        pos += direction * length
    return leg.end


def fraction_skip_cut_trajectory(g, v, t, target):
    """The cut sweep that steps over whole legs by adding Fraction totals."""
    if target < 0:
        raise InsufficientValue(f"negative cut target {target}")
    acc = F(0)
    offset = F(0)
    for i, leg in enumerate(t):
        if {leg.start, leg.end} == {F(0), F(1)}:
            whole = v.edge_value(leg.edge)
            if acc + whole < target:
                acc += whole
                offset += 1
                continue
        direction = 1 if leg.end >= leg.start else -1
        pos = leg.start
        lo, hi = min(leg.start, leg.end), max(leg.start, leg.end)
        clipped = [
            (max(s.lo, lo), min(s.hi, hi), s.density)
            for s in v.edge_segments(leg.edge)
            if max(s.lo, lo) < min(s.hi, hi)
        ]
        if leg.start > leg.end:
            clipped.reverse()
        for a, b, density in clipped:
            length = b - a
            if acc == target:
                return _cut_and_point(g, i, pos, offset, leg.edge)
            seg_value = density * length
            if density > 0 and acc + seg_value >= target:
                dist = (target - acc) / density
                cut_pos = pos + direction * dist
                return _cut_and_point(g, i, cut_pos, offset + dist, leg.edge)
            acc += seg_value
            pos += direction * length
            offset += length
        if acc == target:
            return _cut_and_point(g, i, pos, offset, leg.edge)
    raise InsufficientValue(f"trajectory is worth {acc}, less than the target {target}")


def reference_combine(vals, weights):
    densities = {}
    parsed = [independent.valuation(v.to_json()) for v in vals]
    for e in sorted({e for v in vals for e in v.densities}):
        ends = {x for v in vals for s in v.edge_segments(e) for x in (s.lo, s.hi)}
        cuts = sorted({F(0), F(1), *ends})
        segs = []
        for lo, hi in zip(cuts, cuts[1:]):
            value = sum(w * independent.value(v, [(e, lo, hi)]) for v, w in zip(parsed, weights))
            segs.append(Segment(lo, hi, value / (hi - lo)))
        densities[e] = tuple(segs)
    return densities


PATH = path_graph(4)
EDGES = [e.id for e in PATH.edges]
GRID = st.integers(0, 24).map(lambda k: F(k, 24))


@st.composite
def edge_densities(draw):
    """1 to 4 segments on the twelfths, densities 0 to 4 (zero plateaus included)."""
    k = draw(st.integers(1, 4))
    inner = sorted(draw(st.sets(st.integers(1, 11), min_size=k - 1, max_size=k - 1)))
    bounds = [F(0), *(F(c, 12) for c in inner), F(1)]
    return tuple(
        Segment(lo, hi, F(draw(st.integers(0, 4)), draw(st.integers(1, 3))))
        for lo, hi in zip(bounds, bounds[1:])
    )


@st.composite
def valuations(draw):
    """Densities on some of the path's edges; the others are absent (zero)."""
    edges = draw(st.lists(st.sampled_from(EDGES), unique=True))
    return Valuation({e: draw(edge_densities()) for e in edges})


@st.composite
def legs(draw):
    edge = draw(st.sampled_from(EDGES))
    start, end = (F(0), F(1)) if draw(st.booleans()) else (draw(GRID), draw(GRID))
    return Leg(edge, end, start) if draw(st.booleans()) else Leg(edge, start, end)


def _prefix_values(v, t):
    """The covered value at every leg end and every segment breakpoint of the sweep."""
    val = independent.valuation(v.to_json())
    values, acc = [F(0)], F(0)
    for leg in t:
        lo, hi = min(leg.start, leg.end), max(leg.start, leg.end)
        inner = {x for s in v.edge_segments(leg.edge) for x in (s.lo, s.hi) if lo < x < hi}
        cuts = sorted({lo, hi, *inner})
        if leg.start > leg.end:
            cuts.reverse()
        for a, b in zip(cuts, cuts[1:]):
            values.append(acc + independent.value(val, [(leg.edge, min(a, b), max(a, b))]))
        acc += independent.value(val, [(leg.edge, lo, hi)])
        values.append(acc)
    return values


@st.composite
def walked_valuations(draw):
    """A drawn valuation as it is, scaled, or combined with others."""
    v = draw(valuations())
    kind = draw(st.sampled_from(["plain", "scaled", "combined"]))
    if kind == "scaled":
        return v.scaled(F(draw(st.integers(1, 50)), draw(st.integers(1, 97))))
    if kind == "combined":
        vals = [v] + draw(st.lists(valuations(), min_size=1, max_size=2))
        return combine_valuations(vals, [F(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in vals])
    return v


@st.composite
def sweeps(draw):
    """Up to eight legs, most of them whole edges in either direction."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        edge = draw(st.sampled_from(EDGES))
        if draw(st.integers(0, 3)):
            start, end = F(0), F(1)
        else:
            start, end = draw(GRID), draw(GRID)
        out.append(Leg(edge, end, start) if draw(st.booleans()) else Leg(edge, start, end))
    return tuple(out)


def _cut_outcome(cut, *args):
    try:
        found = cut(*args)
    except InsufficientValue as exc:
        return str(exc)
    at, _ = found
    return found, type(at.sweep_offset), type(at.position)


@settings(max_examples=300, deadline=None)
@given(walked_valuations(), sweeps(), st.data())
def test_integer_whole_leg_skip_matches_the_fraction_one(v, t, data):
    # scaled and combined valuations widen v.scale past the twelfths of the
    # drawn densities
    total = trajectory_value(v, t)
    # exact stops at leg ends and breakpoints (plateaus start there), points just
    # off them, shares of the whole, the whole and more, and ints
    stops = _prefix_values(v, t)
    targets = stops + [x + F(1, 10007) for x in stops] + [x - F(1, 10007) for x in stops]
    targets += [total * F(data.draw(st.integers(0, 12)), 12), total + F(1, 7), F(-1), 0, 1, -1]
    targets += [total * x for x in data.draw(st.lists(GRID, max_size=3))]
    for target in targets:
        if not t:
            # an empty trajectory is refused, whatever the target
            with pytest.raises(DomainError, match="at least one leg"):
                cut_trajectory(v, t, target)
            continue
        assert _cut_outcome(cut_with_point, PATH, v, t, target) == _cut_outcome(
            fraction_skip_cut_trajectory, PATH, v, t, target
        )
    for target in (float(total) / 3, 0.1, 0.0, True):
        with pytest.raises(DomainError, match="is not exact"):
            cut_trajectory(v, t, target)


# breakpoints and the ends (the twelfths lie on the grid), and bounds off it
BOUNDS = st.one_of(GRID, st.integers(0, 35).map(lambda k: F(k, 35)))


def _typed(x):
    return x, type(x)


@settings(max_examples=200, deadline=None)
@given(walked_valuations(), st.lists(st.tuples(BOUNDS, BOUNDS), max_size=4))
def test_integer_interval_walk_matches_the_fraction_loop(v, spans):
    # lo == hi, whole edges, and spans that start or end on breakpoints or between them
    queries = [(F(0), F(1)), (F(1, 3), F(1, 3)), (F(0), F(1, 2)), (F(7, 12), F(1))]
    queries += [(min(a, b), max(a, b)) for a, b in spans]
    val = independent.valuation(v.to_json())
    for edge in EDGES + ["absent"]:
        for lo, hi in queries:
            expected = independent.value(val, [(edge, lo, hi)])
            assert _typed(v.interval_value(edge, lo, hi)) == _typed(expected)
            legs = (Leg(edge, lo, hi), Leg(edge, hi, lo))
            assert trajectory_value(v, legs) == 2 * expected
        # each edge's total, stored as an integer over the valuation's scale
        assert v.edge_value(edge) == independent.value(val, [(edge, 0, 1)])
        assert F(v.int_totals.get(edge, 0), v.scale) == v.edge_value(edge)
    assert v.total() == independent.value(val, [(e, 0, 1) for e in EDGES])
    assert v.scale == math.lcm(*(v.edge_value(e).denominator for e in v.densities))


def _outcome(sweep, *args):
    """A result with its types, or the raised error's type and message."""
    try:
        found = sweep(*args)
    except InsufficientValue as exc:
        return type(exc), str(exc)
    if isinstance(found, tuple):
        at, _ = found
        return found, type(at.sweep_offset), type(at.position)
    return _typed(found)


@settings(max_examples=200, deadline=None)
@given(walked_valuations(), st.lists(legs(), min_size=1, max_size=3), st.data())
def test_integer_sweeps_match_the_fraction_loops(v, t, data):
    t = tuple(t)
    total = trajectory_value(v, t)
    # stops at breakpoints and leg ends (plateaus start there), points just off
    # them, shares of the whole, more than the whole, negative, and ints
    stops = _prefix_values(v, t)
    exact = stops + [x + F(1, 10007) for x in stops] + [x - F(1, 10007) for x in stops]
    exact += [total * F(data.draw(st.integers(0, 12)), 12), total + F(1, 7), F(-1), 0, 1, -1]
    exact += [total * x for x in data.draw(st.lists(GRID, max_size=3))]
    floats = [float(x) for x in stops] + [float(total) / 3, 0.1, 0.0, -0.5, True]
    for target in exact:
        assert _outcome(cut_with_point, PATH, v, t, target) == _outcome(
            fraction_skip_cut_trajectory, PATH, v, t, target
        )
    for target in floats:
        with pytest.raises(DomainError, match="is not exact"):
            cut_query(PATH, v, t, target)
    for leg in t:
        # the leg's own plateau ends and the targets above
        for budget in exact + _prefix_values(v, (leg,)):
            assert _outcome(latest_position_within, v, leg, budget) == _outcome(
                fraction_latest_position_within, v, leg, budget
            )
        for budget in floats:
            with pytest.raises(DomainError, match="is not exact"):
                latest_position_within(v, leg, budget)


def test_latest_position_within_on_pinned_cases():
    # e0: a leading zero plateau, density 2, an interior plateau, density 2;
    # e1 is its mirror image, so a backward leg on e1 meets the same stretches
    twos = [(0, F(1, 4), 0), (F(1, 4), F(1, 2), 2), (F(1, 2), F(3, 4), 0), (F(3, 4), 1, 2)]
    v = Valuation.from_segments(
        {"e0": twos, "e1": [(1 - hi, 1 - lo, d) for lo, hi, d in reversed(twos)]}
    )
    forward, backward = Leg("e0", F(0), F(1)), Leg("e1", F(1), F(0))
    cases = [
        # zero-length legs: the end, whatever the budget
        (Leg("e0", F(1, 3), F(1, 3)), F(0), F(1, 3)),
        (Leg("e1", F(1, 3), F(1, 3)), F(1), F(1, 3)),
        # a budget equal to the leg's value: the end, past a trailing plateau
        (forward, F(1), F(1)),
        (backward, F(1), F(0)),
        (Leg("e0", F(0), F(3, 4)), F(1, 2), F(3, 4)),
        (Leg("e1", F(1), F(1, 4)), F(1, 2), F(1, 4)),
        # budget 0: the far end of the leading zero plateau
        (forward, F(0), F(1, 4)),
        (backward, F(0), F(3, 4)),
        # a budget that ends on the interior plateau: its far end
        (forward, F(1, 2), F(3, 4)),
        (backward, F(1, 2), F(1, 4)),
        # a budget inside a stretch, and more than the leg is worth
        (forward, F(1, 4), F(3, 8)),
        (backward, F(1, 4), F(5, 8)),
        (forward, F(2), F(1)),
        (backward, F(2), F(0)),
    ]
    for leg, budget, expected in cases:
        assert latest_position_within(v, leg, budget) == expected
        assert fraction_latest_position_within(v, leg, budget) == expected
    assert latest_position_within(v, forward, F(-1, 8)) is None
    assert latest_position_within(v, backward, -1) is None


def test_malformed_legs_are_refused():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    for leg in (Leg("e0", F(-1), F(1)), Leg("e0", F(0), F(3)), Leg("e0", F(3, 2), F(1, 2))):
        for budget in (F(1, 4), F(2), F(-1)):
            with pytest.raises(MalformedPiece, match="outside"):
                latest_position_within(v, leg, budget)
    with pytest.raises(MalformedPiece, match="outside"):
        cut_query(g, v, (Leg("e0", F(0), F(2)),), F(1, 2))
    with pytest.raises(MalformedPiece, match="outside"):
        cut_query(g, v, (Leg("e0", F(0), F(1, 2)), Leg("e0", F(-1, 2), F(0))), F(3, 4))


def test_every_leg_is_checked_before_the_knife_walks():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    log = QueryLog()
    late = (Leg("e0", F(0), F(1, 2)), Leg("e0", F(-1, 2), F(0)))
    for target in (F(1, 4), F(0), F(-1)):
        with pytest.raises(MalformedPiece, match="outside"):
            cut_query(g, v, late, target)
        with pytest.raises(MalformedPiece, match="outside"):
            cut_trajectory(v, (Leg("e0", F(0), F(1)), Leg("e0", F(1), F(2))), target, log)
    assert log.to_json() == {"eval": 0, "cut": 0}


def test_an_empty_trajectory_is_refused():
    g = single_edge_graph()
    v = Valuation.uniform(g)
    log = QueryLog()
    for target in (F(0), F(1, 2), 0, F(-1)):
        with pytest.raises(DomainError, match="at least one leg"):
            cut_query(g, v, (), target)
        with pytest.raises(DomainError, match="at least one leg"):
            cut_trajectory(v, (), target, log)
    assert log.to_json() == {"eval": 0, "cut": 0}


@settings(max_examples=150, deadline=None)
@given(st.lists(valuations(), min_size=1, max_size=3), st.data())
def test_combine_matches_the_midpoint_formula(vals, data):
    weights = [F(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))) for _ in vals]
    assert dict(combine_valuations(vals, weights).densities) == reference_combine(vals, weights)


def _assert_same_totals(combined, eager):
    for edge in EDGES + ["absent"]:
        assert combined.edge_value(edge) == eager.edge_value(edge)
    assert combined.total() == eager.total()
    assert combined.scale == eager.scale
    assert dict(combined.int_totals) == dict(eager.int_totals)


@settings(max_examples=150, deadline=None)
@given(st.lists(valuations(), min_size=1, max_size=3), st.data())
def test_combined_valuation_matches_the_eager_one_before_and_after_reads(vals, data):
    weights = [F(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))) for _ in vals]
    factor = F(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 7)))
    eager = Valuation(reference_combine(vals, weights))
    combined = combine_valuations(vals, weights)
    _assert_same_totals(combined, eager)  # no density read yet
    assert combined.edge_segments("absent") == (Segment(F(0), F(1), F(0)),)
    first = data.draw(st.sampled_from(EDGES))
    assert combined.edge_segments(first) == eager.edge_segments(first)
    _assert_same_totals(combined, eager)  # one edge merged
    assert combined.to_json() == eager.to_json()
    assert dict(combined.densities) == dict(eager.densities)
    _assert_same_totals(combined, eager)  # every edge merged
    for scaled, eager_scaled in (
        (combine_valuations(vals, weights).scaled(factor), eager.scaled(factor)),
        (combined.scaled(factor), eager.scaled(factor)),
    ):
        assert dict(scaled.densities) == dict(eager_scaled.densities)
        _assert_same_totals(scaled, eager_scaled)
    with pytest.raises(TypeError):
        combined.densities[first] = (Segment(F(0), F(1), F(2)),)


def plateau_valuation():
    """Density 2 on [0, 1/4], 0 on [1/4, 1/2] and 1 on [1/2, 1]."""
    return Valuation.from_segments({"e0": [(0, F(1, 4), 2), (F(1, 4), HALF, 0), (HALF, 1, 1)]})


def test_valuation_refuses_a_gap_between_segments():
    with pytest.raises(MalformedInput, match="contiguous"):
        Valuation({"e0": (Segment(F(0), F(1, 4), F(2)), Segment(F(1, 2), F(1), F(1)))})


@settings(max_examples=100, deadline=None)
@given(valuations(), st.integers(0, 5), st.integers(1, 7))
def test_scaled_totals_match_the_scaled_segments(v, num, den):
    scaled = v.scaled(F(num, den))
    for edge in EDGES + ["absent"]:
        assert scaled.edge_value(edge) == independent.value(independent.valuation(scaled.to_json()), [(edge, 0, 1)])
        assert F(scaled.int_totals.get(edge, 0), scaled.scale) == scaled.edge_value(edge)
    assert scaled.scale == math.lcm(*(scaled.edge_value(e).denominator for e in EDGES))


@settings(max_examples=150, deadline=None)
@given(valuations())
@example(plateau_valuation())
def test_summed_totals_match_the_clipped_walk(v):
    walked = {e: F(*_integrate(_clip(v, e, F(0), F(1)))) for e in v.densities}
    assert {e: F(x, v.scale) for e, x in v.int_totals.items()} == walked
    assert v.scale == math.lcm(*(x.denominator for x in walked.values()))


def test_segments_have_no_instance_dict():
    assert not hasattr(Segment(F(0), F(1), F(1)), "__dict__")


@settings(max_examples=150, deadline=None)
@given(valuations(), st.integers(0, 10**30), st.integers(1, 10**30))
@example(plateau_valuation(), 1, 3**60)
def test_scaled_integer_segments_match_the_fraction_products(v, num, den):
    factor = F(num, den)
    scaled = v.scaled(factor)
    for e, segs in v.densities.items():
        assert scaled.densities[e] == tuple(Segment(s.lo, s.hi, s.density * factor) for s in segs)
    assert scaled.to_json() == {
        e: [[format_fraction(s.lo), format_fraction(s.density * factor)] for s in segs]
        for e, segs in sorted(v.densities.items())
    }


def _number_forms(x):
    """The same number as a Fraction, a reduced and an unreduced ``"p/q"``
    string, and an int when it is one."""
    forms = [x, f"{x.numerator}/{x.denominator}", f"{-3 * x.numerator}/{-3 * x.denominator}"]
    return forms + [x.numerator] if x.denominator == 1 else forms


@settings(max_examples=100, deadline=None)
@given(valuations(), st.integers(1, 10**12))
def test_segments_built_from_any_number_form_equal_the_readers(v, den):
    read = Valuation.from_json(v.scaled(F(1, den)).to_json())
    for segs in read.densities.values():
        for s in segs:
            assert type(s) is Segment and len(s) == 6
            assert all(type(x) is int for x in s)
            for lo, hi, density in zip(*map(_number_forms, (s.lo, s.hi, s.density))):
                built = Segment(lo, hi, density)
                assert built == s and hash(built) == hash(s)
                assert (built.lo, built.hi, built.density) == (s.lo, s.hi, s.density)


def test_segments_copy_and_print_as_their_fractions():
    s = Segment(F(1, 4), "3/4", 2)
    assert tuple(s) == (1, 4, 3, 4, 2, 1)
    assert copy.copy(s) == pickle.loads(pickle.dumps(s)) == s
    assert repr(s) == "Segment(Fraction(1, 4), Fraction(3, 4), Fraction(2, 1))"
    for bad in (0.25, True, None):
        with pytest.raises(MalformedInput):
            Segment(bad, 1, 1)


def test_valuations_are_read_only():
    source = {"e0": (Segment(F(0), F(1), F(1)),)}
    v = Valuation(source)
    with pytest.raises(TypeError):
        v.densities["e0"] = (Segment(F(0), F(1), F(2)),)
    with pytest.raises(TypeError):
        v.int_totals["e0"] = 2
    source["e0"] = (Segment(F(0), F(1), F(2)),)
    assert v.edge_value("e0") == 1 and v.interval_value("e0", F(0), F(1)) == 1



def edge_worth(value):
    return Valuation.from_edge_values({"e0": value})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Valuation.from_segments({"e0": []}), "must partition"),
        (lambda: Valuation.from_segments({"e0": [(0, HALF, 1), (F(3, 4), 1, 1)]}), "contiguous"),
        (
            lambda: Valuation.from_segments({"e0": [(0, HALF, 1), (HALF, HALF, 1), (HALF, 1, 1)]}),
            "strictly increasing",
        ),
        (lambda: Valuation.from_segments({"e0": [(0, 1, -1)]}), "nonnegative"),
        (lambda: Valuation.from_edge_values({"e0": -1, "e1": 2}), "nonnegative"),
        (lambda: Valuation.from_edge_values({"e0": F(-1, 2), "e1": 0}), "nonnegative"),
        (lambda: Valuation.from_edge_values({"e0": 0.1, "e1": F(9, 10)}), "is not a rational number"),
        (lambda: Valuation.from_edge_values({"e0": True}), "is not a rational number"),
        (lambda: Valuation.from_edge_values({"e0": None}), "is not a rational number"),
        (lambda: Valuation.from_json({"e0": [["1/2", "1"]]}), "must start at 0"),
        (lambda: Valuation.from_json({"e0": [["0", True]]}), "is not a rational number"),
        (lambda: Instance(single_edge_graph(), (edge_worth(1),), "pie"), "unknown mode"),
        (lambda: Instance(single_edge_graph(), (edge_worth(2),)), "integrates to 2"),
        (lambda: Valuation({"e0": ()}), "must partition"),
        (lambda: Valuation({"e0": (Segment(F(1, 4), 1, 1),)}), "must partition"),
        (lambda: Valuation({"e0": (Segment(0, F(3, 4), 1),)}), "must partition"),
        (lambda: Valuation({"e0": (Segment(0, HALF, 1), Segment(F(3, 4), 1, 1))}), "contiguous"),
        (lambda: Valuation({"e0": (Segment(0, HALF, 1), Segment(F(1, 4), 1, 1))}), "contiguous"),
        (
            lambda: Valuation({"e0": (Segment(0, HALF, 1), Segment(HALF, HALF, 1), Segment(HALF, 1, 1))}),
            "strictly increasing",
        ),
        (
            lambda: Valuation({"e0": (Segment(0, HALF, 1), Segment(HALF, F(1, 4), 1), Segment(F(1, 4), 1, 1))}),
            "strictly increasing",
        ),
        (lambda: Valuation({"e0": (Segment(0, 1, -1),)}), "nonnegative"),
        (
            # integrates to 1, so only the sign check stands between it and an instance
            lambda: Valuation({"e0": (Segment(0, HALF, 3), Segment(HALF, 1, -1)), "e1": (Segment(0, 1, 0),)}),
            "nonnegative",
        ),
        (lambda: Valuation.from_json({"e0": [["0", "1"], ["1/2", "1"], ["1/4", "1"]]}), "strictly increasing"),
        (lambda: Valuation.from_json({"e0": [["0", "1"], ["1", "1"]]}), "strictly increasing"),
        (lambda: Valuation.from_json({"e0": [["0", "-1/3"]]}), "nonnegative"),
    ],
    ids=[
        "empty",
        "gap",
        "repeated-breakpoint",
        "negative",
        "negative-edge-value",
        "negative-fraction-edge-value",
        "float-edge-value",
        "bool-edge-value",
        "none-edge-value",
        "start",
        "bool-density",
        "mode",
        "not-normalized",
        "constructor-empty",
        "constructor-start",
        "constructor-end",
        "constructor-gap",
        "constructor-overlap",
        "constructor-zero-length",
        "constructor-backward",
        "constructor-negative",
        "constructor-negative-normalized",
        "json-backward",
        "json-start-at-1",
        "json-negative",
    ],
)
def test_malformed_valuations_raise_malformed_input(build, message):
    with pytest.raises(MalformedInput, match=message):
        build()


def _two_halves():
    """Uniform density 2 on one half of ``e0`` each."""
    return (
        Valuation.from_segments({"e0": [(0, HALF, 2), (HALF, 1, 0)]}),
        Valuation.from_segments({"e0": [(0, HALF, 0), (HALF, 1, 2)]}),
    )


def test_negative_factors_and_weights_are_refused():
    u, w = _two_halves()
    for factor in (F(-1, 2), -1):
        with pytest.raises(DomainError, match="negative"):
            u.scaled(factor)
    with pytest.raises(DomainError, match="is not exact"):
        u.scaled(0.5)
    # a weighted sum that would integrate to 1 with a negative density on [1/2, 1]
    for weights in ([2, -1], [F(3, 2), F(-1, 2)]):
        with pytest.raises(DomainError, match="negative"):
            combine_valuations([u, w], weights)


@pytest.mark.parametrize(
    "count, weights, message",
    [
        (2, [HALF], "one weight per valuation, got 1 for 2"),
        (1, [HALF, HALF], "one weight per valuation, got 2 for 1"),
        (0, [], "at least one valuation"),
        (2, [0.5, 0.5], "is not exact"),
        (2, [True, 1], "is not exact"),
        (2, ["1/2", "1/2"], "is not exact"),
    ],
    ids=["short", "long", "empty", "float", "bool", "string"],
)
def test_combine_refuses_a_weight_list_that_does_not_fit(count, weights, message):
    with pytest.raises(DomainError, match=message):
        combine_valuations(list(_two_halves())[:count], weights)


def test_exact_nonnegative_weights_and_factors_are_taken():
    u, w = _two_halves()
    assert combine_valuations([u, w], [HALF, 1]).total() == F(3, 2)
    assert combine_valuations([u, w], [0, F(1, 3)]).edge_value("e0") == F(1, 3)
    assert u.scaled(0).total() == 0 and u.scaled(3).total() == 3


def test_segment_numbers_are_read_exactly():
    read = Valuation.from_segments({"e0": [("0", " 2/4 ", "-1/-5"), (HALF, 1, F(9, 5))]})
    assert read.densities["e0"] == (Segment(F(0), HALF, F(1, 5)), Segment(HALF, F(1), F(9, 5)))
    assert read.is_normalized()


@pytest.mark.parametrize(
    "segment", [(0, 0.5, 1), (0, 1, 1.0), (0, 1, True), (False, 1, 1), ("0", "1", "0.5"), (0, 1, None)]
)
def test_segment_numbers_that_are_not_exact_are_refused(segment):
    with pytest.raises(MalformedInput, match="is not a rational number p/q"):
        Valuation.from_segments({"e0": [segment]})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Valuation({"e0": [(0, 1, 1)]}), "a segment is a Segment: six integers"),
        (lambda: Valuation({"e0": [(0, 1, 1, 1, 1, 1, 1)]}), "a segment is a Segment: six integers"),
        (lambda: Valuation({"e0": [5]}), "a segment is a Segment: six integers"),
        (lambda: Valuation.from_segments({"e0": [(0, 1)]}), r"a segment is a \(start, end, density\) triple"),
        (lambda: Valuation.from_segments({"e0": [(0, 1, 1, 1)]}), r"\(start, end, density\) triple"),
        (lambda: Valuation.from_segments({"e0": [5]}), r"\(start, end, density\) triple"),
    ],
    ids=["triple", "seven", "int", "pair", "quadruple", "int-triple"],
)
def test_a_segment_of_the_wrong_shape_raises_malformed_input(build, message):
    with pytest.raises(MalformedInput, match=message):
        build()
