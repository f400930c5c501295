import functools
import json
import math
import operator
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcake.allocation import Allocation, verify_allocation
from graphcake.errors import (
    AlphaOutOfRange,
    BadParameters,
    DisconnectedPiece,
    DomainError,
    InsufficientValue,
    MalformedInput,
    NotAStar,
    NotHeightTwoTree,
    LabelingNotContiguous,
    ProtocolInvariantError,
    TooManyAgents,
)
from graphcake import protocols
from graphcake.fixtures import (
    FixtureSpec,
    _random_arbitrary,
    _random_cycle_augmented,
    _random_tree,
    _uniform_star,
    build_fixture,
    random_instance,
    random_valuations,
)
from graphcake.graph_core import (
    ONE,
    ZERO,
    CakeGraph,
    Interval,
    OrientedLabeling,
    Piece,
    canonical_point,
    compute_contiguous_labeling,
    exact_fraction,
    is_contiguous,
    is_whole,
    piece_is_connected,
)
from graphcake.protocols import (
    MULTI2_MAX_K,
    PROTOCOL_NAMES,
    PROTOCOLS,
    _RootedTree,
    _extract,
    _knife_race,
    _path_tree,
    _sweep,
    applies,
    chore_three,
    chore_two,
    chore_upto5,
    connected_egalitarian,
    equitable_two,
    extract_piece,
    f_guarantee,
    guarantee_violations,
    height2_two_piece_proportional,
    multi_piece_two,
    proportional_two_connected,
    run_protocol,
    star_egalitarian,
    two_agent_best,
    two_agent_fixed,
    two_agent_flexible,
)
from graphcake.valuation import (
    Instance,
    Leg,
    QueryLog,
    Valuation,
    combine_valuations,
    cut_trajectory,
    value_of_piece,
)

from conftest import (
    cycle_graph,
    ear_graph,
    edge_piece,
    measure,
    mixed_graph,
    path_graph,
    prefix_piece,
    reference_difference,
    reference_union,
    single_edge_graph,
    star_graph,
    trajectory_value,
    tree_fields,
    tree_graph,
    triangle,
    uniform_instance,
)

F = Fraction


# -- extraction -----------------------------------------------------------------


def test_extract_single_edge_trace():
    inst = uniform_instance(single_edge_graph(), 2)
    piece, winner, rem = extract_piece(inst, inst.graph.whole_piece(), F(1, 3))
    assert winner == 0
    assert piece.intervals == (Interval("e0", F(2, 3), F(1)),)
    assert rem.intervals == (Interval("e0", F(0), F(2, 3)),)
    assert value_of_piece(inst.agents[1], piece) == F(1, 3)


def test_extract_full_value_takes_everything():
    inst = uniform_instance(single_edge_graph(), 1)
    piece, winner, rem = extract_piece(inst, inst.graph.whole_piece(), F(1))
    assert piece.intervals == inst.graph.whole_piece().intervals
    assert rem.is_empty()


def test_extract_star_pulls_one_edge():
    inst = uniform_instance(star_graph(3), 2)
    piece, winner, rem = extract_piece(inst, inst.graph.whole_piece(), F(1, 3))
    assert piece == edge_piece("e0")
    assert rem == edge_piece("e1", "e2")


def test_extract_insufficient_value():
    inst = uniform_instance(single_edge_graph(), 2)
    sub = Piece.of([Interval("e0", F(0), F(1, 4))])
    with pytest.raises(InsufficientValue):
        extract_piece(inst, sub, F(1, 2))


def test_extract_alpha_zero_gives_empty_piece():
    inst = uniform_instance(star_graph(3), 2)
    piece, winner, rem = extract_piece(inst, inst.graph.whole_piece(), F(0))
    assert piece.is_empty() and winner == 0
    assert rem == inst.graph.whole_piece()


def test_extract_postconditions_on_random_draws():
    rng = random.Random(2024)
    families = ("tree", "star", "cycle-augmented", "arbitrary")
    for trial in range(200):
        inst = random_instance(
            seed=trial,
            n=rng.randint(1, 4),
            family=families[trial % 4],
            edges=rng.randint(1, 8),
        )
        alpha = F(rng.randint(0, 4), 12)
        region = inst.graph.whole_piece()
        piece, winner, rem = extract_piece(inst, region, alpha)
        _check_extraction(inst, region, alpha, piece, winner, rem)
        # the remainder is a region with a cut point (and cycles on the cycle families)
        again = min(value_of_piece(val, rem) for val in inst.agents) * F(1 + trial % 3, 4)
        piece2, winner2, rem2 = extract_piece(inst, rem, again)
        _check_extraction(inst, rem, again, piece2, winner2, rem2)


def _check_extraction(inst, region, alpha, piece, winner, rem):
    g = inst.graph
    assert piece_is_connected(g, piece)
    assert piece_is_connected(g, rem)
    assert reference_union(piece, rem) == region.intervals
    assert measure(piece) + measure(rem) == measure(region)
    assert value_of_piece(inst.agents[winner], piece) >= alpha
    for a, val in enumerate(inst.agents):
        if a != winner:
            assert value_of_piece(val, piece) <= 2 * alpha


def test_extract_rejects_disconnected_regions_and_no_agents():
    inst = uniform_instance(single_edge_graph(), 2)
    split = Piece.of([Interval("e0", F(0), F(1, 4)), Interval("e0", F(1, 2), F(1))])
    with pytest.raises(DisconnectedPiece):
        extract_piece(inst, split, F(1, 8))
    with pytest.raises(DomainError, match="at least one eligible agent"):
        extract_piece(inst, inst.graph.whole_piece(), F(1, 3), eligible=[])


def test_extract_piece_rejects_agents_outside_the_instance():
    # -1 would pick the last agent through negative indexing, and 5 would fail
    # with an IndexError deep in the extraction
    inst = random_instance(3, n=3)
    region = inst.graph.whole_piece()
    for eligible in ([-1], [5], [3], [0, 3], [True], [F(1)], [1.0], ["0"]):
        with pytest.raises(DomainError, match="is not one of the 3 agents"):
            extract_piece(inst, region, F(1, 5), eligible=eligible)
    assert extract_piece(inst, region, F(1, 5), eligible=[2])[1] == 2


def _extraction_outcome(inst, region, alpha):
    log = QueryLog()
    try:
        piece, winner, rem = extract_piece(inst, region, alpha, log=log)
    except (DisconnectedPiece, InsufficientValue) as exc:
        return type(exc).__name__, str(exc), log.to_json()
    return piece, winner, rem, log.to_json()


def test_extract_checks_values_before_connectivity():
    # the values are checked, and a zero need met, before the region must be connected
    inst = uniform_instance(path_graph(3), 2)
    split = edge_piece("e0", "e2")
    assert _extraction_outcome(inst, split, F(0)) == (
        Piece.empty(), 0, split, {"eval": 2, "cut": 0}
    )
    assert _extraction_outcome(inst, split, F(9, 10)) == (
        "InsufficientValue", "agent 0 values the piece below 9/10", {"eval": 1, "cut": 0}
    )
    assert _extraction_outcome(inst, split, F(1, 3)) == (
        "DisconnectedPiece", "piece is not connected", {"eval": 2, "cut": 0}
    )
    empty = Piece.empty()
    assert _extraction_outcome(inst, empty, F(0)) == (empty, 0, empty, {"eval": 2, "cut": 0})
    assert _extraction_outcome(inst, empty, F(1, 3)) == (
        "InsufficientValue", "agent 0 values the piece below 1/3", {"eval": 1, "cut": 0}
    )


def test_egalitarian_sums_each_region_once_per_distinct_valuation(monkeypatch):
    rng = random.Random(14)
    g = _random_tree(rng, 60)
    vals = random_valuations(rng, g, 10)
    inst = Instance(g, vals + vals[:6])  # sixteen agents, ten distinct valuations
    reads, sums, levels, built = [], [], [], []
    real_value_of_piece, real_sum, real_split, real_init = (
        protocols.value_of_piece, _RootedTree._sum, protocols._split, _RootedTree.__init__
    )

    def value_of_piece_read(*args, **kwargs):
        reads.append(args)
        return real_value_of_piece(*args, **kwargs)

    def summed(rt, val):
        sums.append((rt, val))
        return real_sum(rt, val)

    def split_level(vals, need, log, rt):
        levels.append((rt, {vals[a] for a in need}))
        return real_split(vals, need, log, rt)

    def build(rt, *args, **kwargs):
        built.append(rt)
        real_init(rt, *args, **kwargs)

    monkeypatch.setattr(protocols, "value_of_piece", value_of_piece_read)
    monkeypatch.setattr(_RootedTree, "_sum", summed)
    monkeypatch.setattr(protocols, "_split", split_level)
    monkeypatch.setattr(_RootedTree, "__init__", build)
    res = connected_egalitarian(inst)
    assert reads == []
    assert len(levels) == 15
    # One tree serves the whole recursion: a tree region never needs a fresh
    # build, so every later level works on the first level's tree, pruned.
    # That tree is the solve's handle on the one build, the tree the graph keeps.
    first, distinct = levels[0]
    assert len(built) == 1 and first is not built[0]
    assert all(rt is first for rt, _ in levels)
    # each distinct valuation is summed once per recursion, at the first level
    assert len(sums) == len(distinct) == 10
    assert {val for _, val in sums} == distinct and all(rt is first for rt, _ in sums)
    # the query counts of the Fraction-valued extraction
    assert res.queries.to_json() == {"eval": 6997, "cut": 22}


def test_internal_checks_raise_instead_of_asserting():
    g = star_graph(3)
    with pytest.raises(ProtocolInvariantError):
        _sweep(_path_tree(g, g.whole_piece()))
    with pytest.raises(ProtocolInvariantError):
        _knife_race([], (), {}, QueryLog())


# -- integer extraction against the Fraction reference ----------------------------


def reference_value_of_piece(v, p, log=None):
    """The Fraction sum over the piece's intervals (test-only reference)."""
    if log is not None:
        log.eval_count += 1
    return sum((v.interval_value(iv.edge, iv.lo, iv.hi) for iv in p.intervals), F(0))


def reference_subtree_values(rt, val):
    """The bottom-up pass in Fractions, one trajectory value per leg (test-only reference)."""
    below, branch = [F(0)] * len(rt.parent), [F(0)] * len(rt.parent)
    for v in reversed(range(len(rt.parent))):
        for w in rt.children[v]:
            branch[w] = trajectory_value(val, (rt.leg(w),)) + below[w]
        below[v] = sum((branch[w] for w in rt.children[v]), F(0))
    return below, branch


def reference_branches(rt, tops):
    """The intervals of the branches of ``tops``: each one's link and the
    subtree below it (test-only walk)."""
    intervals, stack = [], list(tops)
    while stack:
        w = stack.pop()
        intervals.append(rt.intervals[rt.position[w]])
        stack.extend(rt.children[w])
    return intervals


def reference_extract(g, vals, region, need, log):
    """The extraction in Fractions, with one tree pass per agent (test-only reference)."""
    eligible = sorted(need)
    for a in eligible:
        if reference_value_of_piece(vals[a], region, log) < need[a]:
            raise InsufficientValue(f"agent {a} values the piece below {need[a]}")
    satisfied = [a for a in eligible if need[a] == 0]
    if satisfied:
        return Piece.empty(), satisfied[0], region
    rt = _RootedTree(g, region.intervals)
    stv, branch = {}, {}
    for a in eligible:
        stv[a], branch[a] = reference_subtree_values(rt, vals[a])
    log.eval_count += len(region.intervals) * len(eligible)
    v = rt.lowest(lambda child: any(stv[a][child] >= need[a] for a in eligible))
    chosen = next(
        (c for c in rt.children[v] if any(branch[a][c] >= need[a] for a in eligible)), None
    )
    if chosen is not None:
        leg = rt.leg(chosen)
        targets = {a: need[a] - stv[a][chosen] for a in eligible if branch[a][chosen] >= need[a]}
        best = None
        for a in sorted(targets):
            cut = cut_trajectory(vals[a], (leg,), targets[a], log)
            if best is None or cut.sweep_offset < best[1].sweep_offset:
                best = (a, cut)
        winner, cut = best
        below = Piece.of(reference_branches(rt, rt.children[chosen]))
        piece = Piece(reference_union(below, prefix_piece((leg,), cut)))
    else:
        piece, acc = Piece.empty(), {a: F(0) for a in eligible}
        crossers = []
        for child in rt.children[v]:
            piece = Piece(reference_union(piece, Piece.of(reference_branches(rt, [child]))))
            for a in eligible:
                acc[a] += branch[a][child]
            crossers = [a for a in eligible if acc[a] >= need[a]]
            if crossers:
                break
        winner = crossers[0]
    return piece, winner, Piece(reference_difference(region, piece))


@st.composite
def regions_with_cut_points(draw):
    """Random tree or cycle-augmented instances with 1-4 segments per edge, their
    valuations scaled off 1, and a region left by one to three extractions."""
    inst = random_instance(
        seed=draw(st.integers(0, 10**6)),
        n=draw(st.integers(2, 3)),
        family=draw(st.sampled_from(["tree", "cycle-augmented"])),
        edges=draw(st.integers(1, 12)),
        max_segments=4,
    )
    vals = [
        v.scaled(F(draw(st.integers(1, 50)), draw(st.integers(1, 97)))) for v in inst.agents
    ]
    region = inst.graph.whole_piece()
    for _ in range(draw(st.integers(1, 3))):
        alpha = F(draw(st.integers(1, 11)), 12)
        need = {a: alpha * value_of_piece(v, region) for a, v in enumerate(vals)}
        piece, _, rem = _extract(inst.graph, vals, region, need, QueryLog())
        nxt = piece if draw(st.booleans()) else rem
        if nxt.is_empty():
            break
        region = nxt
    return inst.graph, vals, region


def reference_split(rt, region, tops, stop):
    """The taken piece sorted and merged by ``Piece.of`` and the rest by the
    reference set difference, as extractions parted a region before
    ``_RootedTree.split`` (test-only reference)."""
    if stop is None:
        taken = Piece.of(reference_branches(rt, tops))
    else:
        leg = rt.leg(tops[0])
        swept = Interval(leg.edge, min(leg.start, stop), max(leg.start, stop))
        taken = Piece.of(reference_branches(rt, rt.children[tops[0]]) + [swept])
    return taken, Piece(reference_difference(region, taken))


def _draw_split(data, rt):
    """Branches of one node to take: a few of its children, or one child with
    a knife stop at either end of its leg or between."""
    v = data.draw(st.sampled_from([u for u, kids in enumerate(rt.children) if kids]))
    kids = rt.children[v]
    if data.draw(st.booleans()):
        tops = data.draw(st.lists(st.sampled_from(kids), min_size=1, unique=True))
        return sorted(tops, key=kids.index), None
    w = data.draw(st.sampled_from(kids))
    leg = rt.leg(w)
    step = F(data.draw(st.integers(0, 12)), 12)
    return [w], leg.start + (leg.end - leg.start) * step


@settings(max_examples=150, deadline=None)
@given(regions_with_cut_points(), st.data())
def test_split_matches_sorting_and_set_difference(drawn, data):
    g, vals, region = drawn
    # a region tree in piece order, and chore5's first-level tree of the whole
    # graph in stored edge order, each followed through up to three prunings
    trees = [(_RootedTree(g, region.intervals), region), (protocols._kept_tree(g, None, True), g.whole_piece())]
    for rt, part in trees:
        for _ in range(data.draw(st.integers(1, 3))):
            tops, stop = _draw_split(data, rt)
            taken, rest = rt.split(tops, stop)
            expected = reference_split(rt, part, tops, stop)
            assert (taken.intervals, rest.intervals) == (expected[0].intervals, expected[1].intervals)
            for p in (taken, rest):
                assert Piece.of(p.intervals).intervals == p.intervals
            if not rest.intervals:
                break
            rt, part = rt.remainder(g, tops, stop, rest, set(vals)), rest
            if not any(rt.children):
                break


def _outcome(extract, g, vals, region, need):
    log = QueryLog()
    try:
        piece, winner, rem = extract(g, vals, region, need, log)
    except InsufficientValue as exc:
        return str(exc), log.to_json()
    return piece, winner, rem, log.to_json()


@settings(max_examples=150, deadline=None)
@given(regions_with_cut_points(), st.data())
def test_integer_extraction_matches_the_fraction_reference(drawn, data):
    g, vals, region = drawn
    rt = _RootedTree(g, region.intervals)
    ref = {}
    for v in vals:
        assert value_of_piece(v, region) == reference_value_of_piece(v, region)
        below, branch, scale = rt.subtree_values(v)
        ref[v] = reference_subtree_values(rt, v)
        assert scale % v.scale == 0
        assert [F(x, scale) for x in below] == ref[v][0]
        assert [F(x, scale) for x in branch[1:]] == ref[v][1][1:]
        assert F(below[0], scale) == value_of_piece(v, region)
    # Needs at a share of the region, or exactly at the value of a node's first
    # few branches together, where ties decide both the descent and the accumulation.
    inner = [u for u, kids in enumerate(rt.children) if kids]
    for shared in (False, True):
        agents = [vals[0], vals[0]] if shared else vals[:2]
        need = {}
        for a, v in enumerate(agents):
            if inner and data.draw(st.booleans()):
                kids = rt.children[data.draw(st.sampled_from(inner))]
                first = kids[: data.draw(st.integers(1, len(kids)))]
                need[a] = sum((ref[v][1][c] for c in first), F(0))
            else:
                need[a] = F(data.draw(st.integers(1, 12)), 12) * ref[v][0][0]
        assert _outcome(_extract, g, agents, region, need) == _outcome(
            reference_extract, g, agents, region, need
        )


def test_extract_refuses_a_float_need():
    # on the uniform path every edge is worth 1/10, just below the float 0.1; a
    # need is compared exactly, so only an exact need is taken
    for inst in (random_instance(3, n=2, family="tree", edges=6), uniform_instance(path_graph(10), 2)):
        region = inst.graph.whole_piece()
        for alpha in (0.25, 0.1, 1 / 3, 0.3, True):
            with pytest.raises(DomainError, match="is not exact"):
                _extract(inst.graph, inst.agents, region, {0: F(1, 4), 1: alpha}, QueryLog())
            with pytest.raises(DomainError, match="is not exact"):
                extract_piece(inst, region, alpha)
        for alpha in (F(1, 4), F(1, 10), F(1, 3), F(3, 10), 0, 1):
            need = {0: alpha, 1: alpha}
            assert _outcome(_extract, inst.graph, inst.agents, region, need) == _outcome(
                reference_extract, inst.graph, inst.agents, region, need
            )


# -- one descent for extraction and chore division ---------------------------------


def reference_cut_site(rt, agents, below, branch, crosses):
    """The descent as extraction and chore division each wrote it before they
    shared ``cut_site``: ``lowest`` on the subtree sums, then the first child
    whose branch crosses, then whole branches accumulated until they cross
    (test-only reference).  ``crosses`` takes one value per agent by agent."""
    v = rt.lowest(lambda child: crosses({a: below[a][child] for a in agents}))
    w = next((c for c in rt.children[v] if crosses({a: branch[a][c] for a in agents})), None)
    if w is not None:
        return [w], None
    taken, acc = [], {a: 0 for a in agents}
    for child in rt.children[v]:
        taken.append(child)
        for a in agents:
            acc[a] += branch[a][child]
        if crosses(acc):
            return taken, [acc[a] for a in agents]
    raise AssertionError("branch accumulation never crossed")


def test_extraction_and_chore_division_descend_as_before(monkeypatch):
    # what each caller of cut_site works on, innermost last
    callers, seen = [], Counter()
    real_split, real_chore_rec, real_cut_site = protocols._split, protocols._chore_rec, _RootedTree.cut_site

    def split(vals, need, log, rt):
        callers.append(("split", vals, need))
        out = real_split(vals, need, log, rt)
        callers.pop()
        return out

    def chore_rec(g, vals, agents, region, pieces, log, rt=None):
        callers.append(("chore", vals, list(agents)))
        real_chore_rec(g, vals, agents, region, pieces, log, rt)
        callers.pop()

    def cut_site(rt, branch, subtree_crosses, crosses):
        kind, vals, context = callers[-1]
        if kind == "split":
            agents = sorted(context)
            sums = {a: rt.subtree_values(vals[a]) for a in agents}
            least = {a: math.ceil(context[a] * sums[a][2]) for a in agents}

            def crossing(values):
                return any(values[a] >= least[a] for a in agents)

        else:
            agents = context
            sums = {a: rt.subtree_values(vals[a]) for a in agents}

            def crossing(values):
                shares = sorted(F(values[a], sums[a][0][0]) for a in agents)
                return not all(map(operator.le, shares, protocols._cond1_thresholds(len(agents))))

        below, branches = {a: sums[a][0] for a in agents}, {a: sums[a][1] for a in agents}
        assert branch == [branches[a] for a in agents]
        got = real_cut_site(rt, branch, subtree_crosses, crosses)
        assert got == reference_cut_site(rt, agents, below, branches, crossing)
        seen[kind, "knife" if got[1] is None else "branches"] += 1
        return got

    monkeypatch.setattr(protocols, "_split", split)
    monkeypatch.setattr(protocols, "_chore_rec", chore_rec)
    monkeypatch.setattr(_RootedTree, "cut_site", cut_site)
    rng = random.Random(34)
    for seed in range(24):
        for build in (_random_tree, _random_cycle_augmented):
            g = build(rng, rng.randint(3, 30))
            n = 3 + seed % 3
            runs = [("egal", Instance(g, random_valuations(rng, g, n)))]
            runs.append(("fixed2", Instance(g, random_valuations(rng, g, 2))))
            runs.append(("chore3", Instance(g, random_valuations(rng, g, 3), "chore")))
            runs.append(("chore5", Instance(g, random_valuations(rng, g, n), "chore")))
            for name, inst in runs:
                res = run_protocol(name, inst)
                rep = verify_allocation(inst, res.allocation)
                assert guarantee_violations(name, inst, rep) == [], (name, seed)
    assert callers == []
    assert set(seen) == {(kind, case) for kind in ("split", "chore") for case in ("knife", "branches")}, seen


# -- connected egalitarian --------------------------------------------------------


def test_egal_one_agent_gets_everything():
    inst = uniform_instance(triangle(), 1)
    res = connected_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(1),)


def test_egal_needs_an_agent():
    inst = Instance(triangle(), ())
    with pytest.raises(DomainError, match="at least one agent"):
        connected_egalitarian(inst)


def test_egal_single_edge_two_agents():
    inst = uniform_instance(single_edge_graph(), 2)
    res = connected_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(1, 3), F(2, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_egal_tight_star_is_exact(n):
    inst = build_fixture(FixtureSpec("star_tight", {"n": n}))
    res = connected_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and rep.disjoint and rep.all_connected
    assert rep.egalitarian == F(1, 2 * n - 1)


def test_egal_contract_on_random_instances():
    for seed in range(60):
        n = 2 + seed % 4
        inst = random_instance(seed, n=n, family=("tree", "arbitrary")[seed % 2], edges=6)
        res = connected_egalitarian(inst)
        rep = verify_allocation(inst, res.allocation)
        assert rep.complete and rep.disjoint and rep.all_connected
        assert rep.egalitarian >= F(1, 2 * n - 1)
        assert res.queries.cut_count >= 0 and res.queries.eval_count > 0


# -- one region tree per egalitarian recursion --------------------------------------


def _checking_remainder(monkeypatch):
    """Make every pruned tree face a fresh build of its region; returns the
    counts of pruned trees and of fresh builds the pruning fell back to."""
    counts = {"pruned": 0, "fresh": 0}
    real = _RootedTree.remainder

    def remainder(rt, g, tops, stop, rest, needed):
        held = [val for val in rt._values if val in needed]
        out = real(rt, g, tops, stop, rest, needed)
        assert all(val in held for val in out._values)
        fresh = _RootedTree(g, rest.intervals)
        assert out.intervals == rest.intervals
        # tree_fields compares every node's leg, read through its position
        assert tree_fields(out, held) == tree_fields(fresh, held)
        assert list(out.position) == list(fresh.position)
        for val in held:
            # a kept scale may be larger than a fresh build's least one
            assert out.subtree_values(val)[2] % fresh.subtree_values(val)[2] == 0
        counts["pruned" if out is rt else "fresh"] += 1
        return out

    monkeypatch.setattr(_RootedTree, "remainder", remainder)
    return counts


def test_pruned_tree_equals_a_fresh_build(monkeypatch):
    counts = _checking_remainder(monkeypatch)
    larger = {
        "tree": _random_tree,
        "star": lambda rng, m: star_graph(m),
        "cycle-augmented": _random_cycle_augmented,
        "arbitrary": _random_arbitrary,
    }
    for family, build in larger.items():
        for seed in range(40):
            rng = random.Random(seed)
            n, m = rng.randint(2, 8), rng.randint(1, 12)
            inst = random_instance(seed, n=n, family=family, edges=m)
            connected_egalitarian(inst)
            if family == "star" and inst.graph.m >= 3:
                star_egalitarian(inst)
        for seed in range(4):
            rng = random.Random(seed)
            g = build(rng, 40)
            connected_egalitarian(Instance(g, random_valuations(rng, g, 12)))
        # Trees and stars always prune.  Cycles prune too, keeping their loose
        # links, and fall back to a fresh build where a loose link would reattach.
        assert counts["pruned"] > 0, family
        assert (counts["fresh"] > 0) == (family in ("cycle-augmented", "arbitrary")), family
        counts.update(pruned=0, fresh=0)
    # uniform values, where a knife stops exactly at the node above its leg
    for n in (2, 3, 4):
        connected_egalitarian(build_fixture(FixtureSpec("star_tight", {"n": n})))
        connected_egalitarian(uniform_instance(path_graph(5), n))
    assert counts["pruned"] > 0 and counts["fresh"] == 0


def reference_egalitarian(g, vals, agents, region, pieces, log):
    """The egalitarian recursion with a fresh tree and fresh sums at every level
    (test-only reference)."""
    agents = list(agents)
    while len(agents) > 1:
        rt = _RootedTree(g, region.intervals)
        share = F(1, 2 * len(agents) - 1)
        need = {a: share * rt.value(vals[a]) for a in agents}
        piece, winner, region = _extract(g, vals, region, need, log, rt)
        pieces[winner] = piece
        agents.remove(winner)
    pieces[agents[0]] = region


def test_egalitarian_matches_the_per_level_rebuild(monkeypatch):
    rng = random.Random(19)
    cases = [("egal", _random_tree(rng, m), n) for m, n in ((12, 4), (60, 9), (200, 16))]
    for n in range(3, 7):
        cases += [("star", star_graph(k), n) for k in (n + 1, 2 * n - 1, 2 * n + 3)]
    for name, g, n in cases:
        inst = Instance(g, random_valuations(rng, g, n))
        runs = []
        for egalitarian in (protocols._egalitarian, reference_egalitarian):
            monkeypatch.setattr(protocols, "_egalitarian", egalitarian)
            res = run_protocol(name, inst)
            runs.append((json.dumps(res.allocation.to_json()), res.queries.to_json()))
        assert runs[0] == runs[1], (name, g.m, n)
        rep = verify_allocation(inst, Allocation.from_json(json.loads(runs[0][0])))
        assert guarantee_violations(name, inst, rep) == [], (name, g.m, n)


def test_egalitarian_leaves_shared_state_alone():
    # pruning works on the recursion's own tree: a run after an unrelated
    # extraction gives the same bytes, and the graph's whole piece and the
    # valuations are as they were
    rng = random.Random(23)
    for g, n in ((star_graph(9), 4), (star_graph(5), 4), (_random_tree(rng, 30), 5)):
        inst = Instance(g, random_valuations(rng, g, n))
        whole = g.whole_piece()
        before = (whole.to_json(), [v.to_json() for v in inst.agents])
        protocols_run = [connected_egalitarian] + ([star_egalitarian] if g.star_center() else [])
        runs = []
        for extract_first in (False, True):
            if extract_first:
                extract_piece(inst, g.whole_piece(), F(1, 7))
            runs.append([
                json.dumps([res.allocation.to_json(), res.queries.to_json()])
                for res in (run(inst) for run in protocols_run)
            ])
        assert runs[0] == runs[1]
        assert g.whole_piece() is whole
        assert (whole.to_json(), [v.to_json() for v in inst.agents]) == before


def reference_path_proportional(g, vals, traj, need, region, pieces, log):
    """The path stage that rebuilds the path's tree from each cut point and
    sweeps it afresh (test-only reference)."""
    rt = _path_tree(g, region)
    assert traj == _sweep(rt)
    assert need == {a: F(1, len(need)) * rt.value(vals[a]) for a in need}
    remaining = list(need)
    while len(remaining) > 1:
        traj = _sweep(rt)
        winner, cut = _knife_race(vals, traj, {a: need[a] for a in remaining}, log)
        pieces[winner] = prefix_piece(traj, cut)
        region = Piece(reference_difference(region, pieces[winner]))
        remaining.remove(winner)
        if len(remaining) > 1:
            root = canonical_point(g, traj[cut.leg_index].edge, cut.position)
            rt = _RootedTree(g, region.intervals, root)
    pieces[remaining[0]] = region


def test_path_stage_refuses_legs_that_are_not_one_interval_each():
    # the race runs as usual; parting the region by edge id then finds an edge
    # held twice, or a leg's edge the region does not hold
    g = path_graph(2)
    vals = uniform_instance(g, 2).agents
    cases = [
        (
            Piece.of([Interval("e0", ZERO, F(1, 4)), Interval("e0", F(1, 2), ONE)]),
            (Leg("e0", ZERO, F(1, 4)), Leg("e0", F(1, 2), ONE)),
            "two intervals of one edge",
        ),
        (edge_piece("e0"), (Leg("e1", ZERO, ONE), Leg("e0", ZERO, ONE)), "does not hold"),
    ]
    for region, traj, message in cases:
        with pytest.raises(ProtocolInvariantError, match=message):
            protocols._path_proportional(vals, traj, {0: F(1, 8), 1: F(1, 4)}, region, [None, None], QueryLog())


def test_path_stage_matches_the_per_level_rebuild(monkeypatch):
    # star_fnk_tight at these (n, k) and the uniform 3-spoke star with 5 agents
    # reach the path stage with 3 to 5 agents, so later knives sweep on from a cut
    cases = [
        build_fixture(FixtureSpec("star_fnk_tight", {"n": n, "k": k}))
        for n, k in ((4, 3), (5, 3), (5, 4), (6, 3), (6, 4))
    ]
    cases.append(_uniform_star(3, 5))
    real = protocols._path_proportional
    reached = []

    def counted(vals, traj, need, region, pieces, log):
        reached.append(len(need))
        real(vals, traj, need, region, pieces, log)

    for inst in cases:
        reached.clear()
        runs = []
        for path_stage in (counted, functools.partial(reference_path_proportional, inst.graph)):
            monkeypatch.setattr(protocols, "_path_proportional", path_stage)
            res = star_egalitarian(inst)
            runs.append((json.dumps(res.allocation.to_json()), res.queries.to_json()))
        assert runs[0] == runs[1], (inst.n, inst.graph.m)
        assert reached and 3 <= reached[0] <= 5, (inst.n, inst.graph.m, reached)
        rep = verify_allocation(inst, Allocation.from_json(json.loads(runs[0][0])))
        assert guarantee_violations("star", inst, rep) == [], (inst.n, inst.graph.m)


# -- whole-graph trees kept on the graph ---------------------------------------------


_PARAMS = {"flex2": {"alpha": F(1, 4)}, "multi2": {"k": 3}}


def _solve_all(inst):
    """Each protocol that applies to the instance, by name: its allocation and
    query counts as JSON."""
    return {
        name: json.dumps([res.allocation.to_json(), res.queries.to_json()])
        for name in PROTOCOL_NAMES
        if applies(name, inst)
        for res in [run_protocol(name, inst, _PARAMS.get(name))]
    }


def _settings(rng, g):
    """Instances on ``g`` that reach every protocol: cakes for two and three
    agents, chores for two to four."""
    for mode, n in (("cake", 2), ("cake", 3), ("chore", 2), ("chore", 3), ("chore", 4)):
        yield Instance(g, random_valuations(rng, g, n), mode)


def test_kept_trees_match_fresh_builds_after_every_protocol():
    rng = random.Random(26)
    for g in (star_graph(5), ear_graph(rng, 30), mixed_graph(rng, 30), tree_graph(rng, 30)):
        for inst in _settings(rng, g):
            _solve_all(inst)
        # piece order for extractions, stored order for chore5's walk
        assert {stored for _, stored in g._kept_trees} == {False, True}
        for (root, stored), kept in g._kept_trees.items():
            whole = g.whole_piece().intervals
            if stored:
                whole = [Interval(e.id, ZERO, ONE) for e in g.edges]
            fresh = _RootedTree(g, whole, root)
            assert tree_fields(kept) == tree_fields(fresh)
            # positions index the whole piece, whose intervals go by edge id
            assert kept.intervals == g.whole_piece().intervals
            assert kept._kinds == tuple(tuple(kinds) for kinds in fresh._link_kinds())
            assert len(kept._values) == 0


def test_kept_tree_links_are_read_only():
    # a triangle, so one loose link, with a pendant path c-d-e
    g = CakeGraph(
        ["a", "b", "c", "d", "e"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"), ("e3", "c", "d"), ("e4", "d", "e")],
    )
    inst = uniform_instance(g, 2)
    two_agent_fixed(inst)
    (kept,) = g._kept_trees.values()
    for links in (kept.parent, kept.children, kept.children[0], kept.position, kept.upper, kept.loose):
        with pytest.raises(TypeError):
            links[0] = links[0]
    with pytest.raises(TypeError):
        kept.subtree_values(inst.agents[0])
    # each handle sums on its own, and pruning one rebinds its links
    rt = protocols._kept_tree(g, None, stored=False)
    assert rt.parent is kept.parent and rt.value(inst.agents[0]) == 1
    tops = [w for w in range(1, len(rt.parent)) if rt.leg(w).edge == "e4"]
    rest = Piece(reference_difference(g.whole_piece(), Piece.of(reference_branches(rt, tops))))
    assert rt.remainder(g, tops, None, rest, set(inst.agents)) is rt
    assert rt.parent is not kept.parent and len(rt.parent) < len(kept.parent)
    assert tree_fields(kept) == tree_fields(_RootedTree(g, g.whole_piece().intervals))
    assert len(kept._values) == 0 and protocols._kept_tree(g, None, stored=False)._values == {}


def test_a_second_solve_builds_no_whole_graph_tree(monkeypatch):
    whole_builds = []
    real = _RootedTree.__init__

    def build(rt, g, intervals, *args, **kwargs):
        if len(intervals) == g.m and all(is_whole(iv.lo, iv.hi) for iv in intervals):
            whole_builds.append(intervals)
        real(rt, g, intervals, *args, **kwargs)

    monkeypatch.setattr(_RootedTree, "__init__", build)
    rng = random.Random(27)
    for g in (star_graph(5), ear_graph(rng, 30), mixed_graph(rng, 30)):
        whole_builds.clear()
        for inst in _settings(rng, g):
            _solve_all(inst)
        assert len(whole_builds) == len(g._kept_trees)
        whole_builds.clear()
        for inst in _settings(rng, g):
            _solve_all(inst)
        assert whole_builds == []


def test_instances_sharing_a_graph_match_separately_parsed_copies():
    rng = random.Random(28)
    for g in (star_graph(5), ear_graph(rng, 30), mixed_graph(rng, 30)):
        for mode, n in (("cake", 2), ("cake", 3), ("chore", 3)):
            first, second = random_valuations(rng, g, n), random_valuations(rng, g, n)
            shared = [_solve_all(Instance(g, vals, mode)) for vals in (first, second, first)]
            apart = [
                _solve_all(Instance(CakeGraph.from_json(g.to_json()), vals, mode))
                for vals in (first, second)
            ]
            assert shared == [*apart, apart[0]]


# -- stars -------------------------------------------------------------------------


def test_f_guarantee_examples():
    assert f_guarantee(3, 5) == F(1, 5)
    assert f_guarantee(2, 9) == F(1, 3)
    assert f_guarantee(6, 11) == F(1, 11)
    with pytest.raises(DomainError):
        f_guarantee(1, 3)
    with pytest.raises(DomainError):
        f_guarantee(2, 2)


def test_star_protocol_base_case():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    res = star_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.egalitarian >= F(1, 3)


def test_star_protocol_uniform_four_edges():
    g = star_graph(4)
    inst = uniform_instance(g, 3)
    res = star_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and rep.all_connected
    assert rep.egalitarian >= F(1, 4) == f_guarantee(3, 4)


def test_star_protocol_tight_fixture():
    inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": 3, "k": 4}))
    res = star_egalitarian(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.egalitarian == F(1, 4)


def test_star_protocol_random_contract():
    for seed in range(30):
        n = 2 + seed % 3
        k = 3 + seed % 5
        inst = random_instance(seed, n=n, family="star", edges=k)
        res = star_egalitarian(inst)
        rep = verify_allocation(inst, res.allocation)
        assert rep.complete and rep.disjoint and rep.all_connected
        assert rep.egalitarian >= f_guarantee(n, inst.graph.m)


def test_star_protocol_rejects_non_star():
    with pytest.raises(NotAStar):
        star_egalitarian(uniform_instance(triangle(), 2))


def test_narrow_star_levels_build_no_tree(monkeypatch):
    # the levels of the recursion open now, innermost last, and every level
    # and every tree build of one solve, each build with its level's kind:
    # "narrow" for more than two but fewer than 2k-1 intervals
    open_levels, levels, builds = [], [], []
    real_init, real_star_rec = _RootedTree.__init__, protocols._star_rec

    def build(rt, *args, **kwargs):
        builds.append(open_levels[-1] if open_levels else None)
        real_init(rt, *args, **kwargs)

    def star_rec(g, vals, agents, region, center, pieces, log):
        k, m = len(agents), len(region.intervals)
        levels.append("narrow" if k > 1 and 2 < m < 2 * k - 1 else "other")
        open_levels.append(levels[-1])
        real_star_rec(g, vals, agents, region, center, pieces, log)
        open_levels.pop()

    monkeypatch.setattr(_RootedTree, "__init__", build)
    monkeypatch.setattr(protocols, "_star_rec", star_rec)
    rng = random.Random(34)
    for n, k in ((3, 4), (4, 5), (4, 6), (5, 7), (6, 4), (6, 10)):
        # the center sorts last, and spokes point either way
        leaves = [f"a{i}" for i in range(k)]
        g = CakeGraph(leaves + ["z"], [(f"e{i}", *rng.sample(["z", x], 2)) for i, x in enumerate(leaves)])
        levels.clear()
        builds.clear()
        inst = Instance(g, random_valuations(rng, g, n))
        res = star_egalitarian(inst)
        assert levels[0] == "narrow", (n, k)
        assert "narrow" not in builds, (n, k)
        # no tree of the whole star rooted at its center is kept either
        assert all(root != "z" for root, _ in g._kept_trees), (n, k)
        rep = verify_allocation(inst, res.allocation)
        assert guarantee_violations("star", inst, rep) == [], (n, k)


# -- two agents, proportional on almost bridgeless ----------------------------------


def test_prop2_single_edge():
    inst = uniform_instance(single_edge_graph(), 2)
    lab = compute_contiguous_labeling(inst.graph)
    res = proportional_two_connected(inst, lab)
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(1, 2), F(1, 2))


def test_prop2_cycle_uniform():
    inst = uniform_instance(triangle(), 2)
    lab = compute_contiguous_labeling(inst.graph)
    res = proportional_two_connected(inst, lab)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and rep.all_connected
    assert rep.values == (F(1, 2), F(1, 2))
    assert measure(res.allocation.pieces[0]) == F(3, 2)


def test_prop2_concentrated_second_agent():
    g = triangle()
    v1 = Valuation.uniform(g)
    v2 = Valuation.from_edge_values({"e2": F(1)})
    inst = Instance(g, (v1, v2), "cake")
    lab = compute_contiguous_labeling(g)
    res = proportional_two_connected(inst, lab)
    rep = verify_allocation(inst, res.allocation)
    assert min(rep.values) >= F(1, 2)
    assert rep.complete and rep.all_connected


def test_prop2_winner_gets_exactly_half():
    for seed in range(25):
        inst = random_instance(seed, n=2, family="cycle-augmented", edges=6)
        lab = compute_contiguous_labeling(inst.graph)
        rep = verify_allocation(inst, proportional_two_connected(inst, lab).allocation)
        assert min(rep.values) >= F(1, 2)
        assert F(1, 2) in rep.values  # the agent who stopped the knife gets exactly half


def test_star_protocol_ignores_zero_value_edges():
    inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": 2, "k": 5}))
    rep = verify_allocation(inst, star_egalitarian(inst).allocation)
    assert rep.complete and rep.all_connected
    assert rep.egalitarian >= F(1, 3)


def test_prop2_rejects_bad_labeling():
    inst = uniform_instance(triangle(), 2)
    reversed_middle = OrientedLabeling(("e0", "e1", "e2"), {"e0": "a", "e1": "c", "e2": "c"})
    missing_tail = OrientedLabeling(("e0", "e1", "e2"), {"e0": "a", "e1": "b"})
    for bad in (reversed_middle, missing_tail):
        with pytest.raises(LabelingNotContiguous):
            proportional_two_connected(inst, bad)


def test_prop2_checks_every_labeling_but_the_one_the_graph_keeps(monkeypatch):
    checked = []
    real = protocols.is_contiguous
    monkeypatch.setattr(protocols, "is_contiguous", lambda g, lab: checked.append(lab) or real(g, lab))
    rng = random.Random(27)
    g = ear_graph(rng, 40)
    inst = Instance(g, random_valuations(rng, g, 2))
    kept = compute_contiguous_labeling(g)
    expected = proportional_two_connected(inst, kept).allocation.to_json()
    assert run_protocol("prop2", inst).allocation.to_json() == expected
    assert checked == []
    # an equal labeling built apart, and the kept labeling of an equal graph
    copy = OrientedLabeling(tuple(kept.order), dict(kept.tails))
    twin = compute_contiguous_labeling(CakeGraph.from_json(g.to_json()))
    for other in (copy, twin):
        assert other == kept and other is not kept
        assert proportional_two_connected(inst, other).allocation.to_json() == expected
        assert checked[-1] is other
    assert len(checked) == 2


def test_prop2_sweeps_each_edge_from_its_tail(monkeypatch):
    swept = []
    real = protocols._halve
    monkeypatch.setattr(
        protocols, "_halve", lambda g, vals, traj: swept.append(traj) or real(g, vals, traj)
    )
    rng = random.Random(26)
    for g in (single_edge_graph(), triangle(), cycle_graph(5), ear_graph(rng, 12)):
        lab = compute_contiguous_labeling(g)
        flipped = OrientedLabeling(lab.order[::-1], {e: lab.head(g, e) for e in lab.order})
        assert is_contiguous(g, flipped)
        for labeling in (lab, flipped):
            swept.clear()
            proportional_two_connected(Instance(g, random_valuations(rng, g, 2)), labeling)
            # the legs the endpoint lookups give
            assert swept == [tuple(
                Leg(
                    e,
                    F(0) if labeling.tails[e] == g.edge(e).u else F(1),
                    F(0) if labeling.head(g, e) == g.edge(e).u else F(1),
                )
                for e in labeling.order
            )]


def test_best2_dispatch():
    cyc = uniform_instance(triangle(), 2)
    rep = verify_allocation(cyc, two_agent_best(cyc).allocation)
    assert min(rep.values) >= F(1, 2)
    star = uniform_instance(star_graph(3), 2)
    rep = verify_allocation(star, two_agent_best(star).allocation)
    assert min(rep.values) >= F(1, 3)
    assert rep.values[0] >= F(1, 2)
    edge = uniform_instance(single_edge_graph(), 2)
    rep = verify_allocation(edge, two_agent_best(edge).allocation)
    assert rep.values == (F(1, 2), F(1, 2))


def test_a_graph_is_analysed_once_across_solves(monkeypatch):
    from graphcake import graph_core

    calls = Counter()

    def counting(name):
        real = getattr(graph_core, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("_blocks", "_ears"):
        monkeypatch.setattr(graph_core, name, counting(name))
    # a fresh graph, almost bridgeless, so best2 builds the labeling
    rng = random.Random(25)
    g = ear_graph(rng, 200)
    inst = Instance(g, random_valuations(rng, g, 2), "cake")
    for expected in (Counter(_blocks=1, _ears=1), Counter()):
        calls.clear()
        result = run_protocol("best2", inst)
        report = verify_allocation(inst, result.allocation)
        assert guarantee_violations("best2", inst, report, {}, result) == []
        assert calls == expected


def test_best2_searches_bridges_once(monkeypatch):
    from graphcake import graph_core

    calls = []
    real = graph_core.find_bridges
    monkeypatch.setattr(graph_core, "find_bridges", lambda g: calls.append(g) or real(g))
    # almost bridgeless (the labeling is built) and not (cut and choose)
    for g in (triangle(), star_graph(3)):
        calls.clear()
        two_agent_best(uniform_instance(g, 2))
        assert calls == [g]


# -- fixed and flexible entitlements --------------------------------------------------


def test_fixed2_single_edge_trace():
    inst = uniform_instance(single_edge_graph(), 2)
    rep = verify_allocation(inst, two_agent_fixed(inst).allocation)
    assert rep.values == (F(2, 3), F(1, 3))


def test_fixed2_star_trace():
    inst = uniform_instance(star_graph(3), 2)
    res = two_agent_fixed(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(2, 3), F(1, 3))
    assert res.allocation.pieces[0] == edge_piece("e1", "e2")


def test_fixed2_second_agent_guarded_against_any_first_agent():
    g = star_graph(4)
    v2 = Valuation.from_edge_values({"e0": F(1)})
    for seed in range(25):
        rng = random.Random(seed)
        weights = [F(rng.randint(1, 9)) for _ in range(4)]
        total = sum(weights)
        v1 = Valuation.from_edge_values(
            {f"e{i}": w / total for i, w in enumerate(weights)}
        )
        inst = Instance(g, (v1, v2), "cake")
        rep = verify_allocation(inst, two_agent_fixed(inst).allocation)
        assert rep.values[0] >= F(1, 2)
        assert rep.values[1] >= F(1, 3)
        assert rep.complete and rep.all_connected


def test_flex2_quarter_on_single_edge():
    inst = uniform_instance(single_edge_graph(), 2)
    res = two_agent_flexible(inst, F(1, 4))
    rep = verify_allocation(inst, res.allocation)
    assert rep.values[res.alpha_agent] >= F(1, 4)
    assert rep.values[res.beta_agent] >= F(1, 2)


def test_flex2_on_fig2_gadget():
    inst = build_fixture(FixtureSpec("fig2", {}))
    res = two_agent_flexible(inst, F(1, 4))
    rep = verify_allocation(inst, res.allocation)
    assert rep.values[res.alpha_agent] >= F(1, 4)
    assert rep.values[res.beta_agent] >= F(1, 2)
    assert rep.complete and rep.all_connected


def test_flex2_fifth_on_star():
    inst = uniform_instance(star_graph(3), 2)
    res = two_agent_flexible(inst, F(1, 5))
    rep = verify_allocation(inst, res.allocation)
    assert rep.values[res.alpha_agent] >= F(1, 5)
    assert rep.values[res.beta_agent] >= F(3, 5)


def test_flex2_alpha_range():
    inst = uniform_instance(single_edge_graph(), 2)
    for bad in (F(0), F(3, 10), F(1, 2), F(-1, 4)):
        with pytest.raises(AlphaOutOfRange):
            two_agent_flexible(inst, bad)


def test_flex2_refuses_an_inexact_alpha():
    # Fraction(0.2) is 3602879701896397/18014398509481984, not 1/5
    inst = uniform_instance(single_edge_graph(), 2)
    for bad in (0.2, True):
        with pytest.raises(DomainError, match="not exact"):
            two_agent_flexible(inst, bad)
        with pytest.raises(BadParameters, match="not a valid value"):
            run_protocol("flex2", inst, {"alpha": bad})
    assert run_protocol("flex2", inst, {"alpha": "0.2"}) == two_agent_flexible(inst, F(1, 5))


def test_rational_parameters_refuse_exponent_notation():
    # Fraction("1e-10000000") alone takes seconds, so exponents are refused
    # before any Fraction is built; small ones are enough to show it
    inst = uniform_instance(single_edge_graph(), 2)
    for bad in ("1e-1", "2.5E-1", "1e0", " 2e-1 ", "+1.E-1"):
        with pytest.raises(BadParameters, match="not a valid value"):
            run_protocol("flex2", inst, {"alpha": bad})
        with pytest.raises(BadParameters, match="not a valid value"):
            build_fixture(FixtureSpec("fig2", {"eps": bad}))
    for good, alpha in (("0.2", F(1, 5)), ("1/5", F(1, 5)), ("1/4", F(1, 4)), (" 0.125 ", F(1, 8)), ("-0", 0)):
        assert exact_fraction(good) == alpha
    assert run_protocol("flex2", inst, {"alpha": "1/8"}) == two_agent_flexible(inst, F(1, 8))


def test_a_decimal_parameter_is_read_as_its_string():
    # Fraction(Decimal("1e-300000")) builds a 996,579-bit denominator; a
    # count is read through exact_fraction too, so it follows the same rule
    inst = uniform_instance(single_edge_graph(), 2)
    assert exact_fraction(Decimal("0.25")) == F(1, 4)
    assert run_protocol("flex2", inst, {"alpha": Decimal("0.125")}) == two_agent_flexible(inst, F(1, 8))
    assert run_protocol("multi2", inst, {"k": Decimal("2.0")}) == multi_piece_two(inst, 2)
    for bad in ("1e-300000", "1E+5", "1E+2", "0.0000001", "NaN", "-Infinity", "sNaN"):
        with pytest.raises(ValueError):
            exact_fraction(Decimal(bad))
        for protocol, key in (("flex2", "alpha"), ("multi2", "k")):
            with pytest.raises(BadParameters, match="not a valid value"):
                run_protocol(protocol, inst, {key: Decimal(bad)})


HUGE = 10**5000  # past the interpreter's 4,300-digit limit for str() of an int


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda inst: run_protocol("flex2", inst, {"alpha": F(HUGE)}), AlphaOutOfRange, "got <Fraction of 16610 bits>"),
        (lambda inst: extract_piece(inst, inst.graph.whole_piece(), F(HUGE)), InsufficientValue,
         "agent 0 values the piece below <Fraction of 16610 bits>"),
        (lambda inst: extract_piece(inst, inst.graph.whole_piece(), -F(HUGE)), DomainError,
         "extraction threshold <Fraction of 16610 bits> is negative"),
        (lambda inst: run_protocol("multi2", inst, {"k": -HUGE}), DomainError, "got <int of 16610 bits>"),
        (lambda inst: run_protocol("multi2", inst, {"k": F(HUGE, 3)}), BadParameters,
         "k=<Fraction of 16610 bits> is not a valid value"),
        (lambda inst: f_guarantee(-HUGE, 3), DomainError, "got (<int of 16610 bits>, 3)"),
        (lambda inst: inst.agents[0].scaled(-F(HUGE)), DomainError,
         "scale factor <Fraction of 16610 bits> is negative"),
        (lambda inst: combine_valuations(inst.agents, [F(1), -F(HUGE)]), DomainError,
         "weight <Fraction of 16610 bits> is negative"),
        (lambda inst: Instance(inst.graph, (inst.agents[0].scaled(F(HUGE)),)), MalformedInput,
         "integrates to <Fraction of 16610 bits>, not 1"),
    ],
    ids=[
        "flex2-alpha", "extract-above-value", "extract-negative", "multi2-k", "multi2-k-not-integral",
        "f_guarantee", "scale-factor", "weight", "instance-total",
    ],
)
def test_numbers_too_long_to_print_show_as_their_size(call, error, message):
    inst = uniform_instance(single_edge_graph(), 2)
    with pytest.raises(error, match=re.escape(message)):
        call(inst)


# -- several pieces ---------------------------------------------------------------


def test_multi2_k1_matches_base_guarantee():
    inst = uniform_instance(star_graph(3), 2)
    res = multi_piece_two(inst, 1)
    rep = verify_allocation(inst, res.allocation)
    assert rep.total_pieces <= 2
    assert min(rep.values) >= F(1, 3)


def test_multi2_k2_star_trace():
    inst = uniform_instance(star_graph(3), 2)
    res = multi_piece_two(inst, 2)
    rep = verify_allocation(inst, res.allocation)
    assert rep.total_pieces <= 3
    f1 = inst.agents[0]
    parts = [value_of_piece(f1, p) for p in res.allocation.pieces]
    assert set(parts) == {F(4, 9), F(5, 9)}
    assert min(rep.values) >= F(4, 9)


def test_multi2_k2_ternary_tree():
    inst = build_fixture(FixtureSpec("ternary_tree", {"k": 2}))
    res = multi_piece_two(inst, 2)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and rep.total_pieces <= 3
    assert min(rep.values) >= F(4, 9)


def test_multi2_contract_and_window_monotone():
    for seed in range(25):
        inst = random_instance(seed, n=2, family=("tree", "arbitrary")[seed % 2], edges=6)
        f1 = inst.agents[0]
        windows = []
        for k in range(1, 5):
            res = multi_piece_two(inst, k)
            rep = verify_allocation(inst, res.allocation)
            assert rep.complete and rep.disjoint
            assert rep.total_pieces <= k + 1
            bound = F(1, 2) - F(1, 2 * 3**k)
            assert min(rep.values) >= bound
            windows.append(min(value_of_piece(f1, p) for p in res.allocation.pieces))
        # refinement never widens the first agent's window
        assert all(a <= b for a, b in zip(windows, windows[1:]))


def test_multi2_rejects_bad_budget():
    inst = uniform_instance(single_edge_graph(), 2)
    with pytest.raises(DomainError):
        multi_piece_two(inst, 0)


def test_multi2_refuses_a_budget_above_its_bound_before_any_power_of_three():
    inst = uniform_instance(single_edge_graph(), 2)
    message = f"piece budget k must be at most {MULTI2_MAX_K}"
    for k in (MULTI2_MAX_K + 1, 10**20):
        with pytest.raises(DomainError, match=message):
            multi_piece_two(inst, k)
        with pytest.raises(DomainError, match=message):
            run_protocol("multi2", inst, {"k": k})
    # the guarantee check refuses too, rather than forming 3 ** k
    res = multi_piece_two(inst, MULTI2_MAX_K)
    rep = verify_allocation(inst, res.allocation)
    assert guarantee_violations("multi2", inst, rep, {"k": MULTI2_MAX_K}, res) == []
    with pytest.raises(DomainError, match=message):
        guarantee_violations("multi2", inst, rep, {"k": 10**20}, res)


# -- height-2 trees -----------------------------------------------------------------


def fig5_tree():
    vertices = ["u", "v1", "v2", "v3", "v4", "a", "b", "c", "d", "e", "f"]
    edges = [
        ("t1", "u", "v1"),
        ("t2", "u", "v2"),
        ("t3", "u", "v3"),
        ("t4", "u", "v4"),
        ("g1", "v1", "a"),
        ("g2", "v1", "b"),
        ("g3", "v3", "c"),
        ("g4", "v3", "d"),
        ("g5", "v3", "e"),
        ("g6", "v4", "f"),
    ]
    return CakeGraph(vertices, edges)


def test_height2_star_case():
    inst = uniform_instance(star_graph(4), 2)
    res = height2_two_piece_proportional(inst, "c")
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and min(rep.values) >= F(1, 2)
    assert all(a.piece_count <= 2 for a in rep.agents)


def test_height2_single_edge():
    inst = uniform_instance(single_edge_graph(), 2)
    res = height2_two_piece_proportional(inst, "a")
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(1, 2), F(1, 2))
    assert all(a.piece_count == 1 for a in rep.agents)


def test_height2_two_layer_tree():
    inst = uniform_instance(fig5_tree(), 2)
    res = height2_two_piece_proportional(inst, "u")
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and min(rep.values) >= F(1, 2)
    assert all(a.piece_count <= 2 for a in rep.agents)


def test_height2_reads_an_empty_root_as_a_vertex_name():
    g = CakeGraph(["b", "a", "", "c"], [("e0", "a", ""), ("e1", "", "b"), ("e2", "b", "c")])
    inst = Instance(g, random_valuations(random.Random(0), g, 2), "cake")
    at_empty = height2_two_piece_proportional(inst, "")
    assert run_protocol("height2", inst, {"root": ""}) == at_empty
    # without a root the first vertex of height at most two is "b"
    assert run_protocol("height2", inst) == height2_two_piece_proportional(inst, "b") != at_empty
    with pytest.raises(NotHeightTwoTree):
        run_protocol("height2", uniform_instance(star_graph(3), 2), {"root": ""})


def test_height2_rejects_tall_trees():
    g = CakeGraph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    inst = uniform_instance(g, 2)
    with pytest.raises(NotHeightTwoTree):
        height2_two_piece_proportional(inst, "a")
    # rooted at a middle vertex the same path has height two
    res = height2_two_piece_proportional(inst, "b")
    assert min(verify_allocation(inst, res.allocation).values) >= F(1, 2)


def reference_distances(g, root):
    """BFS distances from ``root`` to every vertex it reaches (test-only reference)."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for e in g.edges:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a == x and b not in dist:
                        dist[b] = dist[x] + 1
                        nxt.append(b)
        frontier = nxt
    return dist


@st.composite
def small_trees_and_others(draw):
    """Random trees of 1-12 edges, stars, and the random trees with one more
    edge, a chord or a parallel edge, so not trees; vertex order, edge order and
    edge directions are shuffled."""
    kind = draw(st.sampled_from(["tree", "star", "extra edge"]))
    if kind == "star":
        return star_graph(draw(st.integers(1, 12)))
    m = draw(st.integers(1, 12))
    names = draw(st.permutations([f"v{i}" for i in range(m + 1)]))
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, m + 1)]
    if kind == "extra edge":
        ends = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        edges.append(tuple(draw(ends)))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(edges))]
    return CakeGraph(names, [(f"e{j}", a, b) for j, (a, b) in enumerate(edges)])


@settings(max_examples=200, deadline=None)
@given(small_trees_and_others())
def test_height2_trees_and_roots_match_bfs_eccentricities(g):
    eccentricity = {}
    for r in g.vertices:
        dist = reference_distances(g, r)
        assert len(dist) == len(g.vertices)  # every drawn graph is connected
        eccentricity[r] = max(dist.values())
    is_tree = g.m == len(g.vertices) - 1
    low = [r for r in g.vertices if is_tree and eccentricity[r] <= 2]
    for r in g.vertices:
        rt = protocols._height2_tree(g, r)
        assert (rt is not None) == (r in low)
        if rt is not None:
            depth = [0] * len(rt.parent)
            for w in range(1, len(rt.parent)):
                depth[w] = depth[rt.parent[w]] + 1
            assert max(depth) == eccentricity[r] and len(rt.parent) == len(g.vertices)
    assert protocols._height2_root(g) == (low[0] if low else None)
    assert protocols._height2_tree(g, "not a vertex") is None


def test_height2_on_400_edges_builds_at_most_one_region_tree(monkeypatch):
    builds = []
    real = _RootedTree.__init__
    monkeypatch.setattr(_RootedTree, "__init__", lambda self, *a, **k: builds.append(1) or real(self, *a, **k))
    rng = random.Random(25)
    deep = tree_graph(rng, 400)
    assert protocols._height2_root(deep) is None
    assert not applies("height2", uniform_instance(deep, 2))
    assert builds == []
    # 20 children of the root with 19 leaves each, the root placed after the children
    kids = [f"k{i}" for i in range(20)]
    leaves = [f"l{i}_{j}" for i in range(20) for j in range(19)]
    edges = [(k, "root") for k in kids] + [(f"k{i}", f"l{i}_{j}") for i in range(20) for j in range(19)]
    wide = CakeGraph(kids + ["root"] + leaves, [(f"e{j}", a, b) for j, (a, b) in enumerate(edges)])
    inst = Instance(wide, random_valuations(rng, wide, 2), "cake")
    result = run_protocol("height2", inst)
    assert len(builds) == 1
    assert result == run_protocol("height2", inst, {"root": "root"})


# -- equitability ---------------------------------------------------------------------


def test_equit2_single_edge_trace():
    inst = uniform_instance(single_edge_graph(), 2)
    res = equitable_two(inst)
    rep = verify_allocation(inst, res.allocation)
    assert measure(res.allocation.pieces[0]) == F(1, 3)
    assert rep.inequity == F(1, 3)


def test_equit2_tight_star():
    inst = build_fixture(FixtureSpec("equit_star3", {}))
    res = equitable_two(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete and rep.all_connected
    assert rep.inequity == F(1, 3)


def test_equit2_disjoint_supports():
    g = CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
    v1 = Valuation.from_edge_values({"e0": F(1)})
    v2 = Valuation.from_edge_values({"e1": F(1)})
    inst = Instance(g, (v1, v2), "cake")
    rep = verify_allocation(inst, equitable_two(inst).allocation)
    assert rep.complete and rep.all_connected
    assert rep.inequity <= F(1, 3)


def test_equit2_random_contract():
    for seed in range(40):
        inst = random_instance(seed, n=2, family=("tree", "arbitrary")[seed % 2], edges=5)
        rep = verify_allocation(inst, equitable_two(inst).allocation)
        assert rep.complete and rep.disjoint and rep.all_connected
        assert rep.inequity <= F(1, 3)


# -- chores ------------------------------------------------------------------------


def test_chore2_single_edge_trace():
    inst = uniform_instance(single_edge_graph(), 2, mode="chore")
    rep = verify_allocation(inst, chore_two(inst).allocation)
    assert rep.values == (F(1, 3), F(2, 3))


def test_chore2_star_trace():
    inst = uniform_instance(star_graph(3), 2, mode="chore")
    res = chore_two(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.values == (F(1, 3), F(2, 3))
    assert res.allocation.pieces[0] == edge_piece("e0")


def test_chore2_is_swapped_cake_split():
    for seed in range(50):
        inst = random_instance(seed, n=2, family="arbitrary", edges=6, mode="chore")
        cake_twin = Instance(inst.graph, inst.agents, "cake")
        swapped = chore_two(inst).allocation
        fixed = two_agent_fixed(cake_twin).allocation
        assert swapped.pieces == (fixed.pieces[1], fixed.pieces[0])
        rep = verify_allocation(inst, swapped)
        assert rep.complete and rep.all_connected
        assert rep.values[0] <= F(1, 2) and rep.values[1] <= F(2, 3)


def test_chore3_single_edge_trace():
    inst = uniform_instance(single_edge_graph(), 3, mode="chore")
    rep = verify_allocation(inst, chore_three(inst).allocation)
    assert rep.values == (F(1, 3), F(4, 9), F(2, 9))
    assert rep.egalitarian <= F(1, 2)


def test_chore3_tight_star():
    inst = build_fixture(FixtureSpec("chore_star", {"n": 3}))
    rep = verify_allocation(inst, chore_three(inst).allocation)
    assert rep.complete and rep.all_connected
    assert rep.egalitarian == F(1, 2)


def test_chore3_zero_cost_middle_piece():
    g = star_graph(3)
    v12 = Valuation.uniform(g)
    v3 = Valuation.from_edge_values({"e2": F(1)})
    # agents 1 and 2 split so that agent 2's piece may cost agent 3 nothing
    inst = Instance(g, (v12, v12, v3), "chore")
    res = chore_three(inst)
    rep = verify_allocation(inst, res.allocation)
    assert rep.complete
    assert rep.egalitarian <= F(1, 2)


def test_chore3_random_contract():
    for seed in range(50):
        inst = random_instance(seed, n=3, family=("tree", "arbitrary")[seed % 2], edges=6, mode="chore")
        rep = verify_allocation(inst, chore_three(inst).allocation)
        assert rep.complete and rep.disjoint and rep.all_connected
        assert rep.egalitarian <= F(1, 2)


def test_chore5_delegates_small_cases():
    edge2 = uniform_instance(single_edge_graph(), 2, mode="chore")
    rep = verify_allocation(edge2, chore_upto5(edge2).allocation)
    assert rep.values == (F(1, 3), F(2, 3))
    solo = uniform_instance(triangle(), 1, mode="chore")
    rep = verify_allocation(solo, chore_upto5(solo).allocation)
    assert rep.values == (F(1),)


def test_chore5_tight_stars():
    for n in (3, 4, 5):
        inst = build_fixture(FixtureSpec("chore_star", {"n": n}))
        rep = verify_allocation(inst, chore_upto5(inst).allocation)
        assert rep.complete and rep.all_connected
        assert rep.egalitarian == F(2, n + 1)


def test_chore5_random_contract():
    for seed in range(60):
        n = 3 + seed % 3
        inst = random_instance(seed, n=n, family=("tree", "arbitrary")[seed % 2], edges=6, mode="chore")
        rep = verify_allocation(inst, chore_upto5(inst).allocation)
        assert rep.complete and rep.disjoint and rep.all_connected
        assert rep.egalitarian <= F(2, n + 1)


def test_chore5_refuses_six_agents():
    inst = uniform_instance(star_graph(7), 6, mode="chore")
    with pytest.raises(TooManyAgents):
        chore_upto5(inst)
    assert not applies("chore5", inst)


# -- registry -----------------------------------------------------------------------


def test_run_protocol_dispatch_and_determinism():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    first = run_protocol("egal", inst)
    second = run_protocol("egal", inst)
    assert first.allocation.to_json() == second.allocation.to_json()
    assert first.queries.to_json() == second.queries.to_json()
    with pytest.raises(DomainError):
        run_protocol("nope", inst)
    with pytest.raises(DomainError):
        run_protocol("flex2", inst)  # missing alpha
    with pytest.raises(DomainError, match="unknown parameters: bogus"):
        run_protocol("egal", inst, {"bogus": 1})
    for alpha in ("1/0", "abc", None):
        with pytest.raises(DomainError, match="not a valid value"):
            run_protocol("flex2", inst, {"alpha": alpha})
    # an integer parameter takes no fractional part, no bool and no float, where
    # int() would truncate 2.5 to 2 and read True as 1
    for k in (2.5, 2.0, Fraction(5, 2), True, False, "2.5", float("inf")):
        with pytest.raises(BadParameters, match="not a valid value"):
            run_protocol("multi2", inst, {"k": k})
    two = run_protocol("multi2", inst, {"k": 2}).allocation.to_json()
    for k in (Fraction(4, 2), "2"):
        assert run_protocol("multi2", inst, {"k": k}).allocation.to_json() == two


def test_readme_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## What it computes", 1)[1].split("\n\n")[1]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table.splitlines()[2:]]
    assert [name.strip("`") for name, *_ in rows] == list(PROTOCOL_NAMES)
    for name, _, params, _ in rows:
        schema = PROTOCOLS[name.strip("`")].params
        assert re.findall(r"`(\w+)`", params) == list(schema), name
        assert ("optional" in params) == any(not p.required for p in schema.values()), name


def test_flex2_guarantee_check_needs_the_result():
    inst = uniform_instance(single_edge_graph(), 2)
    res = run_protocol("flex2", inst, {"alpha": "1/4"})
    rep = verify_allocation(inst, res.allocation)
    assert guarantee_violations("flex2", inst, rep, {"alpha": "1/4"}, res) == []
    with pytest.raises(DomainError, match="needs the protocol result"):
        guarantee_violations("flex2", inst, rep, {"alpha": "1/4"})


def test_mode_checks():
    cake = uniform_instance(single_edge_graph(), 2)
    with pytest.raises(DomainError):
        chore_two(cake)
    chore = uniform_instance(single_edge_graph(), 2, mode="chore")
    with pytest.raises(DomainError):
        two_agent_fixed(chore)
