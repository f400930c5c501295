"""Relabelling invariance.

Four relabellings turn an instance into an isomorphic one: reversing the
agents, reversing the order of the vertex names, reversing the order of the
edge ids, and flipping every edge with its densities mirrored.  Each one
leaves the grid oracle's optimum and pair answers unchanged, maps every
allocation to one the verifier reports the same way, and keeps every
applicable protocol's guarantee.  Six fixed instances check every relabelling;
bounded hypothesis draws add grid optima on 3-4 edges and protocol runs on
4-12 edges with up to four agents.

Subdividing every edge at 1/2 gives an instance with the same cake: each
allocation maps to one the verifier reports the same way.

Every protocol output here also passes the independent checker.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcake.allocation import Allocation, verify_allocation
from graphcake.fixtures import FAMILIES, random_instance
from graphcake.graph_core import CakeGraph, Interval, Piece
from graphcake.oracle import OBJECTIVES, GridSearchConfig, grid_search_best, pair_feasible
from graphcake.protocols import PROTOCOL_NAMES, applies, guarantee_violations, run_protocol
from graphcake.valuation import Instance, Valuation

from conftest import checked

F = Fraction
HALF = F(1, 2)
PARAMS = {"flex2": {"alpha": "1/4"}, "multi2": {"k": "2"}}


def _reversed_names(names):
    """Each name to the one at the mirrored place in sorted order."""
    order = sorted(names)
    return dict(zip(order, reversed(order)))


def _rebuild(inst, vertex=lambda v: v, edge=lambda e: e, flip=False, agents=None):
    """The instance with vertices and edges renamed and listed in reverse, and
    with every edge and its densities flipped when ``flip``."""
    g = inst.graph
    edges = [(edge(e.id), *((e.v, e.u) if flip else (e.u, e.v))) for e in g.edges]
    graph = CakeGraph(
        [vertex(v) for v in reversed(g.vertices)],
        [(i, vertex(u), vertex(v)) for i, u, v in reversed(edges)],
    )

    def moved(val):
        per_edge = {}
        for e, segs in val.densities.items():
            triples = [(s.lo, s.hi, s.density) for s in segs]
            if flip:
                triples = [(1 - hi, 1 - lo, d) for lo, hi, d in reversed(triples)]
            per_edge[edge(e)] = triples
        return Valuation.from_segments(per_edge)

    return Instance(graph, tuple(moved(v) for v in (agents or inst.agents)), inst.mode)


def _map_pieces(alloc, edge=lambda e: e, flip=False):
    def interval(iv):
        lo, hi = (1 - iv.hi, 1 - iv.lo) if flip else (iv.lo, iv.hi)
        return Interval(edge(iv.edge), lo, hi)

    return Allocation(tuple(Piece.of(map(interval, p.intervals)) for p in alloc.pieces))


def relabel(inst, kind):
    """The relabelled instance, the map of allocations, and the map of reports."""
    same = lambda report: report  # noqa: E731
    if kind == "agents":
        flipped = lambda r: dataclasses.replace(r, agents=r.agents[::-1])  # noqa: E731
        return (
            _rebuild(inst, agents=inst.agents[::-1]),
            lambda a: Allocation(a.pieces[::-1]),
            flipped,
        )
    if kind == "vertices":
        names = _reversed_names(inst.graph.vertices)
        return _rebuild(inst, vertex=names.__getitem__), lambda a: a, same
    if kind == "edges":
        ids = _reversed_names(e.id for e in inst.graph.edges).__getitem__
        return _rebuild(inst, edge=ids), lambda a: _map_pieces(a, edge=ids), same
    return _rebuild(inst, flip=True), lambda a: _map_pieces(a, flip=True), same


def subdivide(inst):
    """The instance with every edge ``e`` split at 1/2 into ``e.a`` and ``e.b``
    through a new vertex ``e.m``, densities mapped onto the halves, and the
    map of allocations."""
    g = inst.graph
    graph = CakeGraph(
        [*g.vertices, *(f"{e.id}.m" for e in g.edges)],
        [
            half
            for e in g.edges
            for half in ((f"{e.id}.a", e.u, f"{e.id}.m"), (f"{e.id}.b", f"{e.id}.m", e.v))
        ],
    )

    def halves(e, lo, hi):
        """The parts of [lo, hi] on edge ``e``, each as (edge, lo, hi) on its half."""
        if lo < HALF:
            yield f"{e}.a", 2 * lo, 2 * min(hi, HALF)
        if hi > HALF:
            yield f"{e}.b", 2 * max(lo, HALF) - 1, 2 * hi - 1

    def moved(val):
        per_edge = {}
        for e, segs in val.densities.items():
            for s in segs:  # each half is twice as long, so its density halves
                for half, lo, hi in halves(e, s.lo, s.hi):
                    per_edge.setdefault(half, []).append((lo, hi, s.density / 2))
        return Valuation.from_segments(per_edge)

    def move_alloc(alloc):
        return Allocation(tuple(
            Piece.of(Interval(*part) for iv in p.intervals for part in halves(iv.edge, iv.lo, iv.hi))
            for p in alloc.pieces
        ))

    return Instance(graph, tuple(map(moved, inst.agents)), inst.mode), move_alloc


@pytest.mark.parametrize("family", ["tree", "cycle-augmented", "arbitrary"])
def test_subdividing_every_edge_leaves_every_report_unchanged(family):
    ran = 0
    for seed in range(15):
        for n, mode in ((2, "cake"), (3, "cake"), (2, "chore")):
            inst = random_instance(seed, n=n, family=family, edges=6, mode=mode)
            moved, move_alloc = subdivide(inst)
            for name in PROTOCOL_NAMES:
                if applies(name, inst):
                    result = run_protocol(name, inst, PARAMS.get(name))
                    alloc = result.allocation
                    assert verify_allocation(moved, move_alloc(alloc)) == verify_allocation(inst, alloc)
                    assert checked(name, inst, result, PARAMS.get(name)) == []
                    ran += 1
    assert ran >= 15 * 8


KINDS = ["agents", "vertices", "edges", "flip"]

# 3-5-edge graphs of every family, each with 2 or 3 agents of up to two segments
INSTANCES = [
    random_instance(seed, n=n, family=family, edges=edges, max_segments=2, mode=mode)
    for seed, n, family, edges, mode in [
        (1, 2, "tree", 4, "cake"),
        (2, 3, "star", 3, "cake"),
        (3, 2, "cycle-augmented", 4, "cake"),
        (4, 3, "arbitrary", 5, "chore"),
        (5, 2, "star", 5, "chore"),
        (6, 3, "tree", 3, "cake"),
    ]
]
IDS = [f"{inst.mode}-n{inst.n}-m{inst.graph.m}-{i}" for i, inst in enumerate(INSTANCES)]


def test_each_relabelling_changes_the_labels():
    inst = INSTANCES[2]
    for kind in KINDS:
        moved, _, _ = relabel(inst, kind)
        assert moved.to_json() != inst.to_json()
        assert relabel(moved, kind)[0].to_json() == inst.to_json()


def _assert_grid_optimum_agrees(inst, kind):
    moved, _, _ = relabel(inst, kind)
    configs = [(False, None), (True, None)]
    if inst.n * inst.graph.m <= 9:
        # a budget of one piece more than the agents; larger searches take seconds
        configs.append((True, inst.n + 1))
    for objective in OBJECTIVES:
        for complete, budget in configs:
            cfg = GridSearchConfig(2, objective=objective, piece_budget=budget, require_complete=complete)
            assert grid_search_best(moved, cfg)[0] == grid_search_best(inst, cfg)[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_grid_optimum_is_unchanged(inst, kind):
    _assert_grid_optimum_agrees(inst, kind)


# 3-4-edge instances with two or three agents of up to two segments
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.sampled_from(FAMILIES),
    st.integers(3, 4),
    st.sampled_from(["cake", "chore"]),
    st.sampled_from(KINDS),
)
def test_grid_optimum_of_drawn_instances_is_unchanged(seed, n, family, edges, mode, kind):
    inst = random_instance(seed, n=n, family=family, edges=edges, max_segments=2, mode=mode)
    _assert_grid_optimum_agrees(inst, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_answer_is_unchanged(kind):
    # feasible and infeasible pairs, and pairs feasible in one order only
    thresholds = [
        (F(1, 2), F(1, 2), False, False),
        (F(3, 4), F(1, 4), False, False),
        (F(9, 10), F(1, 4), False, True),
        (F(2, 3), F(1, 2), True, False),
    ]
    answers = set()
    for inst in (i for i in INSTANCES if i.n == 2):
        moved, _, _ = relabel(inst, kind)
        for first, second, strict1, strict2 in thresholds:
            pair = (first, second, strict1, strict2)
            # in the given order, reversed agents take the thresholds swapped
            moved_pair = (second, first, strict2, strict1) if kind == "agents" else pair
            for complete in (False, True):
                found = pair_feasible(inst, 2, *pair, require_complete=complete)[0]
                assert pair_feasible(moved, 2, *pair, require_complete=complete)[0] == found
                ordered = pair_feasible(inst, 2, *pair, False, complete)[0]
                assert pair_feasible(moved, 2, *moved_pair, False, complete)[0] == ordered
                answers |= {(found, ordered)}
    assert answers == {(True, True), (True, False), (False, False)}


def _assert_protocols_agree(inst, kind):
    """Every applicable protocol's allocation maps to one the verifier reports
    the same way, and each keeps its guarantee on the relabelled instance; the
    independent checker agrees on both instances."""
    moved, move_alloc, move_report = relabel(inst, kind)
    ran = 0
    for name in PROTOCOL_NAMES:
        assert applies(name, moved) == applies(name, inst)
        if not applies(name, inst):
            continue
        params = PARAMS.get(name)
        given = run_protocol(name, inst, params)
        alloc = given.allocation
        assert verify_allocation(moved, move_alloc(alloc)) == move_report(verify_allocation(inst, alloc))
        result = run_protocol(name, moved, params)
        report = verify_allocation(moved, result.allocation)
        assert guarantee_violations(name, moved, report, params, result) == []
        assert checked(name, inst, given, params) == checked(name, moved, result, params) == []
        ran += 1
    assert ran


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_protocols_verify_and_keep_their_guarantees(inst, kind):
    _assert_protocols_agree(inst, kind)


# 4-12-edge instances with up to four agents
@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.sampled_from(FAMILIES),
    st.integers(4, 12),
    st.sampled_from(["cake", "chore"]),
    st.sampled_from(KINDS),
)
@example(7, 4, "tree", 12, "cake", "flip")
@example(8, 4, "arbitrary", 12, "chore", "edges")
def test_drawn_instances_verify_and_keep_their_guarantees(seed, n, family, edges, mode, kind):
    _assert_protocols_agree(random_instance(seed, n=n, family=family, edges=edges, mode=mode), kind)
