import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcake.allocation import Allocation, _edge_coverage, verify_allocation
from graphcake.errors import MalformedPiece
from graphcake.fixtures import random_valuations
from graphcake.graph_core import (
    ONE,
    ZERO,
    CakeGraph,
    Interval,
    Piece,
    piece_component_count,
)
from graphcake.protocols import run_protocol
from graphcake.valuation import Instance

import independent
from conftest import (
    connected_multigraphs_up_to_iso,
    ear_graph,
    edge_piece,
    mixed_graph,
    single_edge_graph,
    star_graph,
    triples,
    uniform_instance,
)

F = Fraction


def test_wrong_python_types_raise_type_error():
    # documents end in a CakeError; an in-process call with a value of the
    # wrong Python type raises TypeError when the object is built
    inst = uniform_instance(single_edge_graph(), 1)
    for build in (
        lambda: Instance(inst.graph, [1], "cake"),
        lambda: Instance(None, (), "cake"),
        lambda: Allocation([1]),
        lambda: CakeGraph(None, None),
    ):
        with pytest.raises(TypeError):
            build()
    assert Instance(inst.graph, list(inst.agents)).n == 1
    assert Allocation([inst.graph.whole_piece()]).pieces


def test_allocations_and_instances_given_lists_hold_tuples():
    inst = uniform_instance(single_edge_graph(), 2)
    whole = inst.graph.whole_piece()
    alloc = Allocation([whole, Piece.empty()])
    listed = Instance(inst.graph, list(inst.agents))
    assert alloc.pieces == (whole, Piece.empty()) and listed.agents == inst.agents
    for held in (alloc.pieces, listed.agents):
        assert isinstance(held, tuple)
        with pytest.raises(AttributeError):
            held.append(held[0])
    # equal whatever sequence built them, and hashable alike
    assert alloc == Allocation((whole, Piece.empty()))
    assert hash(alloc) == hash(Allocation((whole, Piece.empty())))
    assert listed == Instance(inst.graph, inst.agents) and hash(listed) == hash(inst)


def test_even_split_single_edge():
    inst = uniform_instance(single_edge_graph(), 2)
    alloc = Allocation(
        (
            Piece.of([Interval("e0", F(0), F(1, 2))]),
            Piece.of([Interval("e0", F(1, 2), F(1))]),
        )
    )
    rep = verify_allocation(inst, alloc)
    assert rep.complete and rep.disjoint and rep.all_connected
    assert rep.egalitarian == F(1, 2)
    assert rep.inequity == 0
    assert rep.total_pieces == 2


def test_incomplete_allocation_detected():
    inst = uniform_instance(single_edge_graph(), 2)
    alloc = Allocation(
        (
            Piece.of([Interval("e0", F(0), F(1, 4))]),
            Piece.of([Interval("e0", F(1, 2), F(1))]),
        )
    )
    rep = verify_allocation(inst, alloc)
    assert not rep.complete
    assert rep.egalitarian == F(1, 4)


def test_star_split_values():
    inst = uniform_instance(star_graph(3), 2)
    alloc = Allocation((edge_piece("e0"), edge_piece("e1", "e2")))
    rep = verify_allocation(inst, alloc)
    assert rep.complete and rep.all_connected
    assert rep.egalitarian == F(1, 3)
    assert rep.inequity == F(1, 3)


def test_overlap_detected():
    inst = uniform_instance(single_edge_graph(), 2)
    alloc = Allocation(
        (
            Piece.of([Interval("e0", F(0), F(2, 3))]),
            Piece.of([Interval("e0", F(1, 2), F(1))]),
        )
    )
    rep = verify_allocation(inst, alloc)
    assert not rep.disjoint


def test_touching_endpoints_are_disjoint():
    inst = uniform_instance(star_graph(2), 2)
    alloc = Allocation((edge_piece("e0"), edge_piece("e1")))
    assert verify_allocation(inst, alloc).disjoint


def test_an_edge_held_whole_and_in_part_overlaps():
    inst = uniform_instance(star_graph(2), 2)
    alloc = Allocation((edge_piece("e0", "e1"), Piece.of([Interval("e1", F(1, 4), F(1, 2))])))
    rep = verify_allocation(inst, alloc)
    assert not rep.disjoint and rep.complete


def test_chore_mode_reports_max_cost():
    inst = uniform_instance(star_graph(3), 2, mode="chore")
    alloc = Allocation((edge_piece("e0"), edge_piece("e1", "e2")))
    rep = verify_allocation(inst, alloc)
    assert rep.egalitarian == F(2, 3)


def test_unknown_edge_rejected():
    inst = uniform_instance(single_edge_graph(), 1)
    with pytest.raises(MalformedPiece):
        verify_allocation(inst, Allocation((Piece(tuple([Interval("nope", F(0), F(1))])),)))


def test_unknown_edge_is_reported_at_the_first_piece_that_has_one():
    # pieces are read in agent order, each in canonical order: "x1" of the
    # first piece is reported, not "a0" of the second, which sorts earlier
    inst = uniform_instance(star_graph(3), 2)
    first = Piece.of([("e0", F(0), F(1, 2)), ("x9", F(0), F(1)), ("x1", F(1, 2), F(1))])
    second = Piece.of([("a0", F(0), F(1)), ("e1", F(0), F(1))])
    with pytest.raises(MalformedPiece, match=r"^piece references unknown edge 'x1'$"):
        verify_allocation(inst, Allocation((first, second)))
    with pytest.raises(MalformedPiece, match=r"^piece references unknown edge 'a0'$"):
        verify_allocation(inst, Allocation((edge_piece("e0"), second)))


def test_wrong_piece_count_rejected():
    inst = uniform_instance(single_edge_graph(), 2)
    with pytest.raises(MalformedPiece):
        verify_allocation(inst, Allocation((Piece.empty(),)))


def test_noncanonical_input_is_canonicalized():
    inst = uniform_instance(single_edge_graph(), 1)
    messy = Allocation(
        (
            Piece(
                (
                    Interval("e0", F(1, 2), F(1)),
                    Interval("e0", F(0), F(1, 2)),
                )
            ),
        )
    )
    rep = verify_allocation(inst, messy)
    assert rep.complete and rep.agents[0].piece_count == 1


def test_allocation_json_round_trip():
    alloc = Allocation(
        (
            Piece.of([Interval("e0", F(0), F(1, 3))]),
            Piece.of([Interval("e0", F(1, 3), F(1))]),
        )
    )
    assert Allocation.from_json(alloc.to_json()).to_json() == alloc.to_json()


# -- the verifier against the independent checker --------------------------------


QUARTERS = (F(1, 4), F(1, 2), F(3, 4))


def random_allocation(rng, g, n, exact):
    """Canonical pieces for ``n`` agents: every edge cut at up to two quarter
    points and each stretch given to one agent.  Unless ``exact``, a quarter of
    the stretches go to none or two agents, and up to three stray intervals
    are added."""
    raw = [[] for _ in range(n)]
    for e in g.edges:
        cuts = sorted(rng.sample(QUARTERS, rng.randint(0, 2)))
        bounds = [ZERO, *cuts, ONE]
        for lo, hi in zip(bounds, bounds[1:]):
            owners = [rng.randrange(n)]
            if not exact and rng.random() < 0.25:
                owners = rng.sample(range(n), min(n, rng.choice((0, 2))))
            for k in owners:
                raw[k].append((e.id, lo, hi))
    if not exact:
        for _ in range(rng.randint(0, 3)):
            lo, hi = sorted(rng.choices((ZERO, *QUARTERS, ONE), k=2))
            raw[rng.randrange(n)].append((rng.choice(g.edges).id, lo, hi))
    return [Piece.of(r) for r in raw]


def assert_verifier_matches_the_independent_check(g, pieces):
    edges = independent.graph(g.to_json())[1]
    for p in pieces:
        assert piece_component_count(g, p) == independent.piece_count(edges, triples(p))
    expected = independent.coverage(edges, [triples(p) for p in pieces])
    assert _edge_coverage(g, pieces) == expected
    # whole edges held with fresh 0 and 1 bounds, not the shared ones, read the same
    fresh = [Piece(tuple(Interval(iv.edge, F(iv.lo), F(iv.hi)) for iv in p.intervals)) for p in pieces]
    assert _edge_coverage(g, fresh) == expected


@st.composite
def small_allocations(draw):
    """A connected multigraph with at most 5 edges, parallel edges included,
    and pieces for one to three agents, an exact split of it or not."""
    g = draw(st.sampled_from(connected_multigraphs_up_to_iso(5)))
    exact = draw(st.booleans())
    pieces = random_allocation(draw(st.randoms(use_true_random=False)), g, draw(st.integers(1, 3)), exact)
    return g, pieces, exact


@settings(max_examples=300, deadline=None)
@given(small_allocations())
def test_verifier_matches_the_independent_check_on_small_multigraphs(case):
    g, pieces, exact = case
    assert_verifier_matches_the_independent_check(g, pieces)
    if exact:
        assert _edge_coverage(g, pieces) == (True, True)


def test_verifier_matches_the_independent_check_on_200_edge_graphs():
    rng = random.Random(27)
    for g in (ear_graph(rng, 200), mixed_graph(rng, 200)):
        for n, exact in ((2, True), (3, True), (2, False), (3, False)):
            assert_verifier_matches_the_independent_check(g, random_allocation(rng, g, n, exact))
        inst = Instance(g, random_valuations(rng, g, 2))
        for name in ("best2", "fixed2", "equit2"):
            assert_verifier_matches_the_independent_check(g, run_protocol(name, inst).allocation.pieces)
