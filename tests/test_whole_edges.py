"""Whole-edge intervals and region-tree nodes.

A whole edge [0, 1] is recognised by ``graph_core.is_whole`` with no ``Fraction``
order comparison, whatever form its bounds take, and region trees name graph
vertices by their ``str`` and only interior cut points by ``EdgePoint``.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from graphcake import protocols, valuation
from graphcake.allocation import Allocation, verify_allocation
from graphcake.errors import DisconnectedPiece, MalformedPiece
from graphcake.graph_core import (
    ONE,
    ZERO,
    EdgePoint,
    Interval,
    Piece,
    is_whole,
    parse_fraction,
)
from graphcake.protocols import _ends, _RootedTree
from graphcake.valuation import (
    Instance,
    Leg,
    Valuation,
    cut_query,
    value_of_piece,
)

from conftest import (
    cycle_graph,
    ear_graph,
    mixed_graph,
    path_graph,
    path_trajectory,
    star_graph,
    tree_fields,
    tree_graph,
    uniform_instance,
)

F = Fraction


def _counter(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that records each call in the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def big_ear():
    return ear_graph(random.Random(7), 400)


# -- no Fraction comparisons on whole edges ---------------------------------------


def test_a_whole_region_tree_makes_no_canonical_point_calls(monkeypatch, big_ear):
    points = _counter(monkeypatch, protocols, "canonical_point")
    compares = _counter(monkeypatch, Fraction, "_richcmp")
    legs = _counter(monkeypatch, Leg, "__init__")
    rt = _RootedTree(big_ear, big_ear.whole_piece().intervals)
    assert len(rt.parent) > big_ear.m // 2
    assert points == [] and compares == []
    # no leg is built until a walk asks for one
    assert legs == []
    rt.leg(1)
    assert len(legs) == 1


def test_knife_races_build_no_cake_point(monkeypatch):
    # cut_query alone turns a stop into a cake point; the protocols' races read
    # only the leg index, position and sweep offset
    points = _counter(monkeypatch, valuation, "canonical_point")
    rng = random.Random(3)
    for g, n, name in ((tree_graph(rng, 7), 3, "egal"), (path_graph(4), 3, "egal"), (cycle_graph(9), 2, "prop2")):
        res = protocols.run_protocol(name, uniform_instance(g, n))
        assert res.queries.cut_count > 0
    assert points == []
    cut_query(g, Valuation.uniform(g), (Leg(g.edges[0].id, ZERO, ONE),), F(1, 18))
    assert len(points) == 1


def test_piece_of_a_whole_piece_makes_no_fraction_order_comparison(monkeypatch, big_ear):
    ivs = big_ear.whole_piece().intervals
    compares = _counter(monkeypatch, Fraction, "_richcmp")
    assert Piece.of(ivs).intervals == ivs
    assert Piece.of(list(reversed(ivs))).intervals == ivs  # sorted by edge id only
    assert compares == []


def test_verifying_whole_edges_compares_only_the_agents_values(monkeypatch, big_ear):
    whole = big_ear.whole_piece()
    alone = uniform_instance(big_ear, 1)
    pair = uniform_instance(big_ear, 2)
    split = Allocation((Piece(whole.intervals[::2]), Piece(whole.intervals[1::2])))
    compares = _counter(monkeypatch, Fraction, "_richcmp")
    report = verify_allocation(alone, Allocation((whole,)))
    assert report.complete and report.disjoint and report.values == (1,)
    assert compares == []
    report = verify_allocation(pair, split)
    assert report.complete and report.disjoint
    # the only order comparisons are those of the two values: min for the
    # egalitarian value, max and min for the inequity
    assert len(compares) == 3


# -- the forms a whole edge's bounds take -------------------------------------------

BOUND_FORMS = {
    "ints": (0, 1),
    "constants": (ZERO, ONE),
    "parsed": (parse_fraction("0"), parse_fraction("1")),
}


def test_parsed_bounds_are_fresh_objects():
    lo, hi = BOUND_FORMS["parsed"]
    assert lo is not ZERO and hi is not ONE


@pytest.mark.parametrize("form", sorted(BOUND_FORMS))
def test_whole_edge_bounds_in_any_form_give_the_same_results(form):
    lo, hi = BOUND_FORMS[form]
    assert is_whole(lo, hi)
    assert not is_whole(hi, lo) and not is_whole(lo, F(1, 2)) and not is_whole(F(1, 2), hi)
    g = star_graph(3)
    inst = Instance(g, (Valuation.uniform(g), Valuation.from_edge_values({"e0": 1})), "cake")
    pieces = [
        Piece.of([Interval("e1", lo, hi), ("e0", lo, F(1, 2))]),
        Piece.of([("e0", F(1, 2), hi), Interval("e2", lo, hi)]),
    ]
    expected = [
        Piece((Interval("e0", ZERO, F(1, 2)), Interval("e1", ZERO, ONE))),
        Piece((Interval("e0", F(1, 2), ONE), Interval("e2", ZERO, ONE))),
    ]
    assert pieces == expected
    assert [value_of_piece(v, p) for v, p in zip(inst.agents, pieces)] == [F(1, 2), F(1, 2)]
    assert value_of_piece(inst.agents[0], Piece((Interval("e2", lo, hi),))) == F(1, 3)
    report = verify_allocation(inst, Allocation(tuple(pieces)))
    assert report.to_json() == verify_allocation(inst, Allocation(tuple(expected))).to_json()
    assert report.complete and report.disjoint and report.values == (F(1, 2), F(1, 2))


@pytest.mark.parametrize("form", sorted(BOUND_FORMS))
def test_two_agents_holding_one_whole_edge_are_not_disjoint(form):
    lo, hi = BOUND_FORMS[form]
    inst = uniform_instance(star_graph(3), 2)
    both = Piece((Interval("e0", lo, hi), Interval("e1", lo, hi)))
    other = Piece((Interval("e0", lo, hi), Interval("e2", lo, hi)))
    report = verify_allocation(inst, Allocation((both, other)))
    assert not report.disjoint and report.complete
    report = verify_allocation(inst, Allocation((both, Piece.empty())))
    assert report.disjoint and not report.complete


@pytest.mark.parametrize("form", sorted(BOUND_FORMS))
def test_only_whole_edges_skip_the_bound_checks(form):
    lo, hi = BOUND_FORMS[form]
    with pytest.raises(MalformedPiece, match="reversed"):
        Piece.of([("e0", hi, lo)])
    for bad in [(lo, F(2)), (F(-1), hi), (F(-1), F(2))]:
        with pytest.raises(MalformedPiece, match="outside"):
            Piece.of([("e0", *bad)])
    # a bound is a Fraction or an int: a bool, a float or a string is refused,
    # in a tuple and in an Interval that is not a whole edge
    for bad in [(True, hi), (lo, True), (0.1, hi), (lo, 0.5), ("x", hi), (lo, "1"), (None, hi)]:
        with pytest.raises(MalformedPiece, match="is not a Fraction or an int"):
            Piece.of([("e0", *bad)])
    for bad in [(0.1, hi), (lo, 0.5), (True, F(1, 2)), (F(1, 2), True), (F(1, 4), "1/2")]:
        with pytest.raises(MalformedPiece, match="is not a Fraction or an int"):
            Piece.of([Interval("e0", *bad)])
    # a whole edge skips only the range test: a float or a bool equal to 0 or
    # 1 is refused too, in an Interval as in a tuple
    for bad in [(0.0, hi), (lo, 1.0), (False, hi), (lo, True), (0.0, 1.0), (False, True)]:
        with pytest.raises(MalformedPiece, match="is not a Fraction or an int"):
            Piece.of([Interval("e0", *bad)])
        with pytest.raises(MalformedPiece, match="is not a Fraction or an int"):
            Piece.of([("e0", *bad)])
    # a repeated whole edge is merged, not kept as given
    assert Piece.of([("e0", lo, hi), ("e0", lo, hi)]).intervals == (Interval("e0", ZERO, ONE),)
    assert Piece.of([("e0", lo, lo), ("e1", lo, hi)]).intervals == (Interval("e1", ZERO, ONE),)


@pytest.mark.parametrize("form", sorted(BOUND_FORMS))
def test_piece_of_stores_fractions_and_shared_whole_edge_bounds(form):
    lo, hi = BOUND_FORMS[form]
    given = Interval("e0", lo, hi)
    # in canonical order, and out of it, so that the sort-and-merge pass runs too
    for ordered in (True, False):
        items = [given, ("e1", lo, hi), Interval("e2", lo, F(1, 2)), ("e2", F(3, 4), hi)]
        piece = Piece.of(items if ordered else items[::-1])
        assert piece.intervals == (
            Interval("e0", ZERO, ONE),
            Interval("e1", ZERO, ONE),
            Interval("e2", ZERO, F(1, 2)),
            Interval("e2", F(3, 4), ONE),
        )
        for iv in piece.intervals:
            assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        # a whole edge built here takes the shared bounds; an Interval given
        # with Fraction bounds is kept as it is
        assert piece.intervals[1].lo is ZERO and piece.intervals[1].hi is ONE
        if form == "ints":
            assert piece.intervals[0].lo is ZERO and piece.intervals[0].hi is ONE
        else:
            assert piece.intervals[0] is given


# -- region trees keyed by vertex name ------------------------------------------------


def test_interval_ends_are_vertex_names_or_interior_cut_points():
    g = path_graph(2)  # v0 -e0- v1 -e1- v2
    for lo, hi in BOUND_FORMS.values():
        assert _ends(g, Interval("e0", lo, hi)) == ("v0", "v1")
        assert _ends(g, Interval("e0", F(1, 2), hi)) == (EdgePoint("e0", F(1, 2)), "v1")
        assert _ends(g, Interval("e1", lo, F(1, 3))) == ("v1", EdgePoint("e1", F(1, 3)))
    assert _ends(g, Interval("e1", F(1, 3), F(2, 3))) == (
        EdgePoint("e1", F(1, 3)),
        EdgePoint("e1", F(2, 3)),
    )


def test_partial_intervals_ending_at_a_vertex_join_its_node():
    g = path_graph(2)
    # both partial intervals end at v1, so the region is one tree of three nodes
    rt = _RootedTree(g, [Interval("e0", F(1, 2), ONE), Interval("e1", ZERO, F(1, 2))])
    assert rt.parent == [-1, 0, 0] and rt.children[0] == [1, 2]
    assert [rt.leg(1), rt.leg(2)] == [Leg("e0", F(1, 2), ONE), Leg("e1", F(1, 2), ZERO)]
    assert rt.upper == [False, False, True]
    # a whole edge and a partial one meet at v1 as well
    rt = _RootedTree(g, [Interval("e0", ZERO, ONE), Interval("e1", parse_fraction("0"), F(1, 2))])
    assert rt.parent == [-1, 0, 1] and rt.children == [[1], [2], []]
    assert [rt.leg(1), rt.leg(2)] == [Leg("e0", ONE, ZERO), Leg("e1", F(1, 2), ZERO)]
    with pytest.raises(DisconnectedPiece):
        _RootedTree(g, [Interval("e0", ZERO, F(1, 2)), Interval("e1", F(1, 2), ONE)])


def test_path_sweeps_from_cut_points_and_vertices():
    g = path_graph(3)  # v0 -e0- v1 -e1- v2 -e2- v3
    region = Piece.of(
        [Interval("e0", F(1, 3), ONE), Interval("e1", ZERO, ONE), Interval("e2", ZERO, F(1, 2))]
    )
    forward = (Leg("e0", F(1, 3), ONE), Leg("e1", ZERO, ONE), Leg("e2", ZERO, F(1, 2)))
    assert path_trajectory(g, region) == forward  # the least end
    whole = g.whole_piece()
    legs = (Leg("e0", ZERO, ONE), Leg("e1", ZERO, ONE), Leg("e2", ZERO, ONE))
    assert path_trajectory(g, whole) == legs
    # a region with a vertex at one end and a cut point at the other starts at
    # the vertex, since vertices come before cut points
    tail = Piece.of([Interval("e1", ZERO, ONE), Interval("e2", ZERO, F(1, 2))])
    from_vertex = (Leg("e1", ZERO, ONE), Leg("e2", ZERO, F(1, 2)))
    assert path_trajectory(g, tail) == from_vertex


def test_a_star_region_rooted_at_its_center_keeps_piece_order():
    g = star_graph(12)  # spokes e0..e11 from c, piece order e0, e1, e10, e11, e2, ...
    region = Piece.of(Interval("e1", ZERO, F(1, 2)) if iv.edge == "e1" else iv for iv in g.whole_piece().intervals)
    order = ["e0", "e1", "e10", "e11", *(f"e{i}" for i in range(2, 10))]
    for root in ("c", None):
        rt = _RootedTree(g, region.intervals, root)
        assert rt.children[0] == list(range(1, 13))
        assert [rt.leg(w).edge for w in rt.children[0]] == order
        assert rt.intervals is region.intervals and rt.position[1:] == list(range(12))
        assert rt.leg(2) == Leg("e1", F(1, 2), ZERO)
        assert all(rt.leg(w) == Leg(region.intervals[w - 1].edge, ONE, ZERO) for w in rt.children[0] if w != 2)


# -- region tree builds against a reference -------------------------------------------


def reference_cycle_breaks(ends):
    """Links cut loose, scanned from the last back, over nodes keyed by name
    (test-only reference)."""
    index = {}
    for link in ends:
        for end in link:
            index.setdefault(end, len(index))
    parent = list(range(len(index)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    loose = [False] * len(ends)
    for i in range(len(ends) - 1, -1, -1):
        ra, rb = find(index[ends[i][0]]), find(index[ends[i][1]])
        loose[i] = ra == rb
        parent[rb] = ra
    return loose


def reference_tree_fields(g, intervals, root=None, forest=False):
    """A region tree's nodes and the fields ``tree_fields`` reads, from a build
    over a dict of links keyed by ``Node`` and a BFS over an index dict that
    builds every leg (test-only reference)."""
    ends = [_ends(g, iv) for iv in intervals]
    links = defaultdict(list)
    for iv, (a, b), loose in zip(intervals, ends, reference_cycle_breaks(ends)):
        if loose:
            b = EdgePoint(iv.edge, iv.hi)
        links[a].append((b, iv, True, loose))
        links[b].append((a, iv, False, loose))
    if root is None:
        root = min(links, key=protocols._node_key, default=None)
    index = {root: 0}
    nodes, parent, spans, legs, children = [root], [-1], [None], [None], [[]]
    loose_leaves, connected = [], True
    for v, p in enumerate(nodes):
        for w, iv, upper, loose in links.get(p, ()):
            if w not in index:
                child = index[w] = len(nodes)
                nodes.append(w)
                parent.append(v)
                spans.append(iv)
                start, end = (iv.hi, iv.lo) if upper else (iv.lo, iv.hi)
                legs.append(Leg(iv.edge, start, end))
                children.append([])
                children[v].append(child)
                if loose:
                    loose_leaves.append(child)
        if v == len(nodes) - 1 and len(nodes) < len(links):
            if not forest:
                raise DisconnectedPiece("piece is not connected")
            connected = False
            top = min((q for q in links if q not in index), key=protocols._node_key)
            children[0].append(len(nodes))
            index[top] = len(nodes)
            nodes.append(top)
            parent.append(0)
            spans.append(None)
            legs.append(None)
            children.append([])
    fields = {
        "parent": parent,
        "children": children,
        "spans": spans,
        "legs": legs[1:],
        "loose": loose_leaves,
        "connected": connected,
        "sums": [],
    }
    return nodes, fields


def _assert_builds_alike(g, intervals, root=None, forest=False):
    try:
        expected = reference_tree_fields(g, intervals, root, forest)
    except DisconnectedPiece:
        with pytest.raises(DisconnectedPiece):
            _RootedTree(g, intervals, root, forest)
        return False
    assert tree_fields(_RootedTree(g, intervals, root, forest)) == expected[1]
    return True


def _cut_region(rng, g, cuts):
    """The whole graph less ``cuts`` random partial intervals, some ending at a vertex."""
    taken = defaultdict(list)
    for _ in range(cuts):
        e = rng.choice(g.edges).id
        taken[e].append(sorted(rng.sample([ZERO, F(1, 4), F(1, 3), F(1, 2), F(3, 4), ONE], 2)))
    kept = []
    for e in g.edges:
        reach = ZERO  # each gap between the taken intervals is kept
        for lo, hi in sorted(taken[e.id]) + [[ONE, ONE]]:
            kept.append(Interval(e.id, reach, max(reach, lo)))
            reach = max(reach, hi)
    return Piece.of(kept)


def test_tree_builds_of_whole_200_edge_graphs_match_the_reference():
    rng = random.Random(31)
    graphs = [
        ear_graph(rng, 200),
        tree_graph(rng, 200),
        mixed_graph(rng, 200),
        cycle_graph(200),
        path_graph(200),
        star_graph(200),
    ]
    for g in graphs:
        whole = g.whole_piece().intervals
        assert _assert_builds_alike(g, whole)
        # in stored edge order, as the whole-graph sweeps build them
        assert _assert_builds_alike(g, [Interval(e.id, ZERO, ONE) for e in g.edges])
        assert _assert_builds_alike(g, whole, g.vertices[-1])


def test_tree_builds_of_cut_regions_match_the_reference():
    rng = random.Random(37)
    built = split = 0
    for trial in range(60):
        g = (ear_graph, tree_graph, mixed_graph)[trial % 3](rng, rng.randint(2, 40))
        region = _cut_region(rng, g, rng.randint(1, 6)).intervals
        for forest in (False, True):
            if _assert_builds_alike(g, region, forest=forest):
                built += 1
            else:
                split += 1
        # rooted at a given vertex, or at an interior cut point of the region
        nodes = reference_tree_fields(g, region, forest=True)[0]
        for root in (rng.choice(nodes), next((p for p in nodes if isinstance(p, EdgePoint)), None)):
            if root is not None:
                _assert_builds_alike(g, region, root, forest=True)
    # both connected and disconnected regions were met
    assert built > 60 and split > 0


def test_tree_builds_of_disconnected_and_empty_regions_match_the_reference():
    g = path_graph(4)  # v0 -e0- v1 -e1- v2 -e2- v3 -e3- v4
    apart = Piece.of(
        [Interval("e0", ZERO, F(1, 2)), Interval("e2", F(1, 3), ONE), Interval("e3", ZERO, ONE)]
    ).intervals
    assert not _assert_builds_alike(g, apart)
    assert _assert_builds_alike(g, apart, forest=True)
    assert reference_tree_fields(g, apart, forest=True)[1]["connected"] is False
    for forest in (False, True):
        assert _assert_builds_alike(g, [], forest=forest)
    assert reference_tree_fields(g, [])[0] == [None]
    assert tree_fields(_RootedTree(g, [])) == {
        "parent": [-1],
        "children": [[]],
        "spans": [None],
        "legs": [],
        "loose": [],
        "connected": True,
        "sums": [],
    }
