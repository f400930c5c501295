import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcake import graph_core
from graphcake.errors import (
    DisconnectedPiece,
    GraphConstructionError,
    MalformedInput,
    MalformedPiece,
    NotAlmostBridgeless,
    ProtocolInvariantError,
)
from graphcake.graph_core import (
    CakeGraph,
    Interval,
    OrientedLabeling,
    Piece,
    classify_almost_bridgeless,
    compute_contiguous_labeling,
    find_bipolar_numbering,
    find_bridges,
    induced_cake,
    is_contiguous,
    parse_fraction,
    piece_component_count,
    piece_is_connected,
    split_cycles_to_tree,
)

import independent
from conftest import (
    connected_multigraphs_up_to_iso,
    cycle_graph,
    ear_graph,
    edge_piece,
    measure,
    mixed_graph,
    path_graph,
    random_multigraph,
    single_edge_graph,
    star_graph,
    tree_graph,
    triangle,
    triples,
)

F = Fraction


# -- construction ------------------------------------------------------------


def test_rejects_loops_and_disconnection():
    with pytest.raises(GraphConstructionError):
        CakeGraph(["a"], [("e0", "a", "a")])
    with pytest.raises(GraphConstructionError):
        CakeGraph(["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "c", "d")])
    with pytest.raises(GraphConstructionError):
        CakeGraph(["a", "b"], [])


def test_parallel_edges_allowed():
    g = CakeGraph(["a", "b"], [("e0", "a", "b"), ("e1", "a", "b")])
    assert g.m == 2


def test_graph_json_round_trip():
    g = triangle()
    assert CakeGraph.from_json(g.to_json()).to_json() == g.to_json()


# a DOT quoted string: quotes around characters that are neither a quote nor
# a backslash, or a backslash and the character it escapes
_DOT_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


def _dot_names(text):
    """Every quoted string of a DOT text, read back, and the text left outside them."""
    names = [re.sub(r"\\(.)", r"\1", body, flags=re.DOTALL) for body in _DOT_QUOTED.findall(text)]
    return names, _DOT_QUOTED.sub("", text)


def test_dot_output_quotes_every_name_so_it_reads_back():
    odd = ['a"b', "c\\", "d\\e", 'f\\"g', '"', "\\", "h\\\\", "new\nline", "plain"]
    g = CakeGraph(odd, [(f"e{i}{name}", name, odd[(i + 1) % len(odd)]) for i, name in enumerate(odd)])
    names, outside = _dot_names(g.to_dot(dashed_edges=["e0" + odd[0]]))
    assert names == odd + [x for e in g.edges for x in (e.u, e.v, e.id)]
    # every quote belongs to a quoted string
    assert '"' not in outside and outside.count("style=dashed") == 1
    # a name with neither a quote nor a backslash prints as before
    star = CakeGraph(["c", "l0", "l 1"], [("e0", "c", "l0"), ("e-1", "l 1", "c")])
    assert star.to_dot(["e0"]) == (
        'graph cake {\n  "c";\n  "l0";\n  "l 1";\n'
        '  "c" -- "l0" [label="e0", style=dashed];\n  "l 1" -- "c" [label="e-1"];\n}'
    )


# -- pieces ------------------------------------------------------------------


def test_piece_canonicalization_merges_and_drops():
    p = Piece.of(
        [
            Interval("e0", F(1, 2), F(1, 2)),
            Interval("e0", F(0), F(1, 4)),
            Interval("e0", F(1, 4), F(1, 2)),
            Interval("e1", F(1, 3), F(2, 3)),
        ]
    )
    assert p.intervals == (
        Interval("e0", F(0), F(1, 2)),
        Interval("e1", F(1, 3), F(2, 3)),
    )


def test_piece_rejects_bad_bounds():
    with pytest.raises(MalformedPiece):
        Piece.of([Interval("e0", F(-1, 2), F(1, 2))])
    with pytest.raises(MalformedPiece):
        Piece.of([Interval("e0", F(0), F(3, 2))])


PIECE_EDGES = ["e0", "e1", "e2"]
TWELFTHS = st.integers(-1, 13).map(lambda k: F(k, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(PIECE_EDGES),
            TWELFTHS,
            TWELFTHS,
            st.integers(0, 7).map(lambda k: k == 0),
            st.booleans(),
        ),
        max_size=8,
    )
)
def test_piece_of_matches_the_sort_and_merge_reference(raw):
    # unsorted, overlapping, touching, zero-length and out-of-range intervals,
    # some with lo > hi, given as Interval objects or as plain triples
    items = []
    for e, a, b, reversed_bounds, as_interval in raw:
        lo, hi = (max(a, b), min(a, b)) if reversed_bounds else (min(a, b), max(a, b))
        items.append(Interval(e, lo, hi) if as_interval else (e, lo, hi))
    # in sorted order, touching and overlapping neighbours must still be merged
    in_order = sorted(item if isinstance(item, Interval) else Interval(*item) for item in items)
    for given_items in (items, in_order):
        given = [(x.edge, x.lo, x.hi) if isinstance(x, Interval) else x for x in given_items]
        bad = [(e, lo, hi) for e, lo, hi in given if not 0 <= lo <= hi <= 1]
        if bad:
            # the first interval out of [0, 1] or with lo > hi is named, and
            # said to be reversed only when both its bounds lie in [0, 1]
            e, lo, hi = bad[0]
            wrong = "reversed" if 0 <= lo <= 1 and 0 <= hi <= 1 else "outside [0, 1]"
            with pytest.raises(MalformedPiece, match=re.escape(f"interval [{lo}, {hi}] {wrong} on edge {e!r}")):
                Piece.of(given_items)
            continue
        piece = Piece.of(given_items)
        assert triples(piece) == independent.canonical(given)
        # an Interval that meets no other one of positive length on its
        # edge is kept as the very object given
        for iv in piece.intervals:
            meets = [
                item for item, (e, lo, hi) in zip(given_items, given)
                if e == iv.edge and lo < hi and lo <= iv.hi and iv.lo <= hi
            ]
            if len(meets) == 1 and isinstance(meets[0], Interval):
                assert iv is meets[0]


def test_intervals_have_no_instance_dict():
    # every graph keeps its whole piece, so intervals are kept small
    assert not hasattr(Interval("e0", F(0), F(1)), "__dict__")


def test_whole_piece_is_built_once_in_edge_id_order():
    g = CakeGraph(["a", "b", "c"], [("e2", "a", "b"), ("e10", "b", "c")])
    whole = g.whole_piece()
    assert whole == Piece.of([Interval("e2", F(0), F(1)), Interval("e10", F(0), F(1))])
    assert [iv.edge for iv in whole.intervals] == ["e10", "e2"]
    assert g.whole_piece() is whole


@pytest.mark.parametrize("value", [True, False])
def test_parse_fraction_rejects_bools(value):
    with pytest.raises(MalformedInput, match="is not a rational number"):
        parse_fraction(value)


@pytest.mark.parametrize("edge", [1, ["e0"], None])
def test_piece_from_json_rejects_edge_ids_that_are_not_strings(edge):
    with pytest.raises(MalformedPiece, match="is not a string"):
        Piece.from_json([[edge, "0", "1"], ["e0", "0", "1"]])


# -- piece connectivity ------------------------------------------------------


def test_two_star_halves_meeting_at_center_connected():
    g = star_graph(3)
    p = Piece.of([Interval("e0", F(0), F(1, 2)), Interval("e1", F(0), F(1, 2))])
    assert piece_is_connected(g, p)


def test_gap_on_one_edge_disconnected():
    g = single_edge_graph()
    p = Piece.of([Interval("e0", F(0), F(1, 4)), Interval("e0", F(1, 2), F(1))])
    assert not piece_is_connected(g, p)
    assert piece_component_count(g, p) == 2


def test_triangle_minus_interior_interval_connected():
    g = triangle()
    p = Piece.of([("e0", F(0), F(1)), ("e1", F(0), F(1, 4)), ("e1", F(1, 2), F(1)), ("e2", F(0), F(1))])
    assert piece_is_connected(g, p)


def test_empty_piece_connected():
    assert piece_is_connected(single_edge_graph(), Piece.empty())


QUARTERS = st.integers(0, 4).map(lambda k: F(k, 4))


@st.composite
def multigraph_pieces(draw):
    """A small connected multigraph, parallel edges allowed, and a piece of it
    with several intervals to an edge, partial ones ending at 0 or 1, or none."""
    nv = draw(st.integers(2, 5))
    # a spanning tree first, so the graph is connected, then any further edges
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    ends = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda t: t[0] != t[1])
    pairs += draw(st.lists(ends, max_size=5))
    edges = [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(pairs)]
    g = CakeGraph([f"v{i}" for i in range(nv)], edges)
    raw = draw(st.lists(st.tuples(st.sampled_from(g.edges), QUARTERS, QUARTERS), max_size=10))
    return g, Piece.of((e.id, min(a, b), max(a, b)) for e, a, b in raw)


@settings(max_examples=300, deadline=None)
@given(multigraph_pieces())
def test_piece_component_count_matches_the_independent_count(case):
    g, p = case
    count = independent.piece_count(independent.graph(g.to_json())[1], triples(p))
    assert piece_component_count(g, p) == count
    assert piece_is_connected(g, p) == (count <= 1)


@pytest.mark.parametrize("check", [piece_is_connected, piece_component_count])
def test_piece_connectivity_rejects_an_unknown_edge(check):
    g = triangle()
    for p in (Piece.of([("e9", F(0), F(1))]), Piece.of([("e0", F(0), F(1)), ("e9", F(1, 2), F(1))])):
        with pytest.raises(MalformedPiece, match="unknown edge 'e9'"):
            check(g, p)


# -- bridges -----------------------------------------------------------------


def test_bridges_examples():
    assert find_bridges(triangle()) == set()
    assert find_bridges(star_graph(3)) == {"e0", "e1", "e2"}
    assert find_bridges(path_graph(3)) == {"e0", "e1", "e2"}
    # parallel edges never bridge
    g = CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "a", "b"), ("e2", "b", "c")])
    assert find_bridges(g) == {"e2"}


def test_flower_graph_is_bridgeless():
    from graphcake.fixtures import FixtureSpec, build_fixture

    inst = build_fixture(FixtureSpec("fig1_flowers", {"side": "left"}))
    assert inst.graph.m == 9
    assert find_bridges(inst.graph) == set()


def test_bridges_match_deletion_oracle_on_random_graphs():
    rng = random.Random(20240)
    for _ in range(120):
        g = random_multigraph(rng, max_edges=8)
        vertices, edges = independent.graph(g.to_json())
        assert find_bridges(g) == independent.bridges(vertices, edges), g.to_json()
        assert classify_almost_bridgeless(g).is_almost_bridgeless == independent.almost_bridgeless(vertices, edges)


# -- almost-bridgeless classification ----------------------------------------


def test_classify_examples():
    w = classify_almost_bridgeless(path_graph(3))
    assert w.is_almost_bridgeless and set(w.endpoints) == {"v0", "v3"}
    w = classify_almost_bridgeless(star_graph(3))
    assert not w.is_almost_bridgeless and set(w.obstruction) == {"e0", "e1", "e2"}
    w = classify_almost_bridgeless(triangle())
    assert w.is_almost_bridgeless
    x, y = w.endpoints
    assert {x, y} <= {"a", "b", "c"} and x != y


def _add_edge(g: CakeGraph, x: str, y: str) -> CakeGraph:
    edges = [(e.id, e.u, e.v) for e in g.edges] + [("@new", x, y)]
    return CakeGraph(g.vertices, edges)


def _simple_paths_edges(g: CakeGraph):
    """Edge sets of all simple paths (distinct vertices) in a small graph."""
    for start in g.vertices:
        stack = [(start, {start}, frozenset())]
        while stack:
            at, seen, used = stack.pop()
            yield used
            for e in g.incident(at):
                w = e.other(at)
                if w not in seen:
                    stack.append((w, seen | {w}, used | {e.id}))


def test_classification_witnesses_on_random_graphs():
    rng = random.Random(77)
    for _ in range(80):
        g = random_multigraph(rng, max_edges=6)
        w = classify_almost_bridgeless(g)
        if w.is_almost_bridgeless:
            assert find_bridges(_add_edge(g, *w.endpoints)) == set()
        else:
            three = set(w.obstruction)
            assert all(len(three & path) < 3 for path in _simple_paths_edges(g))


# -- oriented labelings --------------------------------------------------------


def test_single_edge_labeling():
    g = single_edge_graph()
    lab = compute_contiguous_labeling(g)
    assert lab.order == ("e0",)
    assert is_contiguous(g, lab)


def test_triangle_labeling_head_to_tail_passes():
    g = triangle()
    lab = OrientedLabeling(("e0", "e1", "e2"), {"e0": "a", "e1": "b", "e2": "c"})
    assert is_contiguous(g, lab)


def test_triangle_labeling_reversed_middle_fails():
    g = triangle()
    lab = OrientedLabeling(("e0", "e1", "e2"), {"e0": "a", "e1": "c", "e2": "c"})
    assert not is_contiguous(g, lab)


def test_computed_labelings_pass_predicate():
    from graphcake.fixtures import random_instance

    graphs = [random_instance(seed, n=1, family="cycle-augmented", edges=7).graph for seed in range(40)]
    for g in (*graphs, ear_graph(random.Random(7), 1600)):
        lab = compute_contiguous_labeling(g)
        assert is_contiguous(g, lab)


def test_labeling_refused_off_class():
    with pytest.raises(NotAlmostBridgeless):
        compute_contiguous_labeling(star_graph(3))


def test_flower_graphs_admit_labelings():
    from graphcake.fixtures import FixtureSpec, build_fixture

    for side in ("left", "right"):
        g = build_fixture(FixtureSpec("fig1_flowers", {"side": side})).graph
        assert is_contiguous(g, compute_contiguous_labeling(g))


def test_labeling_with_a_missing_tail_is_not_contiguous():
    g = triangle()
    assert not is_contiguous(g, OrientedLabeling(("e0", "e1", "e2"), {"e0": "a", "e1": "b"}))


def test_labeling_must_list_each_edge_once():
    g = triangle()
    tails = {"e0": "a", "e1": "b", "e2": "c"}
    assert not is_contiguous(g, OrientedLabeling(("e0", "e1", "e1"), tails))
    assert not is_contiguous(g, OrientedLabeling(("e0", "e1", "e2", "e2"), tails))
    assert not is_contiguous(g, OrientedLabeling(("e0", "e1"), tails))


def test_single_edge_labelings():
    g = single_edge_graph()
    assert is_contiguous(g, OrientedLabeling(("e0",), {"e0": "a"}))
    assert is_contiguous(g, OrientedLabeling(("e0",), {"e0": "b"}))
    assert not is_contiguous(g, OrientedLabeling(("e0",), {"e0": "c"}))
    assert not is_contiguous(g, OrientedLabeling((), {}))


def _is_contiguous_by_blocks(g, lab):
    """Reference: the contiguity predicate read literally, with one union-find per
    prefix and per suffix, O(m^2)."""
    if sorted(lab.order) != sorted(e.id for e in g.edges):
        return False
    if any(lab.tails[e_id] not in (g.edge(e_id).u, g.edge(e_id).v) for e_id in lab.order):
        return False

    def block_ok(edge_ids, anchor):
        if not edge_ids:
            return True
        parent = {}

        def find(v):
            parent.setdefault(v, v)
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e_id in edge_ids:
            e = g.edge(e_id)
            parent[find(e.u)] = find(e.v)
        return len({find(v) for v in parent}) == 1 and anchor in parent

    m = len(lab.order)
    return all(
        block_ok(lab.order[: i - 1], lab.tails[lab.order[i - 1]]) for i in range(2, m + 1)
    ) and all(block_ok(lab.order[i:], lab.head(g, lab.order[i - 1])) for i in range(1, m))


def _random_labeling(rng, g):
    """Half the draws are arbitrary; the other half grow every prefix from its
    anchor, so that a fair share of them are contiguous."""
    if rng.random() < 0.5:
        order = [e.id for e in g.edges]
        rng.shuffle(order)
        tails = {e_id: rng.choice((g.edge(e_id).u, g.edge(e_id).v)) for e_id in order}
        return OrientedLabeling(tuple(order), tails)
    left = list(g.edges)
    touched, order, tails = set(), [], {}
    while left:
        e, tail = rng.choice([(e, t) for e in left for t in (e.u, e.v) if not touched or t in touched])
        left.remove(e)
        order.append(e.id)
        tails[e.id] = tail
        touched |= {e.u, e.v}
    return OrientedLabeling(tuple(order), tails)


def test_is_contiguous_matches_block_reference_on_small_multigraphs():
    rng = random.Random(2024)
    verdicts = Counter()
    for g in connected_multigraphs_up_to_iso(5):
        for _ in range(300):
            lab = _random_labeling(rng, g)
            expected = _is_contiguous_by_blocks(g, lab)
            assert is_contiguous(g, lab) == expected, (g.to_json(), lab)
            verdicts[expected] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def _perturbed(rng, g, lab):
    """Swap two nearby labels or flip one tail."""
    order, tails = list(lab.order), dict(lab.tails)
    i = rng.randrange(len(order))
    if rng.random() < 0.5:
        j = min(len(order) - 1, i + rng.randint(1, 3))
        order[i], order[j] = order[j], order[i]
    else:
        tails[order[i]] = g.edge(order[i]).other(tails[order[i]])
    return OrientedLabeling(tuple(order), tails)


def test_is_contiguous_matches_block_reference_on_perturbed_large_labelings():
    rng = random.Random(7)
    graphs = [cycle_graph(800)] + [ear_graph(rng, m) for m in (200, 400, 800)]
    verdicts = Counter()
    for g in graphs:
        lab = compute_contiguous_labeling(g)
        assert _is_contiguous_by_blocks(g, lab)
        for _ in range(4):
            variant = _perturbed(rng, g, lab)
            expected = _is_contiguous_by_blocks(g, variant)
            assert is_contiguous(g, variant) == expected
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_labeling_self_check_raises_instead_of_asserting(monkeypatch):
    # a fresh graph: one analysed before the patch would answer from what it keeps
    g = triangle()
    with monkeypatch.context() as patched:
        patched.setattr(graph_core, "is_contiguous", lambda g, lab: False)
        with pytest.raises(ProtocolInvariantError):
            compute_contiguous_labeling(g)
        with pytest.raises(ProtocolInvariantError):
            compute_contiguous_labeling(g)
    # a failed self-check keeps nothing, so the same graph builds it again
    assert is_contiguous(g, compute_contiguous_labeling(g))


# -- what a graph keeps ----------------------------------------------------------


def test_kept_labeling_is_read_only_and_bridge_sets_are_fresh():
    g = CakeGraph(["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"), ("e3", "c", "d")])
    lab = compute_contiguous_labeling(g)
    with pytest.raises(TypeError):
        lab.tails["e0"] = "b"
    assert compute_contiguous_labeling(g) is lab
    bridges = find_bridges(g)
    assert bridges == {"e3"}
    bridges.add("e0")
    bridges.discard("e3")
    assert find_bridges(g) == {"e3"}
    assert find_bridges(g) is not find_bridges(g)
    assert classify_almost_bridgeless(g) is classify_almost_bridgeless(g)


def test_kept_edge_ends_are_read_only_and_built_once():
    # parallel edges a-b, given in both directions, and a pendant edge b-c
    g = CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "b", "c")])
    compute_contiguous_labeling(g)
    find_bridges(g)
    # only the component count reads the index, so the graph analyses build none
    assert g._kept_ends is None
    assert piece_component_count(g, edge_piece("e0")) == 1
    ends = g._kept_ends
    assert dict(ends) == {"e0": (0, 1), "e1": (1, 0), "e2": (1, 2)}
    with pytest.raises(TypeError):
        ends["e0"] = (1, 0)
    with pytest.raises(TypeError):
        ends["e9"] = (0, 2)
    pieces = [g.whole_piece(), edge_piece("e0", "e2"), Piece.of([("e1", F(1, 2), F(1)), ("e2", F(0), F(1, 4))])]
    assert [piece_component_count(g, p) for p in pieces] == [1, 1, 2]
    assert [piece_is_connected(g, p) for p in pieces] == [True, True, False]
    assert g._kept_ends is ends and graph_core._edge_ends(g) is ends
    # an equal graph keeps an index of its own
    twin = CakeGraph.from_json(g.to_json())
    assert graph_core._edge_ends(twin) == ends and graph_core._edge_ends(twin) is not ends


def _labeling_or_none(g):
    try:
        return compute_contiguous_labeling(g)
    except NotAlmostBridgeless:
        return None


ANALYSES = {
    "classify": classify_almost_bridgeless,
    "bridges": find_bridges,
    "labeling": _labeling_or_none,
    "bipolar": find_bipolar_numbering,
}


def test_analyses_do_not_depend_on_call_order():
    rng = random.Random(25)
    graphs = [tree_graph(rng, 200), cycle_graph(200), ear_graph(rng, 200), mixed_graph(rng, 200)]
    graphs += connected_multigraphs_up_to_iso(5)
    orders = list(itertools.permutations(ANALYSES))
    for g in graphs:
        doc = g.to_json()
        # each analysis on a copy of its own, so nothing it reads was kept before
        expected = {name: run(CakeGraph.from_json(doc)) for name, run in ANALYSES.items()}
        for order in orders:
            copy = CakeGraph.from_json(doc)
            first = {name: ANALYSES[name](copy) for name in order}
            again = {name: run(copy) for name, run in ANALYSES.items()}
            assert first == again == expected, (doc, order)


# -- bipolar numberings --------------------------------------------------------


def reference_bipolar_order(g):
    """Exhaustive backtracking over vertex orders, the search the block test
    replaced: the first order (vertex order breaks ties) in which every vertex
    but the last has a later neighbor and every vertex but the first an
    earlier one, or None.  Only orders whose prefixes are connected are
    grown, and a prefix is dropped once a vertex before its newest one has
    every neighbor placed and none after it."""
    k = len(g.vertices)
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    placed: list = []
    placed_set: set = set()

    def stuck():
        rank = {v: i for i, v in enumerate(placed)}
        return any(
            nbrs[u] <= placed_set and not any(rank[w] > rank[u] for w in nbrs[u])
            for u in placed[:-1]
        )

    def backtrack():
        if len(placed) == k:
            return list(placed)
        for v in g.vertices:
            if v in placed_set or (placed and not nbrs[v] & placed_set):
                continue
            placed.append(v)
            placed_set.add(v)
            result = None if stuck() else backtrack()
            placed.pop()
            placed_set.remove(v)
            if result is not None:
                return result
        return None

    return backtrack()


def _numbering_is_bipolar(g, labels):
    k = len(g.vertices)
    if sorted(labels.values()) != list(range(1, k + 1)):
        return False
    for v in g.vertices:
        nbr_labels = [labels[w] for w in g.neighbors(v)]
        if labels[v] > 1 and not any(x < labels[v] for x in nbr_labels):
            return False
        if labels[v] < k and not any(x > labels[v] for x in nbr_labels):
            return False
    return True


def test_bipolar_single_edge():
    assert find_bipolar_numbering(single_edge_graph()).labels == {"a": 1, "b": 2}


def test_bipolar_triangle_exists():
    assert find_bipolar_numbering(triangle()) is not None


def test_bipolar_numberings_on_large_graphs():
    # far past what the exhaustive search could settle
    for g in (path_graph(200), ear_graph(random.Random(7), 400), ear_graph(random.Random(7), 1600)):
        numbering = find_bipolar_numbering(g)
        assert numbering is not None and _numbering_is_bipolar(g, numbering.labels)


def test_bipolar_implies_almost_bridgeless_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_multigraph(rng, max_edges=6)
        if find_bipolar_numbering(g) is not None:
            assert classify_almost_bridgeless(g).is_almost_bridgeless


def test_found_numberings_are_valid():
    rng = random.Random(99)
    for _ in range(40):
        g = random_multigraph(rng, max_edges=6)
        numbering = find_bipolar_numbering(g)
        if numbering is not None:
            assert _numbering_is_bipolar(g, numbering.labels)


def test_bipolar_existence_matches_the_exhaustive_search():
    rng = random.Random(16)
    graphs = list(connected_multigraphs_up_to_iso(5))
    graphs += [random_multigraph(rng, max_edges=9) for _ in range(1000)]
    verdicts = Counter()
    for g in graphs:
        numbering = find_bipolar_numbering(g)
        assert (numbering is None) == (reference_bipolar_order(g) is None), g.to_json()
        if numbering is not None:
            assert _numbering_is_bipolar(g, numbering.labels), g.to_json()
        verdicts[numbering is not None] += 1
    assert verdicts[True] and verdicts[False]


# -- the ear walk against the scan-based loops it replaced ---------------------


def _scan_search_path(g, start, stop_at, banned_edge=None, interior=None):
    """BFS path from ``start`` to ``stop_at`` as (edge id, tail, head) steps,
    through ``interior`` only when given; neighbors in edge order."""
    parent = {}
    queue = [start]
    seen = {start}
    for a in queue:
        for e in g.incident(a):
            if e.id == banned_edge:
                continue
            b = e.other(a)
            if b in seen:
                continue
            parent[b] = (e.id, a)
            if b in stop_at:
                path = []
                while b != start:
                    e_id, prev = parent[b]
                    path.append((e_id, prev, b))
                    b = prev
                return path[::-1]
            if interior is None or b in interior:
                seen.add(b)
                queue.append(b)
    raise AssertionError("no path")


def _scan_classification(g):
    """The bridge-tree classification with components numbered by a BFS from
    each vertex not yet numbered, in vertex order."""
    bridges = find_bridges(g)
    if not bridges:
        return graph_core.AlmostBridgelessWitness(True, endpoints=(g.edges[0].u, g.edges[0].v))
    comp, next_id = {}, 0
    for v in g.vertices:
        if v in comp:
            continue
        comp[v] = next_id
        next_id += 1
        queue = [v]
        for a in queue:
            for e in g.incident(a):
                if e.id not in bridges and e.other(a) not in comp:
                    comp[e.other(a)] = comp[v]
                    queue.append(e.other(a))
    incident = {}
    for e in g.edges:
        if e.id in bridges:
            incident.setdefault(comp[e.u], []).append(e.id)
            incident.setdefault(comp[e.v], []).append(e.id)
    for c in sorted(incident):
        if len(incident[c]) >= 3:
            return graph_core.AlmostBridgelessWitness(False, obstruction=tuple(incident[c][:3]))
    extremes = sorted(c for c, bs in incident.items() if len(bs) == 1)
    ends = tuple(next(v for v in g.vertices if comp[v] == c) for c in extremes)
    return graph_core.AlmostBridgelessWitness(True, endpoints=ends)


def _scan_labeling(g):
    """Ear insertion that rescans the edges for chords and for the lowest
    frontier edge each round, and scans the order for first incoming edges."""
    witness = _scan_classification(g)
    if not witness.is_almost_bridgeless:
        return None
    u, v = witness.endpoints
    order, used_edges, used_vertices = [], set(), set()

    def first_into(x):
        return next((i for i, (_, _, head) in enumerate(order) if head == x), None)

    def insert_ear(ear):
        x, z = ear[0][1], ear[-1][2]
        if x != u:
            fx, fz = first_into(x), first_into(z)
            if z == u or (fz is not None and fz < fx):
                ear = [(e, h, t) for (e, t, h) in reversed(ear)]
                x = ear[0][1]
        pos = 0 if x == u else first_into(x) + 1
        order[pos:pos] = ear
        for e_id, tail, head in ear:
            used_edges.add(e_id)
            used_vertices.update((tail, head))

    insert_ear(_scan_search_path(g, u, {v}))
    while len(used_edges) < g.m:
        for e in g.edges:
            if e.id not in used_edges and e.u in used_vertices and e.v in used_vertices:
                insert_ear([(e.id, e.u, e.v)])
        if len(used_edges) == g.m:
            break
        frontier = next(
            e for e in g.edges if e.id not in used_edges and (e.u in used_vertices) != (e.v in used_vertices)
        )
        x = frontier.u if frontier.u in used_vertices else frontier.v
        y = frontier.other(x)
        unused = set(g.vertices) - used_vertices
        trail = _scan_search_path(g, y, used_vertices, banned_edge=frontier.id, interior=unused)
        insert_ear([(frontier.id, x, y), *trail])
    return OrientedLabeling(tuple(e for e, _, _ in order), {e: t for e, t, _ in order})


def _scan_numbering(g):
    """Open-ear numbering that rescans the edges for the lowest frontier edge
    and rebuilds the unused vertices each round."""
    blocks = [{v for e in block for v in (e.u, e.v)} for block in graph_core._blocks(g)]
    count = Counter(v for block in blocks for v in block)
    cut = {v for v, c in count.items() if c > 1}
    if any(c > 2 for c in count.values()) or any(len(b & cut) > 2 for b in blocks):
        return None
    if len(blocks) == 1:
        s, t = g.vertices[:2]
    else:
        ends = [b - cut for b in blocks if len(b & cut) == 1]
        s, t = (next(v for v in g.vertices if v in end) for end in ends)
    order = [s] + [head for _, _, head in _scan_search_path(g, s, {t})]
    used = set(order)
    while len(order) < len(g.vertices):
        frontier = next(e for e in g.edges if (e.u in used) != (e.v in used))
        x = frontier.u if frontier.u in used else frontier.v
        y = frontier.other(x)
        unused = set(g.vertices) - used
        ear = [y] + [head for _, _, head in _scan_search_path(g, y, used - {x}, interior=unused)]
        z = ear.pop()
        at, other = order.index(x), order.index(z)
        if other < at:
            at = other
            ear.reverse()
        order[at + 1 : at + 1] = ear
        used.update(ear)
    return {v: i + 1 for i, v in enumerate(order)}


def test_ear_walk_matches_the_scan_based_reference():
    from graphcake.fixtures import FixtureSpec, build_fixture

    rng = random.Random(18)
    graphs = list(connected_multigraphs_up_to_iso(5))
    graphs += [random_multigraph(rng, max_edges=9) for _ in range(1000)]
    graphs += [ear_graph(random.Random(m), m) for m in range(10, 401, 30)]
    graphs += [build_fixture(FixtureSpec("fig1_flowers", {"side": side})).graph for side in ("left", "right")]
    labeled = numbered = 0
    for g in graphs:
        witness, expected = classify_almost_bridgeless(g), _scan_classification(g)
        assert witness.is_almost_bridgeless == expected.is_almost_bridgeless, g.to_json()
        assert witness.endpoints == expected.endpoints, g.to_json()
        assert witness.obstruction == expected.obstruction, g.to_json()
        reference = _scan_labeling(g)
        if reference is None:
            with pytest.raises(NotAlmostBridgeless):
                compute_contiguous_labeling(g)
        else:
            lab = compute_contiguous_labeling(g)
            assert lab.order == reference.order, g.to_json()
            assert dict(lab.tails) == reference.tails, g.to_json()
            labeled += 1
        numbering = find_bipolar_numbering(g)
        assert (numbering and dict(numbering.labels)) == _scan_numbering(g), g.to_json()
        numbered += numbering is not None
    assert labeled > 500 and numbered > 500


def test_a_failed_ear_search_is_an_invariant_breach():
    # the searches run only on graphs already classified, so no path is a fault
    with pytest.raises(ProtocolInvariantError):
        graph_core._search_path(triangle(), "a", set())


# -- cycle splitting -----------------------------------------------------------


def test_split_tree_is_identity():
    g = star_graph(3)
    tree, origin = split_cycles_to_tree(g)
    assert tree.to_json() == g.to_json()
    assert origin == {v: v for v in g.vertices}


def test_split_triangle_gives_path():
    g = triangle()
    tree, origin = split_cycles_to_tree(g)
    assert tree.m == 3 and len(tree.vertices) == 4
    assert find_bridges(tree) == {"e0", "e1", "e2"}
    assert set(origin.values()) <= set(g.vertices)


def test_split_star_with_doubled_edge():
    g = CakeGraph(
        ["c", "l0", "l1", "l2"],
        [("e0", "c", "l0"), ("e0b", "c", "l0"), ("e1", "c", "l1"), ("e2", "c", "l2")],
    )
    tree, _ = split_cycles_to_tree(g)
    assert tree.m == 4
    assert len(find_bridges(tree)) == 4
    assert len(tree.vertices) == len(tree.edges) + 1


def test_split_preserves_piece_connectivity_to_original():
    rng = random.Random(5)
    for _ in range(40):
        g = random_multigraph(rng, max_edges=6)
        tree, _ = split_cycles_to_tree(g)
        assert tree.m == g.m
        assert tree.is_tree()
        # a piece connected in the tree stays connected in the original graph
        ids = [e.id for e in tree.edges]
        take = rng.sample(ids, rng.randint(1, len(ids)))
        p = edge_piece(*take)
        if piece_is_connected(tree, p):
            assert piece_is_connected(g, p)


def _split_by_repeated_bridge_search(g):
    """Reference: detach the first cycle edge, recompute the bridges, repeat."""
    vertices = list(g.vertices)
    edges = [(e.id, e.u, e.v) for e in g.edges]
    origin = {v: v for v in vertices}
    counter = 0
    while True:
        work = CakeGraph(vertices, edges)
        bridges = find_bridges(work)
        cycle_edge = next((e for e in work.edges if e.id not in bridges), None)
        if cycle_edge is None:
            return work, origin
        clone = f"{cycle_edge.v}~{counter}"
        while clone in origin:
            counter += 1
            clone = f"{cycle_edge.v}~{counter}"
        counter += 1
        vertices.append(clone)
        origin[clone] = origin[cycle_edge.v]
        i = next(i for i, (eid, _, _) in enumerate(edges) if eid == cycle_edge.id)
        edges[i] = (cycle_edge.id, cycle_edge.u, clone)


def test_split_matches_repeated_bridge_search_on_random_multigraphs():
    rng = random.Random(11)
    for _ in range(300):
        g = random_multigraph(rng, max_edges=9)
        if rng.random() < 0.3:  # vertex names that collide with clone names
            g = CakeGraph(
                [f"v{i}" if i else "v1~0" for i in range(len(g.vertices))],
                [(e.id, e.u if e.u != "v0" else "v1~0", e.v if e.v != "v0" else "v1~0") for e in g.edges],
            )
        tree, origin = split_cycles_to_tree(g)
        ref_tree, ref_origin = _split_by_repeated_bridge_search(g)
        assert tree.to_json() == ref_tree.to_json()
        assert origin == ref_origin


# -- induced subcakes ----------------------------------------------------------


def test_induced_whole_graph_is_isomorphic():
    g = triangle()
    sub, cmap = induced_cake(g, g.whole_piece())
    assert sub.m == 3
    assert cmap.piece_to_parent(sub.whole_piece()).intervals == g.whole_piece().intervals


def test_induced_half_edge_map():
    g = single_edge_graph()
    p = Piece.of([Interval("e0", F(0), F(1, 2))])
    sub, cmap = induced_cake(g, p)
    assert sub.m == 1
    rng = random.Random(1)
    for _ in range(10):
        t = F(rng.randint(0, 16), 16)
        edge, pos = cmap.point_to_parent(sub.edges[0].id, t)
        assert edge == "e0" and pos == t / 2


def test_induced_star_halves():
    g = star_graph(3)
    p = Piece.of([Interval("e0", F(0), F(1, 2)), Interval("e1", F(0), F(1, 2))])
    sub, cmap = induced_cake(g, p)
    assert sub.m == 2 and sub.star_center() == "c"
    back = cmap.piece_to_parent(sub.whole_piece())
    assert back.intervals == p.intervals
    assert measure(back) == measure(p)


def test_induced_rejects_disconnected_and_empty():
    g = single_edge_graph()
    with pytest.raises(DisconnectedPiece):
        induced_cake(g, Piece.empty())
    bad = Piece.of([Interval("e0", F(0), F(1, 4)), Interval("e0", F(1, 2), F(1))])
    with pytest.raises(DisconnectedPiece):
        induced_cake(g, bad)
