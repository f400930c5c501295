"""Acceptance suite: every guarantee at its exact bound, plus oracle certification.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
All comparisons are exact rational arithmetic; there are no tolerances anywhere.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from graphcake.allocation import verify_allocation
from graphcake.errors import DomainError
from graphcake.fixtures import FixtureSpec, build_fixture, random_instance, random_valuations
from graphcake.graph_core import (
    CakeGraph,
    OrientedLabeling,
    classify_almost_bridgeless,
    compute_contiguous_labeling,
    find_bipolar_numbering,
    is_contiguous,
)
from graphcake.oracle import (
    GridSearchConfig,
    check_powers_of_three,
    grid_search_best,
    pair_feasible,
)
from graphcake.protocols import (
    chore_three,
    chore_two,
    chore_upto5,
    connected_egalitarian,
    equitable_two,
    f_guarantee,
    height2_two_piece_proportional,
    multi_piece_two,
    proportional_two_connected,
    run_protocol,
    star_egalitarian,
    two_agent_best,
    two_agent_fixed,
    two_agent_flexible,
)
from graphcake.valuation import Instance

from conftest import checked, connected_multigraphs_up_to_iso

F = Fraction

FAMILIES = ("tree", "star", "cycle-augmented", "arbitrary")


def _random_mix(count, n_range, mode="cake", max_edges=10):
    rng = random.Random(f"acceptance/{count}/{n_range}/{mode}")
    out = []
    for i in range(count):
        n = rng.choice(n_range)
        out.append(
            random_instance(
                seed=i,
                n=n,
                family=FAMILIES[i % 4],
                edges=rng.randint(1, max_edges),
                mode=mode,
            )
        )
    return out


def test_criterion_01_egalitarian_bound():
    for inst in _random_mix(200, range(2, 7)):
        t0 = time.monotonic()
        res = connected_egalitarian(inst)
        elapsed = time.monotonic() - t0
        assert checked("egal", inst, res) == []
        assert elapsed < 1.0
    for n in (2, 3, 4):
        inst = build_fixture(FixtureSpec("star_tight", {"n": n}))
        rep = verify_allocation(inst, connected_egalitarian(inst).allocation)
        assert rep.egalitarian == F(1, 2 * n - 1)
    star2 = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    optimum, _ = grid_search_best(star2, GridSearchConfig(denominator=6))
    assert optimum == F(1, 3)
    print("criterion 01 PASS: egalitarian 1/(2n-1), tight stars exact, oracle agrees")


# best egalitarian guarantees for n agents on a star with k edges,
# n = 2..10 down the rows, k = 3..11 across the columns
STAR_GUARANTEE_TABLE = [
    [3, 3, 3, 3, 3, 3, 3, 3, 3],
    [4, 4, 5, 5, 5, 5, 5, 5, 5],
    [5, 5, 6, 6, 7, 7, 7, 7, 7],
    [6, 6, 7, 7, 8, 8, 9, 9, 9],
    [7, 7, 8, 8, 9, 9, 10, 10, 11],
    [8, 8, 9, 9, 10, 10, 11, 11, 12],
    [9, 9, 10, 10, 11, 11, 12, 12, 13],
    [10, 10, 11, 11, 12, 12, 13, 13, 14],
    [11, 11, 12, 12, 13, 13, 14, 14, 15],
]


def test_criterion_02_star_guarantee_table():
    checked = 0
    for i, row in enumerate(STAR_GUARANTEE_TABLE):
        n = i + 2
        for j, denom in enumerate(row):
            k = j + 3
            assert f_guarantee(n, k) == F(1, denom), (n, k)
            checked += 1
    assert checked == 81
    print("criterion 02 PASS: all 81 star guarantee table entries reproduced")


@pytest.mark.parametrize(
    "n, k, message",
    [
        (2, 3.0, "k must be an int, got 3.0"),
        (2.5, 3, "n must be an int, got 2.5"),
        (True, 3, "n must be an int, got True"),
        (2, False, "k must be an int, got False"),
        (Fraction(3), 5, "n must be an int, got Fraction(3, 1)"),
    ],
)
def test_star_guarantee_refuses_counts_that_are_not_ints(n, k, message):
    # a float k would be read as a number and a float n would fail raw
    with pytest.raises(DomainError, match=re.escape(message)):
        f_guarantee(n, k)


def test_criterion_03_star_protocol_tightness():
    for n, k in ((3, 3), (3, 5), (4, 7)):
        inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": n, "k": k}))
        assert checked("star", inst, star_egalitarian(inst)) == [], (n, k)
    inst23 = build_fixture(FixtureSpec("star_fnk_tight", {"n": 2, "k": 3}))
    optimum, _ = grid_search_best(inst23, GridSearchConfig(denominator=6))
    assert optimum == F(1, 3) == f_guarantee(2, 3)
    # the search is complete, which costs welfare nothing (see test_oracle)
    for n, k, grid, bound in ((3, 4, 8, F(1, 4)), (4, 6, 3, F(1, 6))):
        inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": n, "k": k}))
        cfg = GridSearchConfig(denominator=grid, require_complete=True)
        optimum, _ = grid_search_best(inst, cfg)
        assert optimum == bound == f_guarantee(n, k), (n, k)
    # both kinds of f(n,k) up to n = 5: k >= 2n-1 for f(4,7) and f(5,9), k < 2n-1
    # otherwise; identical agents are searched in one order, and the budget
    # makes a search that loses that fail fast
    certificates = ((4, 7, 3, F(1, 7)), (5, 6, 3, F(1, 7)), (5, 8, 2, F(1, 8)), (5, 9, 2, F(1, 9)))
    for n, k, grid, bound in certificates:
        inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": n, "k": k}))
        cfg = GridSearchConfig(denominator=grid, require_complete=True, state_budget=3_000_000)
        optimum, _ = grid_search_best(inst, cfg)
        assert optimum == bound == f_guarantee(n, k), (n, k)
    print(
        "criterion 03 PASS: star protocol meets f(n,k); oracle certifies "
        "f(2,3), f(3,4), f(4,6), f(4,7), f(5,6), f(5,8), f(5,9)"
    )


def test_criterion_04_two_agent_dichotomy():
    rng = random.Random("dichotomy")
    for seed in range(50):
        inst = random_instance(
            seed, n=2, family="cycle-augmented", edges=rng.randint(2, 8)
        )
        assert classify_almost_bridgeless(inst.graph).is_almost_bridgeless
        lab = compute_contiguous_labeling(inst.graph)
        assert checked("prop2", inst, proportional_two_connected(inst, lab)) == []
    bridge = build_fixture(FixtureSpec("three_bridge"))
    optimum, _ = grid_search_best(bridge, GridSearchConfig(denominator=6))
    assert optimum == F(1, 3)
    assert checked("best2", bridge, two_agent_best(bridge)) == []
    print("criterion 04 PASS: 1/2 on almost-bridgeless graphs, 1/3 cap certified")


def _exists_contiguous_labeling(g):
    m = g.m
    edges = list(g.edges)

    def backtrack(order, tails, used, vertices):
        if len(order) == m:
            return is_contiguous(g, OrientedLabeling(tuple(order), dict(tails)))
        for e in edges:
            if e.id in used:
                continue
            for tail in (e.u, e.v):
                if order and tail not in vertices:
                    continue
                order.append(e.id)
                tails[e.id] = tail
                used.add(e.id)
                grown = {e.u, e.v} - vertices
                vertices |= grown
                if backtrack(order, tails, used, vertices):
                    return True
                vertices -= grown
                used.discard(e.id)
                del tails[e.id]
                order.pop()
        return False

    return backtrack([], {}, set(), set())


def test_criterion_05_labeling_equivalence_exhaustive():
    graphs = connected_multigraphs_up_to_iso(5)
    assert len(graphs) > 50
    for g in graphs:
        declared = classify_almost_bridgeless(g).is_almost_bridgeless
        found = _exists_contiguous_labeling(g)
        assert declared == found, g.to_json()
        if declared:
            assert is_contiguous(g, compute_contiguous_labeling(g))
    print(
        f"criterion 05 PASS: labeling existence matches classification on "
        f"{len(graphs)} multigraphs with up to 5 edges"
    )


def _flower(petals):
    """A cycle with a pendant two-edge cycle at each of its vertices."""
    vertices = [f"t{i}" for i in range(petals)] + [f"p{i}" for i in range(petals)]
    edges = [(f"cyc{i}", f"t{i}", f"t{(i + 1) % petals}") for i in range(petals)]
    for i in range(petals):
        edges += [(f"pet{i}a", f"t{i}", f"p{i}"), (f"pet{i}b", f"t{i}", f"p{i}")]
    return CakeGraph(vertices, edges)


def test_criterion_06_flower_graphs():
    flowers = [build_fixture(FixtureSpec("fig1_flowers", {"side": side})).graph for side in ("left", "right")]
    flowers.append(_flower(50))
    for g in flowers:
        assert classify_almost_bridgeless(g).is_almost_bridgeless
        assert find_bipolar_numbering(g) is None
    print(
        "criterion 06 PASS: flower graphs almost bridgeless yet never bipolar, "
        f"up to {len(flowers[-1].vertices)} vertices"
    )


def test_criterion_07_entitlement_frontiers():
    for inst in _random_mix(100, [2]):
        assert checked("fixed2", inst, two_agent_fixed(inst)) == []
    for alpha in (F(1, 8), F(1, 5), F(1, 4)):
        for inst in _random_mix(30, [2]):
            assert checked("flex2", inst, two_agent_flexible(inst, alpha), {"alpha": alpha}) == []
    star4 = build_fixture(FixtureSpec("four_edge_star"))
    feasible, _ = pair_feasible(
        star4, 8, F(1, 2), F(1, 4), first_strict=True, second_strict=True
    )
    assert not feasible
    gadget = build_fixture(FixtureSpec("fig2", {"alpha": F(1, 4), "eps": F(1, 100)}))
    feasible, _ = pair_feasible(
        gadget, 8, F(1, 4), F(1, 2) + F(1, 50), first_strict=False, second_strict=True
    )
    assert not feasible
    print("criterion 07 PASS: fixed and flexible frontiers, impossibility certified")


def test_criterion_08_multi_piece():
    for inst in _random_mix(50, [2]):
        for k in range(1, 5):
            assert checked("multi2", inst, multi_piece_two(inst, k), {"k": k}) == []
    tern = build_fixture(FixtureSpec("ternary_tree", {"k": 1}))
    optimum, _ = grid_search_best(
        tern,
        GridSearchConfig(denominator=3, piece_budget=2, require_complete=True),
    )
    assert optimum <= F(1, 3)
    for t in range(1, 5):
        holds, _, gap = check_powers_of_three(t, -6, 2)
        assert holds and gap == F(1, 2 * 3**t)
    print("criterion 08 PASS: k+1 pieces bound, ternary-tree cap, powers-of-three gap")


def _random_height2_tree(rng):
    vertices = ["r"]
    edges = []
    children = rng.randint(1, 4)
    for i in range(children):
        vertices.append(f"c{i}")
        edges.append((f"t{i}", "r", f"c{i}"))
        for j in range(rng.randint(0, 3)):
            vertices.append(f"c{i}g{j}")
            edges.append((f"t{i}g{j}", f"c{i}", f"c{i}g{j}"))
    return CakeGraph(vertices, edges)


def test_criterion_09_height_two_trees():
    rng = random.Random("height2")
    for _ in range(30):
        g = _random_height2_tree(rng)
        inst = Instance(g, random_valuations(rng, g, 2), "cake")
        assert checked("height2", inst, height2_two_piece_proportional(inst, "r")) == []
    print("criterion 09 PASS: proportional with at most two pieces per agent")


def test_criterion_10_equitability():
    for inst in _random_mix(100, [2]):
        assert checked("equit2", inst, equitable_two(inst)) == []
    star = build_fixture(FixtureSpec("equit_star3"))
    optimum, _ = grid_search_best(
        star, GridSearchConfig(denominator=6, objective="inequity", require_complete=True)
    )
    assert optimum == F(1, 3)
    print("criterion 10 PASS: inequity at most 1/3, tightness certified at 1/3")


def test_criterion_11_chores():
    for inst in _random_mix(100, [2], mode="chore"):
        assert checked("chore2", inst, chore_two(inst)) == []
    for inst in _random_mix(50, [3], mode="chore"):
        assert checked("chore3", inst, chore_three(inst)) == []
    for n in (3, 4, 5):
        for inst in _random_mix(50, [n], mode="chore"):
            assert checked("chore5", inst, chore_upto5(inst)) == []
    for n in (2, 3):
        inst = build_fixture(FixtureSpec("chore_star", {"n": n}))
        optimum, _ = grid_search_best(
            inst,
            GridSearchConfig(
                denominator=2 * (n + 1), objective="cost", require_complete=True
            ),
        )
        assert optimum == F(2, n + 1)
    print("criterion 11 PASS: chore bounds hold; 2/(n+1) certified minimal")


def test_criterion_12_query_accounting():
    runs = [
        ("egal", build_fixture(FixtureSpec("star_tight", {"n": 3})), {}),
        ("star", build_fixture(FixtureSpec("star_fnk_tight", {"n": 3, "k": 4})), {}),
        ("prop2", random_instance(3, n=2, family="cycle-augmented", edges=5), {}),
        ("best2", build_fixture(FixtureSpec("three_bridge")), {}),
        ("fixed2", random_instance(5, n=2, family="tree", edges=5), {}),
        ("flex2", random_instance(5, n=2, family="tree", edges=5), {"alpha": F(1, 5)}),
        ("multi2", random_instance(6, n=2, family="arbitrary", edges=5), {"k": 2}),
        ("height2", build_fixture(FixtureSpec("four_edge_star")), {"root": "c"}),
        ("equit2", random_instance(7, n=2, family="tree", edges=5), {}),
        ("chore2", random_instance(8, n=2, family="tree", edges=5, mode="chore"), {}),
        ("chore3", random_instance(9, n=3, family="tree", edges=5, mode="chore"), {}),
        ("chore5", random_instance(10, n=4, family="tree", edges=5, mode="chore"), {}),
    ]
    for name, inst, params in runs:
        result = run_protocol(name, inst, params)
        log = result.queries
        assert isinstance(log.eval_count, int) and log.eval_count >= 0
        assert isinstance(log.cut_count, int) and log.cut_count >= 0
        repeat = run_protocol(name, inst, params)
        assert repeat.queries.to_json() == log.to_json()
        assert repeat.allocation.to_json() == result.allocation.to_json()
    # regression bound on trees with at least as many edges as agents
    # (each of the n-1 extraction rounds issues at most one cut per agent)
    rng = random.Random("cutbound")
    for seed in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(n, 10)
        inst = random_instance(seed, n=n, family="tree", edges=m)
        res = connected_egalitarian(inst)
        assert res.queries.cut_count <= n * inst.graph.m
    print("criterion 12 PASS: query logs finite, deterministic, cut bound on trees")
