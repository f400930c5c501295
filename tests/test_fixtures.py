import inspect
import json
import time
from fractions import Fraction

import pytest

from graphcake import fixtures
from graphcake.cli import main
from graphcake.errors import BadParameters, UnknownFixture
from graphcake.fixtures import (
    _CATALOG,
    FIXTURE_NAMES,
    RANDOM_PARAMS,
    STAR_MAX_SIZE,
    TERNARY_MAX_K,
    FixtureSpec,
    build_fixture,
    random_instance,
)
from graphcake.graph_core import classify_almost_bridgeless
from graphcake.protocols import PROTOCOLS

F = Fraction


def test_catalog_is_complete():
    assert set(FIXTURE_NAMES) == {
        "star_tight",
        "star_fnk_tight",
        "three_bridge",
        "frontier_edge",
        "four_edge_star",
        "fig2",
        "fig1_flowers",
        "ternary_tree",
        "equit_star3",
        "chore_star",
    }


def test_every_fixture_builds_a_valid_instance():
    samples = [
        FixtureSpec("star_tight", {"n": 2}),
        FixtureSpec("star_fnk_tight", {"n": 3, "k": 4}),
        FixtureSpec("star_fnk_tight", {"n": 3, "k": 6}),
        FixtureSpec("three_bridge"),
        FixtureSpec("frontier_edge", {"alpha": F(3, 4)}),
        FixtureSpec("four_edge_star"),
        FixtureSpec("fig2"),
        FixtureSpec("fig1_flowers", {"side": "left"}),
        FixtureSpec("fig1_flowers", {"side": "right"}),
        FixtureSpec("ternary_tree", {"k": 2}),
        FixtureSpec("equit_star3"),
        FixtureSpec("chore_star", {"n": 3}),
    ]
    for spec in samples:
        inst = build_fixture(spec)
        for v in inst.agents:
            assert v.total() == 1


def test_star_tight_shape():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    assert inst.graph.m == 3
    assert inst.graph.star_center() == "c"
    assert inst.n == 2
    for v in inst.agents:
        assert all(v.edge_value(e.id) == F(1, 3) for e in inst.graph.edges)


def test_ternary_tree_shape():
    inst = build_fixture(FixtureSpec("ternary_tree", {"k": 2}))
    g = inst.graph
    assert g.m == 13  # 1 + 3 + 9 edges over layers 1,1,3,9
    leaves = [v for v in g.vertices if g.degree(v) == 1 and v != "root"]
    assert len(leaves) == 9
    leaf_edges = [e for e in g.edges if e.u in leaves or e.v in leaves]
    for e in leaf_edges:
        assert inst.agents[0].edge_value(e.id) == F(1, 9)


def test_ternary_tree_over_its_level_cap_fails_at_once(capsys):
    # each level triples the edges, so k = 10**6 could never be built
    start = time.perf_counter()
    for k in (TERNARY_MAX_K + 1, 10**6):
        with pytest.raises(BadParameters, match=f"needs 1 <= k <= {TERNARY_MAX_K}"):
            build_fixture(FixtureSpec("ternary_tree", {"k": k}))
    assert main(["fixture", "build", "ternary_tree", "-p", "k=1000000"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ternary_tree needs 1 <= k <= 8: each level triples the edges\n"
    assert build_fixture(FixtureSpec("ternary_tree", {"k": TERNARY_MAX_K})).graph.m == 9841


def test_star_fixtures_over_their_size_cap_fail_before_building(monkeypatch, capsys):
    # a star's document grows as agents times edges; the cap is the largest
    # ternary tree's, 2 agents times 9,841 edges
    largest = build_fixture(FixtureSpec("ternary_tree", {"k": TERNARY_MAX_K}))
    assert STAR_MAX_SIZE == largest.n * largest.graph.m
    # the largest of each, and one past it in the list below
    at_cap = [("star_tight", {"n": 99}), ("chore_star", {"n": 139}), ("star_fnk_tight", {"n": 2, "k": 9841})]
    for name, params in at_cap:
        inst = build_fixture(FixtureSpec(name, params))
        assert inst.n * inst.graph.m <= STAR_MAX_SIZE
    # every size the tests and the benchmark use stays accepted
    for n in range(2, 6):
        build_fixture(FixtureSpec("star_tight", {"n": n}))
        build_fixture(FixtureSpec("chore_star", {"n": n}))
        for k in range(3, 10):
            build_fixture(FixtureSpec("star_fnk_tight", {"n": n, "k": k}))

    def no_star(*args):
        raise AssertionError("a star was built past the cap")

    monkeypatch.setattr(fixtures, "_star", no_star)
    over = [
        ("star_tight", {"n": 100}),
        ("star_tight", {"n": 10**100}),
        ("star_tight", {"n": 10**5000}),
        ("chore_star", {"n": 140}),
        ("star_fnk_tight", {"n": 2, "k": 9842}),
        ("star_fnk_tight", {"n": 141, "k": 140}),
        ("star_fnk_tight", {"n": 10**6, "k": 3}),
    ]
    for name, params in over:
        with pytest.raises(BadParameters, match=f"{name} needs agents times edges at most {STAR_MAX_SIZE}"):
            build_fixture(FixtureSpec(name, params))
    assert main(["fixture", "build", "star_tight", "-p", "n=5000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: star_tight needs agents times edges at most {STAR_MAX_SIZE}, got 5000 x 9999\n"


def test_chore_star_shape():
    inst = build_fixture(FixtureSpec("chore_star", {"n": 3}))
    assert inst.mode == "chore"
    assert inst.graph.m == 4
    assert all(inst.agents[0].edge_value(e.id) == F(1, 4) for e in inst.graph.edges)


def test_fig2_values():
    inst = build_fixture(FixtureSpec("fig2", {"alpha": F(1, 4), "eps": F(1, 100)}))
    v = inst.agents[0]
    assert v.edge_value("mid") == F(1, 25)
    assert v.edge_value("left1") == F(6, 25)
    assert v.total() == 1


def test_fixture_errors():
    with pytest.raises(UnknownFixture):
        build_fixture(FixtureSpec("nope"))
    with pytest.raises(BadParameters):
        build_fixture(FixtureSpec("star_tight", {}))
    with pytest.raises(BadParameters):
        build_fixture(FixtureSpec("star_tight", {"n": 2, "bogus": 1}))
    with pytest.raises(BadParameters):
        build_fixture(FixtureSpec("fig2", {"alpha": F(1, 2), "eps": F(1, 100)}))
    with pytest.raises(BadParameters):
        build_fixture(FixtureSpec("frontier_edge", {"alpha": F(1, 4)}))
    for params in ({"alpha": "1/0"}, {"alpha": "abc"}, {"alpha": None}):
        with pytest.raises(BadParameters, match="not a valid value"):
            build_fixture(FixtureSpec("frontier_edge", params))
    with pytest.raises(BadParameters, match="not a valid value"):
        build_fixture(FixtureSpec("star_tight", {"n": "two"}))
    # n and k take no fractional part, no bool and no float, where int() would
    # truncate 5/2 to 2 and read True as 1
    for n in (Fraction(5, 2), 2.5, 2.0, True, float("nan")):
        with pytest.raises(BadParameters, match="not a valid value"):
            build_fixture(FixtureSpec("star_tight", {"n": n}))
    two = build_fixture(FixtureSpec("star_tight", {"n": 2})).to_json()
    assert build_fixture(FixtureSpec("star_tight", {"n": Fraction(4, 2)})).to_json() == two
    # what parsed before still parses: Fractions, ints, "p/q" and decimals
    parsed = build_fixture(FixtureSpec("fig2", {"alpha": "1/4", "eps": "0.001"}))
    exact = build_fixture(FixtureSpec("fig2", {"alpha": F(1, 4), "eps": F(1, 1000)}))
    assert parsed.to_json() == exact.to_json()


def test_rational_parameters_refuse_floats_and_bools():
    # Fraction(0.01) would build densities over 2**59, and True would read as 1
    for name, params in (
        ("fig2", {"eps": 0.01}),
        ("fig2", {"alpha": 0.25}),
        ("fig2", {"alpha": True}),
        ("frontier_edge", {"alpha": 0.5}),
    ):
        with pytest.raises(BadParameters, match="not a valid value"):
            build_fixture(FixtureSpec(name, params))


def test_random_instance_deterministic():
    a = random_instance(1, n=3, family="tree", edges=6)
    b = random_instance(1, n=3, family="tree", edges=6)
    assert a.to_json() == b.to_json()
    c = random_instance(2, n=3, family="tree", edges=6)
    assert c.to_json() != a.to_json()


def test_random_instance_families():
    for seed in range(25):
        inst = random_instance(seed, n=2, family="cycle-augmented", edges=7)
        assert classify_almost_bridgeless(inst.graph).is_almost_bridgeless
    star = random_instance(3, n=2, family="star", edges=5)
    assert star.graph.star_center() is not None
    tree = random_instance(3, n=2, family="tree", edges=5)
    assert tree.graph.is_tree()


def test_random_star_has_the_edges_asked_for(capsys):
    # one edge is a star too: the graph asked for, not a two-edge star
    assert random_instance(1, family="star", edges=1).graph.m == 1
    assert main(["gen", "--seed", "1", "-p", "family=star", "-p", "edges=1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["graph"]["edges"]) == 1


def test_random_instance_normalized():
    for seed in range(10):
        inst = random_instance(seed, n=4, family="arbitrary", edges=8)
        for v in inst.agents:
            assert v.total() == 1


def test_random_instance_bad_parameters():
    with pytest.raises(BadParameters):
        random_instance(0, n=0)
    with pytest.raises(BadParameters):
        random_instance(0, edges=13)
    with pytest.raises(BadParameters):
        random_instance(0, family="nope")
    # counts are whole numbers, where int() would truncate 2.5 and read True as 1
    for key, value in (("n", 2.5), ("edges", True), ("max_segments", 2.5)):
        with pytest.raises(BadParameters, match=f"parameter {key}={value!r} is not a valid value"):
            random_instance(0, **{key: value})


# each table of key=value parameters, with the function it feeds and the
# leading arguments that are not parameters
_TABLES = [
    pytest.param(builder, schema, (), id=f"fixture-{name}") for name, (builder, schema) in _CATALOG.items()
]
_TABLES += [
    pytest.param(spec.run, spec.params, ("inst",), id=f"protocol-{name}") for name, spec in PROTOCOLS.items()
]
_TABLES += [pytest.param(random_instance, RANDOM_PARAMS, ("seed",), id="gen")]


@pytest.mark.parametrize("function, schema, leading", _TABLES)
def test_parameter_tables_match_their_functions(function, schema, leading):
    # every parameter of the function is a key, and a key is required exactly
    # when the function gives it no default
    parameters = inspect.signature(function).parameters
    assert list(parameters)[: len(leading)] == list(leading)
    assert set(schema) == set(parameters) - set(leading)
    for key, param in schema.items():
        assert param.required == (parameters[key].default is inspect.Parameter.empty), key
