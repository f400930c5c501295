"""Instance builders: worst-case constructions used as tightness anchors, plus a
seeded random-instance generator."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import BadParameters, UnknownFixture
from .graph_core import CakeGraph, ONE, ZERO, Param, _shown, exact_fraction, exact_int, read_params
from .protocols import f_guarantee
from .valuation import Instance, Segment, Valuation, _segment

F = Fraction


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    params: Mapping[str, object] = field(default_factory=dict)


def _star(k: int) -> CakeGraph:
    vertices = ["c"] + [f"l{i}" for i in range(k)]
    edges = [(f"e{i}", "c", f"l{i}") for i in range(k)]
    return CakeGraph(vertices, edges)


def _identical(graph: CakeGraph, n: int, edge_values: Mapping[str, Fraction], mode: str) -> Instance:
    v = Valuation.from_edge_values(edge_values)
    return Instance(graph, tuple(v for _ in range(n)), mode)


def _uniform_star(k: int, n: int = 2, mode: str = "cake") -> Instance:
    """A star of ``k`` edges that each of ``n`` identical agents values at 1/k."""
    g = _star(k)
    return _identical(g, n, {e.id: F(1, k) for e in g.edges}, mode)


# The most agents times edges a star fixture takes, as many as the largest
# ``ternary_tree`` (2 agents, 9,841 edges): a star's document holds one
# valuation of every edge per agent.  On one core (Python 3.11), build plus
# ``to_json`` took 0.05-0.07 s at the cap, for star_tight at n = 99,
# chore_star at n = 139 and ternary_tree at k = 8; star_tight at n = 1,000
# took 5.7 s in ``to_json``.
STAR_MAX_SIZE = 2 * 9841


def _star_size(name: str, n: int, k: int) -> None:
    """BadParameters when ``n`` agents on ``k`` edges exceed the cap."""
    if n * k > STAR_MAX_SIZE:
        raise BadParameters(
            f"{name} needs agents times edges at most {STAR_MAX_SIZE}, got {_shown(n)} x {_shown(k)}"
        )


def _star_tight(n: int) -> Instance:
    if n < 2:
        raise BadParameters("star_tight needs n >= 2")
    _star_size("star_tight", n, 2 * n - 1)
    return _uniform_star(2 * n - 1, n)


def _star_fnk_tight(n: int, k: int) -> Instance:
    if n < 2 or k < 3:
        raise BadParameters("star_fnk_tight needs n >= 2 and k >= 3")
    _star_size("star_fnk_tight", n, k)
    g = _star(k)
    share = f_guarantee(n, k)
    if k >= 2 * n - 1:
        values = {f"e{i}": (F(1, 2 * n - 1) if i < 2 * n - 1 else F(0)) for i in range(k)}
    else:
        values = {f"e{i}": share for i in range(k - 1)}
        values[f"e{k - 1}"] = 1 - (k - 1) * share
    return _identical(g, n, values, "cake")


def _frontier_edge(alpha: Fraction) -> Instance:
    if not F(1, 2) < alpha < 1:
        raise BadParameters("frontier_edge needs 1/2 < alpha < 1")
    g = CakeGraph(["a", "b"], [("e0", "a", "b")])
    v1 = Valuation.from_edge_values({"e0": F(1)})
    width = 2 * alpha - 1
    v2 = Valuation(
        {
            "e0": (
                Segment(ZERO, 1 - alpha, ZERO),
                Segment(1 - alpha, alpha, 1 / width),
                Segment(alpha, ONE, ZERO),
            )
        }
    )
    return Instance(g, (v1, v2), "cake")


def _fig2(alpha: Fraction = F(1, 4), eps: Fraction = F(1, 100)) -> Instance:
    if not (0 < alpha <= F(1, 4)):
        raise BadParameters("fig2 needs 0 < alpha <= 1/4")
    if not (0 < eps < alpha):
        raise BadParameters("fig2 needs 0 < eps < alpha")
    g = CakeGraph(
        ["h1", "h2", "a", "b", "c", "d"],
        [
            ("left1", "a", "h1"),
            ("left2", "b", "h1"),
            ("mid", "h1", "h2"),
            ("right1", "h2", "c"),
            ("right2", "h2", "d"),
        ],
    )
    leaf = alpha - eps
    values = {
        "left1": leaf,
        "left2": leaf,
        "mid": 1 - 4 * alpha + 4 * eps,
        "right1": leaf,
        "right2": leaf,
    }
    return _identical(g, 2, values, "cake")


def _fig1_flowers(side: str = "left") -> Instance:
    if side == "left":
        # triangle with a two-edge cycle pendant hanging off each corner
        vertices = ["t0", "t1", "t2", "p0", "p1", "p2"]
        edges = [("tri0", "t0", "t1"), ("tri1", "t1", "t2"), ("tri2", "t2", "t0")]
        for i in range(3):
            edges.append((f"pet{i}a", f"t{i}", f"p{i}"))
            edges.append((f"pet{i}b", f"t{i}", f"p{i}"))
    elif side == "right":
        # triangle with a triangle pendant sharing each corner
        vertices = ["t0", "t1", "t2"]
        edges = [("tri0", "t0", "t1"), ("tri1", "t1", "t2"), ("tri2", "t2", "t0")]
        for i in range(3):
            vertices += [f"x{i}", f"y{i}"]
            edges += [
                (f"pet{i}a", f"t{i}", f"x{i}"),
                (f"pet{i}b", f"x{i}", f"y{i}"),
                (f"pet{i}c", f"y{i}", f"t{i}"),
            ]
    else:
        raise BadParameters("fig1_flowers side must be 'left' or 'right'")
    g = CakeGraph(vertices, edges)
    return _identical(g, 2, {e.id: F(1, g.m) for e in g.edges}, "cake")


# Most levels of ``ternary_tree``: each level triples the leaves.  At k = 8 the
# tree has 9,841 edges and took 0.04 s to build on one core (Python 3.11), at k = 10 88,573 edges, 0.58 s
# and 75 MB more peak memory.
TERNARY_MAX_K = 8


def _ternary_tree(k: int) -> Instance:
    if not 1 <= k <= TERNARY_MAX_K:
        raise BadParameters(
            f"ternary_tree needs 1 <= k <= {TERNARY_MAX_K}: each level triples the edges"
        )
    vertices = ["root", "n"]
    edges = [("trunk", "root", "n")]
    frontier = ["n"]
    for layer in range(k):
        nxt = []
        for v in frontier:
            for j in range(3):
                child = f"{v}.{j}"
                vertices.append(child)
                edges.append((f"e{child}", v, child))
                nxt.append(child)
        frontier = nxt
    g = CakeGraph(vertices, edges)
    leaf_value = F(1, 3**k)
    values = {f"e{v}": leaf_value for v in frontier}
    return _identical(g, 2, values, "cake")


def _chore_star(n: int) -> Instance:
    if n < 1:
        raise BadParameters("chore_star needs n >= 1")
    _star_size("chore_star", n, n + 1)
    return _uniform_star(n + 1, n, "chore")


_CATALOG = {
    "star_tight": (_star_tight, {"n": Param(exact_int)}),
    "star_fnk_tight": (_star_fnk_tight, {"n": Param(exact_int), "k": Param(exact_int)}),
    "three_bridge": (lambda: _uniform_star(3), {}),
    "frontier_edge": (_frontier_edge, {"alpha": Param(exact_fraction)}),
    "four_edge_star": (lambda: _uniform_star(4), {}),
    "fig2": (
        _fig2,
        {"alpha": Param(exact_fraction, required=False), "eps": Param(exact_fraction, required=False)},
    ),
    "fig1_flowers": (_fig1_flowers, {"side": Param(str, required=False)}),
    "ternary_tree": (_ternary_tree, {"k": Param(exact_int)}),
    "equit_star3": (lambda: _uniform_star(3), {}),
    "chore_star": (_chore_star, {"n": Param(exact_int)}),
}

FIXTURE_NAMES = tuple(sorted(_CATALOG))


def build_fixture(spec: FixtureSpec) -> Instance:
    """Build a catalog instance; parameters outside their ranges raise BadParameters."""
    if spec.name not in _CATALOG:
        raise UnknownFixture(f"unknown fixture {spec.name!r}; known: {', '.join(FIXTURE_NAMES)}")
    builder, schema = _CATALOG[spec.name]
    return builder(**read_params(f"fixture {spec.name!r}", schema, spec.params))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

FAMILIES = ("tree", "star", "cycle-augmented", "arbitrary")


def _random_tree(rng: random.Random, m: int) -> CakeGraph:
    vertices = [f"v{i}" for i in range(m + 1)]
    edges = []
    for i in range(1, m + 1):
        parent = rng.randrange(i)
        edges.append((f"e{i - 1}", f"v{parent}", f"v{i}"))
    return CakeGraph(vertices, edges)


def _random_cycle_augmented(rng: random.Random, m: int) -> CakeGraph:
    """Built by ear additions, so the result is always almost bridgeless."""
    base = rng.randint(1, max(1, m // 2))
    vertices = [f"v{i}" for i in range(base + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(base)]
    next_v = base + 1
    next_e = base
    while next_e < m:
        remaining = m - next_e
        ear_len = rng.randint(1, min(3, remaining))
        start = rng.choice(vertices)
        end = rng.choice(vertices)
        if ear_len == 1 and start == end:
            end = rng.choice([v for v in vertices if v != start] or [start])
            if start == end:
                ear_len = 2
        inner = []
        for _ in range(ear_len - 1):
            inner.append(f"v{next_v}")
            next_v += 1
        chain = [start] + inner + [end]
        for a, b in zip(chain, chain[1:]):
            edges.append((f"e{next_e}", a, b))
            next_e += 1
        vertices.extend(inner)
    return CakeGraph(vertices, edges)


def _random_arbitrary(rng: random.Random, m: int) -> CakeGraph:
    tree_edges = rng.randint(1, m)
    g = _random_tree(rng, tree_edges)
    vertices = list(g.vertices)
    edges = [(e.id, e.u, e.v) for e in g.edges]
    for j in range(tree_edges, m):
        u = rng.choice(vertices)
        v = rng.choice([w for w in vertices if w != u] or [u])
        if u == v:
            continue
        edges.append((f"e{j}", u, v))
    return CakeGraph(vertices, edges)


# the breakpoints random valuations draw from, i/8 for i in 0..8 as reduced pairs
_EIGHTHS = tuple((i // math.gcd(i, 8), 8 // math.gcd(i, 8)) for i in range(9))


def random_valuations(
    rng: random.Random, g: CakeGraph, n: int, max_segments: int = 4
) -> tuple[Valuation, ...]:
    """Normalized piecewise-constant valuations with small rational breakpoints."""
    agents = []
    for _ in range(n):
        densities = {}
        for e in g.edges:
            segs = rng.randint(1, max_segments)
            cuts = sorted(rng.sample(range(1, 8), segs - 1))
            ends = [_EIGHTHS[i] for i in (0, *cuts, 8)]
            weights = [rng.randint(0, 9) for _ in range(segs)]
            densities[e.id] = tuple(
                _segment((*lo, *hi, w, 1)) for lo, hi, w in zip(ends, ends[1:], weights)
            )
        v = Valuation(densities)
        total = v.total()
        if total == 0:
            edge = rng.choice(g.edges)
            densities[edge.id] = (_segment((0, 1, 1, 1, 1, 1)),)
            v = Valuation(densities)
            total = v.total()
        agents.append(v.scaled(1 / total))
    return tuple(agents)


# what ``random_instance`` takes by keyword; every key is optional, so its own
# defaults apply
RANDOM_PARAMS = {
    "n": Param(exact_int, required=False),
    "family": Param(str, required=False),
    "edges": Param(exact_int, required=False),
    "max_segments": Param(exact_int, required=False),
    "mode": Param(str, required=False),
}


def random_instance(
    seed: int,
    n: int = 2,
    family: str = "tree",
    edges: int = 4,
    max_segments: int = 4,
    mode: str = "cake",
) -> Instance:
    """Deterministic random instance; identical arguments give identical output.
    A count that is not a whole number, such as ``n=2.5`` or ``edges=True``,
    raises BadParameters."""
    counts = read_params(
        "random_instance", RANDOM_PARAMS, {"n": n, "edges": edges, "max_segments": max_segments}
    )
    n, edges, max_segments = counts["n"], counts["edges"], counts["max_segments"]
    if not 1 <= n <= 8:
        raise BadParameters("n must be between 1 and 8")
    if not 1 <= edges <= 12:
        raise BadParameters("edge count must be between 1 and 12")
    if not 1 <= max_segments <= 4:
        raise BadParameters("max_segments must be between 1 and 4")
    if family not in FAMILIES:
        raise BadParameters(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    rng = random.Random(f"graphcake/{seed}/{n}/{family}/{edges}/{max_segments}")
    if family == "tree":
        g = _random_tree(rng, edges)
    elif family == "star":
        g = _star(edges)
    elif family == "cycle-augmented":
        g = _random_cycle_augmented(rng, edges)
    else:
        g = _random_arbitrary(rng, edges)
    return Instance(g, random_valuations(rng, g, n, max_segments), mode)
