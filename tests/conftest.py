import functools
import itertools
import random
from fractions import Fraction

from graphcake.errors import MalformedPiece
from graphcake.fixtures import _random_tree, _star
from graphcake.graph_core import CakeGraph, Interval, Piece
from graphcake.protocols import _path_tree, _sweep
from graphcake.valuation import Instance, Leg, Valuation

F = Fraction


def single_edge_graph():
    return CakeGraph(["a", "b"], [("e0", "a", "b")])


def triangle():
    return CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a")])


def path_graph(m):
    vertices = [f"v{i}" for i in range(m + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(m)]
    return CakeGraph(vertices, edges)


# A star of k edges ``e{i}`` from centre "c" to leaf "l{i}", and a random
# recursive tree (vertex i hangs off a uniformly chosen earlier vertex), as
# random instances and the benchmark corpus build them.
star_graph = _star
tree_graph = _random_tree


def cycle_graph(m):
    return CakeGraph([f"v{i}" for i in range(m)], [(f"e{i}", f"v{i}", f"v{(i + 1) % m}") for i in range(m)])


def ear_graph(rng: random.Random, m):
    """A short path with ears of length 1-6 hung between its vertices.

    Ears never create bridges outside the path, so the graph is almost
    bridgeless, like a road network whose detours close into cycles.  The
    same builder as the benchmark corpus's, so tests reach its sizes.
    """
    base = rng.randint(1, max(1, m // 8))
    vertices = [f"v{i}" for i in range(base + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(base)]
    while len(edges) < m:
        length = rng.randint(1, min(6, m - len(edges)))
        a, b = rng.choice(vertices), rng.choice(vertices)
        while length == 1 and a == b:
            b = rng.choice(vertices)
        inner = [f"v{len(vertices) + i}" for i in range(length - 1)]
        chain = [a, *inner, b]
        for u, v in zip(chain, chain[1:]):
            edges.append((f"e{len(edges)}", u, v))
        vertices.extend(inner)
    return CakeGraph(vertices, edges)


def mixed_graph(rng: random.Random, m):
    """A random tree on half to all of the edges plus random chords; usually
    bridged.  The benchmark corpus's builder for arbitrary graphs."""
    t = rng.randint(m // 2, m)
    vertices = [f"v{i}" for i in range(t + 1)]
    edges = [(f"e{i - 1}", f"v{rng.randrange(i)}", f"v{i}") for i in range(1, t + 1)]
    for j in range(t, m):
        u = rng.choice(vertices)
        v = rng.choice([w for w in vertices if w != u])
        edges.append((f"e{j}", u, v))
    return CakeGraph(vertices, edges)


def uniform_instance(g, n, mode="cake"):
    v = Valuation.uniform(g)
    return Instance(g, tuple(v for _ in range(n)), mode)


def edge_piece(*edge_ids):
    return Piece.of(Interval(e, F(0), F(1)) for e in edge_ids)


def random_multigraph(rng: random.Random, max_edges=6):
    """Small connected loopless multigraph (not necessarily almost bridgeless)."""
    m = rng.randint(1, max_edges)
    nv = rng.randint(2, m + 1)
    while True:
        vertices = [f"v{i}" for i in range(nv)]
        edges = []
        for j in range(m):
            u, v = rng.sample(range(nv), 2)
            edges.append((f"e{j}", f"v{u}", f"v{v}"))
        try:
            return CakeGraph(vertices, edges)
        except Exception:
            nv = max(2, nv - 1)


@functools.lru_cache(maxsize=None)
def connected_multigraphs_up_to_iso(max_edges):
    """Canonical representatives of connected loopless multigraphs, m <= max_edges.

    Cached because the enumeration takes seconds and several tests share it.
    """
    graphs = []
    for m in range(1, max_edges + 1):
        for nv in range(2, m + 2):
            pairs = list(itertools.combinations(range(nv), 2))
            perms = list(itertools.permutations(range(nv)))
            for combo in itertools.combinations_with_replacement(pairs, m):
                touched = {v for p in combo for v in p}
                if len(touched) != nv:
                    continue
                comp = {0}
                frontier = [0]
                while frontier:
                    at = frontier.pop()
                    for a, b in combo:
                        if a == at and b not in comp:
                            comp.add(b)
                            frontier.append(b)
                        elif b == at and a not in comp:
                            comp.add(a)
                            frontier.append(a)
                if len(comp) != nv:
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in combo))
                    for p in perms
                )
                if canon != combo:
                    continue
                vertices = [f"v{i}" for i in range(nv)]
                edges = [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(combo)]
                graphs.append(CakeGraph(vertices, edges))
    return tuple(graphs)


# Reference copies of the piece operations as they were before the linear
# merges: sort and merge on every call, union as canonicalization of the
# concatenation, difference as the chunk loop followed by canonicalization.
# Each returns the canonical intervals as a tuple.


def reference_of(intervals):
    by_edge, edge_order = {}, []
    for item in intervals:
        iv = item if isinstance(item, Interval) else Interval(item[0], F(item[1]), F(item[2]))
        if not (F(0) <= iv.lo <= iv.hi <= F(1)):
            raise MalformedPiece(f"interval [{iv.lo}, {iv.hi}] outside [0, 1] on edge {iv.edge!r}")
        if iv.lo == iv.hi:
            continue
        if iv.edge not in by_edge:
            edge_order.append(iv.edge)
            by_edge[iv.edge] = []
        by_edge[iv.edge].append((iv.lo, iv.hi))
    out = []
    for edge in sorted(edge_order):
        merged = []
        for lo, hi in sorted(by_edge[edge]):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out.extend(Interval(edge, lo, hi) for lo, hi in merged)
    return tuple(out)


def reference_union(a, b):
    return reference_of(a.intervals + b.intervals)


def reference_difference(a, b):
    out = []
    for iv in a.intervals:
        chunks = [(iv.lo, iv.hi)]
        for cut in b.intervals:
            if cut.edge != iv.edge:
                continue
            nxt = []
            for lo, hi in chunks:
                if cut.hi <= lo or cut.lo >= hi:
                    nxt.append((lo, hi))
                    continue
                if cut.lo > lo:
                    nxt.append((lo, cut.lo))
                if cut.hi < hi:
                    nxt.append((cut.hi, hi))
            chunks = nxt
        out.extend(Interval(iv.edge, lo, hi) for lo, hi in chunks)
    return reference_of(out)


def measure(p):
    """The total length of a piece's intervals (test-only reference)."""
    return sum((iv.hi - iv.lo for iv in p.intervals), F(0))


def prefix_piece(traj, cut):
    """The piece a knife covers along ``traj`` up to ``cut`` (test-only reference)."""
    last = traj[cut.leg_index]
    legs = (*traj[: cut.leg_index], Leg(last.edge, last.start, cut.position))
    return Piece.of(Interval(leg.edge, min(leg.start, leg.end), max(leg.start, leg.end)) for leg in legs)


def trajectory_value(v, t):
    """The value of the intervals a trajectory sweeps, one interval value per
    leg (test-only reference)."""
    return sum(
        (v.interval_value(leg.edge, min(leg.start, leg.end), max(leg.start, leg.end)) for leg in t),
        F(0),
    )


def path_trajectory(g, region):
    """A path region's sweep from its least end (test-only reference)."""
    return _sweep(_path_tree(g, region))


def tree_fields(rt, held=()):
    """Everything a walk reads off a region tree: its links, each child's leg
    (None for a branch without a link), its loose leaves, whether it is
    connected, and each held valuation's sums as rationals.  Links are read
    as lists, so a kept tree's tuples compare equal to a fresh build's lists,
    and each link's interval is read through its position, so trees that index
    their intervals in different orders compare equal."""
    sums = []
    for val in held:
        below, branch, scale = rt.subtree_values(val)
        sums.append(([F(x, scale) for x in below], [F(x, scale) for x in branch]))
    return {
        "parent": list(rt.parent),
        "children": [list(kids) for kids in rt.children],
        "spans": [None if i < 0 else rt.intervals[i] for i in rt.position],
        "legs": [None if rt.position[w] < 0 else rt.leg(w) for w in range(1, len(rt.parent))],
        "loose": list(rt.loose),
        "connected": rt.connected,
        "sums": sums,
    }
