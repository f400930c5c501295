"""Seeded corpora for the four benchmark workloads.

The structure of every corpus (graph shapes, sizes, agent counts, protocols,
oracle grids) is fixed here; the seed only draws the valuations.  Runs with
different seeds therefore do the same kind and amount of work.

The library's own generator stops at 12 edges, so graphs for the network and
recursive workloads are built in this file.  Valuations come from the public
``random_valuations``, which works on any graph.  The program receives only
the generated instances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from graphcake import allocation, cli, fixtures, graph_core, oracle, protocols
from graphcake.graph_core import CakeGraph
from graphcake.valuation import Instance

F = Fraction

FAMILIES = ("tree", "star", "cycle-augmented", "arbitrary")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What the checker makes of one operation's result (computed untimed)."""

    text: str  # the operation's output, hashed into the workload digest
    bits: int = 0  # largest denominator bit length in an emitted allocation
    eval_queries: int = 0
    cut_queries: int = 0
    output_bytes: int = 0  # stdout bytes of a CLI call
    problems: list[str] = field(default_factory=list)


def allocation_bits(alloc) -> int:
    return max(
        (x.denominator.bit_length() for p in alloc.pieces for iv in p.intervals for x in (iv.lo, iv.hi)),
        default=0,
    )


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class _OnInstance:
    """Input size of an operation on one instance."""

    @property
    def edges(self) -> int:
        return self.inst.graph.m

    @property
    def agents(self) -> int:
        return self.inst.n


@dataclass
class Solve(_OnInstance):
    """``run_protocol``, then ``verify_allocation``, then ``guarantee_violations``."""

    protocol: str
    inst: Instance
    params: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return f"solve:{self.protocol}"

    def execute(self):
        result = protocols.run_protocol(self.protocol, self.inst, self.params)
        report = allocation.verify_allocation(self.inst, result.allocation)
        problems = protocols.guarantee_violations(self.protocol, self.inst, report, self.params, result)
        return result, report, problems

    def finish(self, raw) -> Outcome:
        result, report, problems = raw
        doc = {
            "protocol": self.protocol,
            "allocation": result.allocation.to_json(),
            "report": report.to_json(),
            "queries": result.queries.to_json(),
        }
        return Outcome(
            _dumps(doc),
            bits=allocation_bits(result.allocation),
            eval_queries=result.queries.eval_count,
            cut_queries=result.queries.cut_count,
            problems=list(problems),
        )


_OBJECTIVES = {
    "egal": min,
    "cost": max,
    "inequity": lambda values: max(values) - min(values),
}


@dataclass
class GridSearch(_OnInstance):
    """One ``grid_search_best`` call; the witness is re-verified to the optimum."""

    label: str
    inst: Instance
    cfg: oracle.GridSearchConfig
    expected: Fraction | None = None  # the known certificate value, if any

    kind = "oracle:grid_search"

    def execute(self):
        return oracle.grid_search_best(self.inst, self.cfg)

    def finish(self, raw) -> Outcome:
        optimum, witness = raw
        problems = []
        if self.expected is not None and optimum != self.expected:
            problems.append(f"{self.label}: optimum {optimum}, expected {self.expected}")
        report = allocation.verify_allocation(self.inst, witness)
        if _OBJECTIVES[self.cfg.objective](report.values) != optimum:
            problems.append(f"{self.label}: witness does not re-verify to {optimum}")
        if not report.disjoint or (self.cfg.require_complete and not report.complete):
            problems.append(f"{self.label}: witness is not a valid allocation")
        if self.cfg.piece_budget is None and not report.all_connected:
            problems.append(f"{self.label}: witness has a disconnected piece")
        if self.cfg.piece_budget is not None and report.total_pieces > self.cfg.piece_budget:
            problems.append(f"{self.label}: witness exceeds the piece budget")
        doc = {"op": self.label, "optimum": str(optimum), "witness": witness.to_json()}
        return Outcome(_dumps(doc), bits=allocation_bits(witness), problems=problems)


@dataclass
class PairSearch(_OnInstance):
    """One ``pair_feasible`` call on an impossibility gadget, which must be infeasible."""

    label: str
    inst: Instance
    grid: int
    first: Fraction
    second: Fraction
    options: dict

    kind = "oracle:pair_feasible"

    def execute(self):
        return oracle.pair_feasible(self.inst, self.grid, self.first, self.second, **self.options)

    def finish(self, raw) -> Outcome:
        found, witness = raw
        problems = [f"{self.label}: a feasible allocation exists"] if found else []
        doc = {"op": self.label, "feasible": found, "witness": witness and witness.to_json()}
        return Outcome(_dumps(doc), problems=problems)


@dataclass
class PowersOfThree:
    """``check_powers_of_three``; the gap must equal 1/(2*3^t)."""

    t: int
    window: tuple[int, int] = (-6, 2)

    kind = "oracle:powers3"
    edges = 0
    agents = 0

    def execute(self):
        return oracle.check_powers_of_three(self.t, *self.window)

    def finish(self, raw) -> Outcome:
        holds, (exps, coefs), gap = raw
        problems = []
        if not holds or gap != F(1, 2 * 3**self.t):
            problems.append(f"powers3 t={self.t}: holds={holds}, gap {gap}")
        doc = {"op": f"powers3/{self.t}", "gap": str(gap), "exponents": exps, "coefficients": coefs}
        return Outcome(_dumps(doc), problems=problems)


@dataclass
class CliCall:
    """One in-process ``cli.main`` invocation reading its document from stdin."""

    argv: list[str]
    document: str
    edges: int
    agents: int

    @property
    def kind(self) -> str:
        return f"cli:{self.argv[0]}"

    def execute(self):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(self.document)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(self.argv)
                except SystemExit as exc:  # argparse and parameter errors
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def finish(self, raw) -> Outcome:
        code, stdout, stderr = raw
        outcome = Outcome(stdout, output_bytes=len(stdout.encode()))
        if code != 0:
            outcome.problems.append(f"{' '.join(self.argv)} exited {code}: {stderr.strip()}")
            return outcome
        if self.argv[0] == "solve":
            doc = json.loads(stdout)
            outcome.bits = allocation_bits(allocation.Allocation.from_json(doc["allocation"]))
            outcome.eval_queries = doc["queries"]["eval"]
            outcome.cut_queries = doc["queries"]["cut"]
        return outcome


# ---------------------------------------------------------------------------
# Graphs beyond the generator's 12-edge cap
# ---------------------------------------------------------------------------


def tree_graph(rng: random.Random, m: int) -> CakeGraph:
    """Random recursive tree: vertex i hangs off a uniformly chosen earlier vertex."""
    vertices = [f"v{i}" for i in range(m + 1)]
    edges = [(f"e{i - 1}", f"v{rng.randrange(i)}", f"v{i}") for i in range(1, m + 1)]
    return CakeGraph(vertices, edges)


def cycle_graph(m: int) -> CakeGraph:
    return CakeGraph([f"v{i}" for i in range(m)], [(f"e{i}", f"v{i}", f"v{(i + 1) % m}") for i in range(m)])


def ear_graph(rng: random.Random, m: int) -> CakeGraph:
    """A short path with ears of length 1-6 hung between its vertices.

    Ears never create bridges outside the path, so the graph is almost
    bridgeless, like a road network whose detours close into cycles.
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


def mixed_graph(rng: random.Random, m: int) -> CakeGraph:
    """A random tree on half to all of the edges plus random chords; usually bridged."""
    t = rng.randint(m // 2, m)
    vertices = [f"v{i}" for i in range(t + 1)]
    edges = [(f"e{i - 1}", f"v{rng.randrange(i)}", f"v{i}") for i in range(1, t + 1)]
    for j in range(t, m):
        u = rng.choice(vertices)
        v = rng.choice([w for w in vertices if w != u])
        edges.append((f"e{j}", u, v))
    return CakeGraph(vertices, edges)


def star_graph(k: int) -> CakeGraph:
    return CakeGraph(["c"] + [f"l{i}" for i in range(k)], [(f"e{i}", "c", f"l{i}") for i in range(k)])


NETWORK_BUILDERS = {
    "tree": tree_graph,
    "cycle-augmented": ear_graph,
    "arbitrary": mixed_graph,
    "cycle": lambda rng, m: cycle_graph(m),
}


def connected_multigraphs(max_edges: int) -> list[CakeGraph]:
    """Every connected loopless multigraph with at most ``max_edges`` edges, up to isomorphism.

    Each graph with m edges arises from one with m-1 edges by adding an edge
    between two of its vertices or to a new vertex, so growing the canonical
    set edge by edge reaches them all.
    """

    def canonical(nv: int, pairs) -> tuple:
        return min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in pairs))
            for p in itertools.permutations(range(nv))
        )

    level = {(2, ((0, 1),))}
    found = sorted(level)
    for _ in range(max_edges - 1):
        grown = set()
        for nv, pairs in level:
            for a, b in itertools.combinations(range(nv + 1), 2):
                size = max(nv, b + 1)  # b == nv hangs the edge on a new vertex
                grown.add((size, canonical(size, pairs + ((a, b),))))
        level = grown
        found.extend(sorted(level))
    return [
        CakeGraph([f"v{i}" for i in range(nv)], [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(pairs)])
        for nv, pairs in found
    ]


def height_at_most_two(g: CakeGraph) -> bool:
    """Whether the graph is a tree with some root that has every vertex within depth two."""
    if not g.is_tree():
        return False
    for root in g.vertices:
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        if max(depth.values()) <= 2:
            return True
    return False


def desk_protocols(inst: Instance) -> list[tuple[str, dict]]:
    """Every (protocol, parameters) pair whose preconditions the instance meets."""
    g, n = inst.graph, inst.n
    if inst.mode == "chore":
        out = [("chore2", {})] if n == 2 else []
        out += [("chore3", {})] if n == 3 else []
        return out + ([("chore5", {})] if n <= 5 else [])
    out = [("egal", {})]
    if n >= 2 and g.m >= 3 and g.star_center() is not None:
        out.append(("star", {}))
    if n == 2:
        if graph_core.classify_almost_bridgeless(g).is_almost_bridgeless:
            out.append(("prop2", {}))
        out += [("best2", {}), ("fixed2", {}), ("flex2", {"alpha": "1/4"}), ("multi2", {"k": "2"}), ("equit2", {})]
        if height_at_most_two(g):
            out.append(("height2", {}))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    ops: list
    documents: list[str]  # every generated instance, serialized


def _rng(workload: str, seed, slot) -> random.Random:
    # one stream per slot, so a slot's instance does not depend on the slots before it
    return random.Random(f"graphcake-bench/{workload}/{seed}/{slot}")


def _instance(rng: random.Random, g: CakeGraph, n: int, mode: str) -> Instance:
    return Instance(g, fixtures.random_valuations(rng, g, n), mode)


NETWORK_PARAMS = {
    "best2": {},
    "prop2": {},
    "fixed2": {},
    "flex2": {"alpha": F(1, 4)},
    "equit2": {},
    "multi2": {"k": 3},
    "chore2": {},
}
ALL_NETWORK = tuple(NETWORK_PARAMS)

# (family, edges, protocols); prop2 runs only where the graph is almost bridgeless.
# The tail percentile falls among the four 400-edge solves of about 0.5 s (best2 and
# equit2 on the first cycle-augmented graph, equit2 on the arbitrary one, best2 on the
# second cycle-augmented one), above the 0.35-0.4 s ones, so it sits inside a group of
# like cost rather than on the edge between two.
NETWORK_PLAN = (
    ("cycle", 800, ("best2",)),
    ("cycle-augmented", 400, ("best2", "fixed2", "equit2")),
    ("arbitrary", 400, ("best2", "equit2")),
    ("tree", 400, ("fixed2",)),
    ("cycle-augmented", 200, ALL_NETWORK),
    ("arbitrary", 200, ALL_NETWORK),
    ("tree", 200, ALL_NETWORK),
    ("cycle-augmented", 400, ("best2",)),
)


def network_corpus(seed: int) -> Corpus:
    """Graph shapes are fixed per slot and the seed draws the valuations.

    The cost of the graph algorithms depends on a graph's shape far more than
    on the valuations, so fixed shapes keep runs with different seeds alike.
    """
    ops, docs = [], []
    for slot, (family, m, names) in enumerate(NETWORK_PLAN):
        g = NETWORK_BUILDERS[family](_rng("network-2agent", "shape", slot), m)
        rng = _rng("network-2agent", seed, slot)
        cake = _instance(rng, g, 2, "cake")
        chore = _instance(rng, g, 2, "chore")
        docs += [_dumps(cake.to_json()), _dumps(chore.to_json())]
        bridgeless = graph_core.classify_almost_bridgeless(g).is_almost_bridgeless
        for name in names:
            if name == "prop2" and not bridgeless:
                continue
            ops.append(Solve(name, chore if name == "chore2" else cake, NETWORK_PARAMS[name]))
    return Corpus(ops, docs)


# (protocol, mode, agents, edges): trees, or stars for the star protocol.  egal's
# cost grows steeply with the agents, so the runs with 8, 12 and 16 agents use
# trees sized to cost about the same, about 0.5 s each.  The tail percentile
# falls in the middle of these six, and each is short enough for five passes
# to fit in a 20-second run.
RECURSIVE_PLAN = (
    ("egal", "cake", 4, 200),
    *(("egal", "cake", 8, m) for m in (65, 75)),
    *(("egal", "cake", 12, m) for m in (28, 32)),
    *(("egal", "cake", 16, m) for m in (16, 18)),
    # two valuation draws per star: the stars hold the median, and a denser middle steadies it
    *(("star", "cake", n, k) for n in (2, 3, 4, 5, 6) for k in (4, 6, 8, 10, 12) for _ in range(2)),
    *(("chore3", "chore", 3, m) for m in (50, 100)),
    *(("chore5", "chore", n, m) for n in (3, 4, 5) for m in (50, 100)),
)


def recursive_corpus(seed: int) -> Corpus:
    """Tree shapes are fixed per slot and the seed draws the valuations, as for the network."""
    ops, docs = [], []
    for slot, (name, mode, n, m) in enumerate(RECURSIVE_PLAN):
        g = star_graph(m) if name == "star" else tree_graph(_rng("recursive-nagent", "shape", slot), m)
        inst = _instance(_rng("recursive-nagent", seed, slot), g, n, mode)
        docs.append(_dumps(inst.to_json()))
        ops.append(Solve(name, inst, {}))
    return Corpus(ops, docs)


def _fixture(name: str, **params) -> Instance:
    return fixtures.build_fixture(fixtures.FixtureSpec(name, params))


def _certificates() -> list:
    """The tightness certificates of the test suite, with their known values."""
    cfg = oracle.GridSearchConfig
    ops = [
        GridSearch("star_fnk_tight(3,4)", _fixture("star_fnk_tight", n=3, k=4), cfg(4, "egal", require_complete=True), F(1, 4)),
        GridSearch("star_fnk_tight(2,3)", _fixture("star_fnk_tight", n=2, k=3), cfg(6), protocols.f_guarantee(2, 3)),
        GridSearch("star_tight(2)", _fixture("star_tight", n=2), cfg(6), F(1, 3)),
        GridSearch("three_bridge", _fixture("three_bridge"), cfg(6), F(1, 3)),
        GridSearch("equit_star3", _fixture("equit_star3"), cfg(6, "inequity", require_complete=True), F(1, 3)),
        GridSearch(
            "ternary_tree(1)",
            _fixture("ternary_tree", k=1),
            cfg(3, "egal", piece_budget=2, require_complete=True),
            F(1, 3),
        ),
    ]
    for n, grid in ((2, 6), (3, 4)):
        ops.append(GridSearch(f"chore_star({n})", _fixture("chore_star", n=n), cfg(grid, "cost", require_complete=True), F(2, n + 1)))
    strict = {"first_strict": True, "second_strict": True}
    ops.append(PairSearch("four_edge_star", _fixture("four_edge_star"), 8, F(1, 2), F(1, 4), strict))
    gadget = _fixture("fig2", alpha=F(1, 4), eps=F(1, 100))
    ops.append(PairSearch("fig2", gadget, 8, F(1, 4), F(1, 2) + F(1, 50), {"second_strict": True}))
    ops += [PowersOfThree(t) for t in range(1, 4)]
    return ops


def oracle_corpus(seed: int) -> Corpus:
    """Certificates plus complete searches on every connected multigraph with at most four edges.

    The random instances keep a fixed graph per slot and draw only the
    valuations from the seed: the size of the search depends on the graph,
    so this keeps the amount of work the same across seeds.

    The 59 operations put the tail percentile about 3.5 operations from the
    top, inside the samples of the powers-of-three lemma for t = 3.  That
    operation costs under half of the three above it and more than the
    certificates below it.  The three-agent searches use grids 4 and 5, so
    the median falls in the middle of five searches of 12 to 15 ms rather
    than at the top of them, below a jump to 18 ms.  Neither percentile sits
    on a boundary between two operations of different cost.
    """
    ops = _certificates()
    docs = [_dumps(op.inst.to_json()) for op in ops if hasattr(op, "inst")]
    slots = []
    for i, g in enumerate(connected_multigraphs(4)):
        slots += [(g, 2, 4 + (i + j) % 3, objective) for j, objective in enumerate(("egal", "inequity"))]
        if g.m <= 2:
            slots += [(g, 3, grid, ("egal", "inequity")[grid % 2]) for grid in (4, 5)]
    for slot, (g, n, grid, objective) in enumerate(slots):
        inst = _instance(_rng("oracle-certify", seed, slot), g, n, "cake")
        docs.append(_dumps(inst.to_json()))
        cfg = oracle.GridSearchConfig(grid, objective, require_complete=True)
        ops.append(GridSearch(f"random/{slot}", inst, cfg))
    return Corpus(ops, docs)


# (family, mode, agents) cycles over these; edge counts cycle over 1..12
DESK_SLOTS = 84
DESK_CAKE_AGENTS = (2, 2, 2, 3, 4, 5, 6, 7, 8)
DESK_CHORE_AGENTS = (2, 3, 4, 5)


def desk_corpus(seed: int) -> Corpus:
    """Solves through the CLI, plus classify and label on every small multigraph.

    Each slot takes its graph from ``random_instance`` with the slot number as
    the seed, so the shapes, and with them the protocols that apply, are the
    same for every run; the run's seed draws the valuations.
    """
    ops, docs = [], []
    for i in range(DESK_SLOTS):
        chore = i % 3 == 2
        agents = DESK_CHORE_AGENTS if chore else DESK_CAKE_AGENTS
        n = agents[(i // 3) % len(agents)]
        g = fixtures.random_instance(i, n=1, family=FAMILIES[i % 4], edges=1 + (5 * i) % 12).graph
        inst = _instance(_rng("desk-cli", seed, i), g, n, "chore" if chore else "cake")
        doc = _dumps(inst.to_json())
        docs.append(doc)
        for name, params in desk_protocols(inst):
            argv = ["solve", "--instance", "-", "--protocol", name]
            for key, value in params.items():
                argv += ["-p", f"{key}={value}"]
            ops.append(CliCall(argv, doc, inst.graph.m, inst.n))
    for g in connected_multigraphs(5):
        doc = _dumps(g.to_json())
        docs.append(doc)
        ops += [CliCall([sub, "--instance", "-"], doc, g.m, 0) for sub in ("classify", "label")]
    return Corpus(ops, docs)


WORKLOADS = {
    "network-2agent": network_corpus,
    "recursive-nagent": recursive_corpus,
    "oracle-certify": oracle_corpus,
    "desk-cli": desk_corpus,
}
