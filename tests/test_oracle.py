import dataclasses
import itertools
import math
import random
import re
import time
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphcake.allocation import Allocation, verify_allocation
from graphcake.errors import BudgetExceeded, DomainError
from graphcake.fixtures import FixtureSpec, build_fixture, random_instance, random_valuations
from graphcake.graph_core import ONE, ZERO, CakeGraph, Interval, Piece
from graphcake.oracle import (
    MAX_ATOMS,
    OBJECTIVES,
    GridSearchConfig,
    _assignments,
    _assigns_first,
    _AtomModel,
    _Budget,
    _connected_subsets,
    check_powers_of_three,
    grid_search_best,
    pair_feasible,
)
from graphcake.protocols import chore_two, connected_egalitarian, equitable_two
from graphcake.valuation import Instance, Segment, Valuation

import independent
from conftest import connected_multigraphs_up_to_iso, path_graph, single_edge_graph, uniform_instance

F = Fraction


def test_single_edge_even_split():
    inst = uniform_instance(single_edge_graph(), 2)
    optimum, witness = grid_search_best(inst, GridSearchConfig(denominator=2))
    assert optimum == F(1, 2)
    rep = verify_allocation(inst, witness)
    assert rep.all_connected and rep.disjoint


def test_star_tight_two_agents():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    optimum, witness = grid_search_best(inst, GridSearchConfig(denominator=6))
    assert optimum == F(1, 3)
    rep = verify_allocation(inst, witness)
    assert rep.all_connected and rep.disjoint
    assert rep.egalitarian == F(1, 3)


def test_chore_star_two_agents():
    inst = build_fixture(FixtureSpec("chore_star", {"n": 2}))
    cfg = GridSearchConfig(denominator=6, objective="cost", require_complete=True)
    optimum, witness = grid_search_best(inst, cfg)
    assert optimum == F(2, 3)
    rep = verify_allocation(inst, witness)
    assert rep.complete and rep.all_connected


def test_min_inequity_on_star():
    inst = build_fixture(FixtureSpec("equit_star3", {}))
    cfg = GridSearchConfig(denominator=6, objective="inequity", require_complete=True)
    optimum, _ = grid_search_best(inst, cfg)
    assert optimum == F(1, 3)


def test_three_agent_star_tightness():
    # completeness is harmless for welfare maximization: any unallocated
    # component borders an allocated piece, so it can be absorbed without
    # breaking connectivity and values only grow
    inst = build_fixture(FixtureSpec("star_fnk_tight", {"n": 3, "k": 4}))
    cfg = GridSearchConfig(denominator=8, objective="egal", require_complete=True)
    optimum, witness = grid_search_best(inst, cfg)
    assert optimum == F(1, 4)
    rep = verify_allocation(inst, witness)
    assert rep.complete and rep.all_connected and rep.egalitarian == F(1, 4)


def test_piece_budget_mode():
    inst = build_fixture(FixtureSpec("ternary_tree", {"k": 1}))
    cfg = GridSearchConfig(
        denominator=3, objective="egal", piece_budget=2, require_complete=True
    )
    optimum, witness = grid_search_best(inst, cfg)
    assert optimum == F(1, 3)
    rep = verify_allocation(inst, witness)
    assert rep.total_pieces <= 2


def test_oracle_dominates_protocols_on_fixtures():
    star2 = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    protocol_welfare = verify_allocation(
        star2, connected_egalitarian(star2).allocation
    ).egalitarian
    oracle_welfare, _ = grid_search_best(star2, GridSearchConfig(denominator=6))
    assert oracle_welfare >= protocol_welfare

    equit = build_fixture(FixtureSpec("equit_star3", {}))
    protocol_ineq = verify_allocation(equit, equitable_two(equit).allocation).inequity
    oracle_ineq, _ = grid_search_best(
        equit, GridSearchConfig(denominator=6, objective="inequity", require_complete=True)
    )
    assert oracle_ineq <= protocol_ineq

    chores = build_fixture(FixtureSpec("chore_star", {"n": 2}))
    protocol_cost = verify_allocation(chores, chore_two(chores).allocation).egalitarian
    oracle_cost, _ = grid_search_best(
        chores, GridSearchConfig(denominator=6, objective="cost", require_complete=True)
    )
    assert oracle_cost <= protocol_cost


def test_grid_refinement_monotone():
    fixtures = [
        build_fixture(FixtureSpec("star_tight", {"n": 2})),
        build_fixture(FixtureSpec("three_bridge")),
        uniform_instance(single_edge_graph(), 2),
    ]
    for inst in fixtures:
        coarse, _ = grid_search_best(inst, GridSearchConfig(denominator=3))
        fine, _ = grid_search_best(inst, GridSearchConfig(denominator=6))
        assert coarse <= fine


def test_witness_is_deterministic():
    inst = uniform_instance(single_edge_graph(), 2)
    _, w1 = grid_search_best(inst, GridSearchConfig(denominator=4))
    _, w2 = grid_search_best(inst, GridSearchConfig(denominator=4))
    assert w1.to_json() == w2.to_json()


def test_budget_exceeded():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    with pytest.raises(BudgetExceeded):
        grid_search_best(inst, GridSearchConfig(denominator=6, state_budget=50))
    with pytest.raises(BudgetExceeded):
        grid_search_best(
            inst,
            GridSearchConfig(denominator=6, piece_budget=3, state_budget=1000),
        )


# the optimum and least witness of each search with a budget of four pieces on
# a five-edge chore instance, as listing every assignment found them
_LEAST_CHORE = [[["e4", "0", "1/2"]], [], []]
_BEST_LEAST = [
    [["e0", "1/2", "1"], ["e3", "0", "1"]],
    [["e1", "1/2", "1"], ["e2", "0", "1/2"], ["e4", "1/2", "1"]],
    [["e0", "0", "1/2"], ["e1", "0", "1/2"], ["e2", "1/2", "1"], ["e4", "0", "1/2"]],
]
FIVE_EDGE_OPTIMA = {
    ("cost", False): (F(0), _LEAST_CHORE),
    ("cost", True): (
        F(27, 107),
        [
            [["e0", "0", "1"], ["e1", "0", "1/2"], ["e4", "0", "1/2"]],
            [["e2", "1/2", "1"], ["e3", "0", "1"]],
            [["e1", "1/2", "1"], ["e2", "0", "1/2"], ["e4", "1/2", "1"]],
        ],
    ),
    ("inequity", False): (F(0), _LEAST_CHORE),
    ("inequity", True): (
        F(145, 12626),
        [
            [["e1", "0", "1"], ["e3", "1/2", "1"]],
            [["e0", "0", "1"], ["e3", "0", "1/2"]],
            [["e2", "0", "1"], ["e4", "0", "1"]],
        ],
    ),
    ("egal", False): (F(23, 59), _BEST_LEAST),
    ("egal", True): (F(23, 59), _BEST_LEAST),
}


@pytest.mark.parametrize(
    "objective, complete", FIVE_EDGE_OPTIMA, ids=[o + "-complete" * c for o, c in FIVE_EDGE_OPTIMA]
)
def test_piece_budget_search_on_five_edges_is_bounded(objective, complete):
    # listing every assignment took 59,049 states with completeness and
    # 1,048,576 without; the incumbent bound needs fewer than 100,000
    inst = random_instance(4, n=3, family="arbitrary", edges=5, mode="chore")
    cfg = GridSearchConfig(2, objective, piece_budget=4, require_complete=complete, state_budget=100_000)
    assert _outcome(lambda: grid_search_best(inst, cfg)) == list(FIVE_EDGE_OPTIMA[objective, complete])


def test_piece_budget_search_spends_a_state_on_every_set_it_looks_at():
    # a piece budget of 0 keeps only the empty sets, but the first agent looks
    # at all 2^16 sets of the 16 atoms first
    inst = uniform_instance(path_graph(8), 2)
    with pytest.raises(BudgetExceeded):
        grid_search_best(inst, GridSearchConfig(2, piece_budget=0, state_budget=1_000))
    optimum, witness = grid_search_best(inst, GridSearchConfig(2, piece_budget=0))
    assert optimum == 0 and witness.pieces == (Piece.empty(), Piece.empty())


def test_pair_feasibility_small():
    inst = uniform_instance(single_edge_graph(), 2)
    ok, witness = pair_feasible(inst, 4, F(1, 2), F(1, 2))
    assert ok and witness is not None
    ok, _ = pair_feasible(inst, 4, F(1, 2), F(1, 2), first_strict=True)
    assert not ok


def test_pair_search_refuses_an_inexact_threshold():
    inst = uniform_instance(single_edge_graph(), 2)
    for thresholds in ((0.25, F(1, 4)), (F(1, 4), 0.25), (True, F(1, 4))):
        with pytest.raises(DomainError, match="not exact"):
            pair_feasible(inst, 2, *thresholds)


def test_pair_feasibility_flexible_order():
    # agent 1 uniform, agent 2 supported on the middle half: giving 7/8 to
    # agent 1 starves agent 2 completely, but the swapped assignment works
    inst = build_fixture(FixtureSpec("frontier_edge", {"alpha": F(3, 4)}))
    ordered, _ = pair_feasible(inst, 8, F(7, 8), F(1, 8), flexible=False)
    assert not ordered
    flexible, witness = pair_feasible(inst, 8, F(7, 8), F(1, 8), flexible=True)
    assert flexible and witness is not None


def test_complete_pair_search_grows_a_first_piece_past_its_threshold():
    # a path x-y-z-w whose middle edge comes first: the first piece {e0} meets
    # its threshold but splits the rest, and only the larger {e0, e1} leaves
    # the second agent a connected complement
    g = CakeGraph(["x", "y", "z", "w"], [("e0", "y", "z"), ("e1", "x", "y"), ("e2", "z", "w")])
    first = Valuation.from_edge_values({"e0": 1})
    second = Valuation.from_edge_values({"e2": 1})
    inst = Instance(g, (first, second), "cake")
    found, witness = pair_feasible(inst, 1, F(1), F(1), flexible=False, require_complete=True)
    assert found and [p.to_json() for p in witness.pieces] == [
        [["e0", "0", "1"], ["e1", "0", "1"]],
        [["e2", "0", "1"]],
    ]


def test_config_validation():
    with pytest.raises(DomainError):
        GridSearchConfig(denominator=0)
    with pytest.raises(DomainError):
        GridSearchConfig(denominator=2, objective="nope")
    with pytest.raises(DomainError, match="state budget must be nonnegative, got -5"):
        GridSearchConfig(denominator=2, state_budget=-5)
    with pytest.raises(DomainError, match="piece budget must be nonnegative, got -1"):
        GridSearchConfig(denominator=2, piece_budget=-1)
    inst = uniform_instance(single_edge_graph(), 2)
    with pytest.raises(DomainError, match="state budget must be nonnegative, got -1"):
        pair_feasible(inst, 2, F(1, 2), F(1, 2), state_budget=-1)
    with pytest.raises(DomainError, match="state budget must be nonnegative, got -1"):
        check_powers_of_three(1, -3, 1, state_budget=-1)


HUGE = -(10**5000)  # past the interpreter's 4,300-digit limit for str
TWO = uniform_instance(single_edge_graph(), 2)
BITS = "<int of 16610 bits>"
REFUSED = {
    "state-huge": (lambda: GridSearchConfig(2, state_budget=HUGE), f"state budget must be nonnegative, got {BITS}"),
    "piece-huge": (lambda: GridSearchConfig(2, piece_budget=HUGE), f"piece budget must be nonnegative, got {BITS}"),
    "powers3-huge": (lambda: check_powers_of_three(2, 0, 2, HUGE), f"state budget must be nonnegative, got {BITS}"),
    "grid-float": (lambda: GridSearchConfig(2.5), "grid denominator must be an int, got 2.5"),
    "grid-bool": (lambda: GridSearchConfig(True), "grid denominator must be an int, got True"),
    "piece-bool": (lambda: GridSearchConfig(2, piece_budget=True), "piece budget must be an int, got True"),
    "state-float": (lambda: GridSearchConfig(2, state_budget=1.5), "state budget must be an int, got 1.5"),
    "state-str": (lambda: GridSearchConfig(2, state_budget="10"), "state budget must be an int, got '10'"),
    "pair-grid-float": (lambda: pair_feasible(TWO, 2.5, F(1, 2), F(1, 2)), "grid denominator must be an int, got 2.5"),
    "pair-state-float": (lambda: pair_feasible(TWO, 2, 0, 0, state_budget=1.0), "state budget must be an int, got 1.0"),
    "t-float": (lambda: check_powers_of_three(2.0, 0, 2), "t must be an int, got 2.0"),
    "t-bool": (lambda: check_powers_of_three(True, 0, 2), "t must be an int, got True"),
    "start-fraction": (lambda: check_powers_of_three(2, F(0), 2), "window start must be an int, got Fraction(0, 1)"),
    "end-float": (lambda: check_powers_of_three(2, 0, 2.0), "window end must be an int, got 2.0"),
    "powers3-bool": (lambda: check_powers_of_three(2, 0, 2, False), "state budget must be an int, got False"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_oracle_integers_refuse_other_types_and_print_huge_values_short(case):
    # a bool, a float or a Fraction is refused, not read as a number; a value
    # too long for str is shown by its size
    call, message = REFUSED[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_powers_of_three_base_case():
    holds, (exps, coefs), gap = check_powers_of_three(1, -3, 1)
    assert holds and gap == F(1, 6)
    value = sum(c * F(3) ** a for c, a in zip(coefs, exps))
    assert abs(value - F(1, 2)) == F(1, 6)
    assert value in (F(1, 3), F(2, 3))


def test_powers_of_three_t2():
    holds, _, gap = check_powers_of_three(2, -3, 1)
    assert holds and gap == F(1, 18)


def test_powers_of_three_t3():
    holds, _, gap = check_powers_of_three(3, -4, 1)
    assert holds and gap >= F(1, 54)


def test_powers_of_three_domain():
    with pytest.raises(DomainError):
        check_powers_of_three(0, -3, 1)
    with pytest.raises(DomainError):
        check_powers_of_three(2, -20, 1)
    with pytest.raises(BudgetExceeded):
        check_powers_of_three(4, -6, 2, state_budget=10)


def test_powers_of_three_budget_boundary():
    # five exponents times four coefficients: twenty states
    assert check_powers_of_three(1, -3, 1, state_budget=20)[0]
    with pytest.raises(BudgetExceeded, match="state budget of 19"):
        check_powers_of_three(1, -3, 1, state_budget=19)


# -- the Fraction oracle, kept as a test-only reference ------------------------------
#
# The search below is the exact-Fraction oracle that the integer search
# replaced, with the same branch and bound written directly from its rule
# (the complements are summed afresh rather than kept per frame), and each
# entry point also returns how many states it spent.  It applies the same
# rules as the integer search, each written from its statement:
# - identical agents' pieces in one order: by lowest atom, the empty ones
#   last, or holding the lowest free atom when the allocation must be
#   complete, as in the piece-budget search, whose identical agents without
#   completeness take sets above the lowest atom of the set before;
# - the last piece of an egalitarian search without completeness is a whole
#   component of what is left, or empty when nothing is;
# - the pair search tries one order of thresholds when both agents share one
#   row, and stops growing a first piece that meets its threshold when the
#   allocation need not be complete.
# The integer search must return the same optimum, witness and tie-break, and
# spend its budget at the same states.  ``bounded=False`` turns the bound and
# every rule off, so that the bounded and the exhaustive searches can be
# compared.


class _RefBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"search exceeded the state budget of {self.limit}")


class _RefModel:
    def __init__(self, inst, d):
        self.d = d
        g = inst.graph
        self.atoms = [(e.id, j) for e in g.edges for j in range(d)]
        index = {atom: i for i, atom in enumerate(self.atoms)}
        adj = [0] * len(self.atoms)
        for e in g.edges:
            for j in range(d - 1):
                a, b = index[(e.id, j)], index[(e.id, j + 1)]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        at_vertex = {v: [] for v in g.vertices}
        for e in g.edges:
            at_vertex[e.u].append(index[(e.id, 0)])
            at_vertex[e.v].append(index[(e.id, d - 1)])
        for group in at_vertex.values():
            for a in group:
                for b in group:
                    if a != b:
                        adj[a] |= 1 << b
        self.adj = adj
        self.values = [
            [val.interval_value(e, F(j, d), F(j + 1, d)) for (e, j) in self.atoms]
            for val in inst.agents
        ]
        self.full_mask = (1 << len(self.atoms)) - 1

    def piece(self, mask):
        return Piece.of(
            Interval(e, F(j, self.d), F(j + 1, self.d))
            for i, (e, j) in enumerate(self.atoms)
            if mask >> i & 1
        )

    def value(self, agent, mask):
        acc = F(0)
        vals = self.values[agent]
        while mask:
            low = mask & -mask
            acc += vals[low.bit_length() - 1]
            mask ^= low
        return acc

    def components(self, mask):
        out = []
        rest = mask
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                grown = comp
                m = frontier
                while m:
                    low = m & -m
                    grown |= self.adj[low.bit_length() - 1] & rest
                    m ^= low
                frontier = grown & ~comp
                comp = grown
            rest &= ~comp
            out.append(comp)
        return out

    def component_count(self, mask):
        return len(self.components(mask))

    def is_connected(self, mask):
        return mask == 0 or self.component_count(mask) == 1


def _ref_connected_subsets(model, universe, agent, budget, cut=None, seeds=None, stop=None):
    """Connected subsets grown from each atom of ``seeds`` (default ``universe``);
    a subset that ``stop(value)`` accepts is kept but not grown."""
    adj = model.adj
    vals = model.values[agent]
    later = range(agent + 1, len(model.values))

    def dropped(subset, value):
        rests = tuple(model.value(b, universe & ~subset) for b in later)
        return cut is not None and cut(value, rests)

    def grow(current, value, frontier, banned, allowed):
        budget.spend()
        yield current, value
        if stop is not None and stop(value):
            return
        ext = frontier & allowed & ~banned
        local_ban = banned
        while ext:
            pick = ext & -ext
            ext ^= pick
            bit = pick.bit_length() - 1
            if not dropped(current | pick, value + vals[bit]):
                new_frontier = (frontier | adj[bit]) & ~(current | pick)
                yield from grow(current | pick, value + vals[bit], new_frontier, local_ban, allowed)
            local_ban |= pick

    atoms = universe if seeds is None else seeds
    while atoms:
        seed = atoms & -atoms
        atoms ^= seed
        bit = seed.bit_length() - 1
        allowed = universe & ~(seed - 1) & ~seed
        if not dropped(seed, vals[bit]):
            yield from grow(seed, vals[bit], adj[bit] & ~seed, 0, allowed)


def _ref_partitions(model, n, require_complete, budget, prune, bound, symmetry, whole_last):
    twins = _ref_twins(model, n) if symmetry else []

    def above(remaining, piece):
        # the atoms of ``remaining`` above the lowest atom of ``piece``, none if it is empty
        if not piece:
            return 0
        lowest = min(i for i in range(len(model.atoms)) if piece >> i & 1)
        return sum(1 << i for i in range(lowest + 1, len(model.atoms)) if remaining >> i & 1)

    def rec(agent, remaining, masks, values):
        if prune(values):
            return
        left = n - agent
        if require_complete and model.component_count(remaining) > left:
            return
        last = agent == n - 1
        if last and require_complete:
            if model.is_connected(remaining):
                budget.spend()
                yield masks + (remaining,), values + (model.value(agent, remaining),)
            return
        # an identical agent after the first takes a piece whose lowest atom is
        # above that of the piece before, and nothing after an empty piece
        follows = not require_complete and agent - 1 in twins
        seeds = above(remaining, masks[-1]) if follows else remaining
        if last and whole_last and remaining:
            # a whole component of what is left
            for comp in model.components(remaining):
                if comp | seeds == seeds:
                    budget.spend()
                    yield masks + (comp,), values + (model.value(agent, comp),)
            return
        if require_complete and remaining and agent in twins:
            # the next piece holds the lowest free atom, so it is not empty
            lowest = remaining & -remaining
            pieces = _ref_connected_subsets(model, remaining, agent, budget, bound(values), lowest)
        else:
            if last:
                budget.spend()
                yield masks + (0,), values + (F(0),)
            else:
                yield from rec(agent + 1, remaining, masks + (0,), values + (F(0),))
            pieces = _ref_connected_subsets(model, remaining, agent, budget, bound(values), seeds)
        for s, v in pieces:
            if last:
                yield masks + (s,), values + (v,)
            else:
                yield from rec(agent + 1, remaining & ~s, masks + (s,), values + (v,))

    yield from rec(0, model.full_mask, (), ())


def _ref_twins(model, n):
    """The agents from the first one on with whom every later agent shares a
    row of atom values, when there are at least two of them."""
    twins = [a for a in range(n) if all(model.values[b] == model.values[a] for b in range(a, n))]
    return twins if len(twins) > 1 else []


def _ref_in_order(assignment, twins):
    """Whether the ``twins`` first appear in ``assignment`` in index order,
    with those that never appear last."""
    order = [a for a in dict.fromkeys(assignment) if a in twins]
    return order == twins[: len(order)]


def _ref_assignments(model, n, cfg, budget, prune, twins):
    """Disjoint atom sets chosen agent by agent, with their values.  Each agent
    looks at the sets its rule allows in decreasing order of mask, one state
    each, and a prefix whose sets have more components in all than the piece
    budget, or which ``prune`` drops, is not extended.  With completeness the
    last agent looks only at the atoms left, and a twin's set holds the lowest
    free atom; without it a set after a twin's lies above that set's lowest
    atom, and after an empty one only the empty set is left."""

    def subsets(pool):
        bits = [1 << i for i in range(len(model.atoms)) if pool >> i & 1]
        every = (sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r))
        return sorted(every, reverse=True)

    def lowest(mask):
        return min(i for i in range(len(model.atoms)) if mask >> i & 1)

    def rec(agent, remaining, masks, values):
        if cfg.require_complete and agent == n - 1:
            options = [remaining]
        elif cfg.require_complete and agent in twins and remaining:
            options = [s for s in subsets(remaining) if s & remaining & -remaining]
        elif agent - 1 in twins:
            before = masks[-1]
            options = [s for s in subsets(remaining) if not s or (before and lowest(s) > lowest(before))]
        else:
            options = subsets(remaining)
        for s in options:
            budget.spend()
            head_masks, head = masks + (s,), values + (model.value(agent, s),)
            if sum(map(model.component_count, head_masks)) > cfg.piece_budget or prune(head):
                continue
            if agent == n - 1:
                yield head_masks, head
            else:
                yield from rec(agent + 1, remaining & ~s, head_masks, head)

    yield from rec(0, model.full_mask, (), ())


def _ref_assignment_key(model, masks, n):
    out = []
    for i in range(len(model.atoms)):
        owner = n
        for a, mask in enumerate(masks):
            if mask >> i & 1:
                owner = a
                break
        out.append(owner)
    return tuple(out)


def ref_grid_search_best(inst, cfg, bounded=True):
    """(optimum, witness, states spent) of the Fraction grid search."""
    model = _RefModel(inst, cfg.denominator)
    n = inst.n
    budget = _RefBudget(cfg.state_budget)
    maximize = cfg.objective == "egal"

    def objective(values):
        if cfg.objective == "egal":
            return min(values)
        if cfg.objective == "cost":
            return max(values)
        return max(values) - min(values)

    best = None

    def consider(masks, values):
        nonlocal best
        score = objective(values)
        if best is None or (score > best[0] if maximize else score < best[0]):
            best = (score, None, masks)
            return
        if score == best[0]:
            key = _ref_assignment_key(model, masks, n)
            incumbent = best[1] if best[1] is not None else _ref_assignment_key(model, best[2], n)
            if key < incumbent:
                best = (score, key, masks)
            else:
                best = (best[0], incumbent, best[2])

    def beaten(tops, bottoms):
        """Whether a final tuple whose largest value is at least each of
        ``tops`` and whose least value is at most each of ``bottoms`` must
        score strictly worse than the incumbent."""
        if not bounded or best is None:
            return False
        if cfg.objective == "egal":
            return bool(bottoms) and min(bottoms) < best[0]
        if cfg.objective == "cost":
            return bool(tops) and max(tops) > best[0]
        return bool(tops) and bool(bottoms) and max(tops) - min(bottoms) > best[0]

    def prune(values):
        return beaten(values, values)

    def bound(values):
        # the chooser's value only grows, and a later agent gets at most what
        # the chooser leaves
        return lambda value, rests: beaten(values + (value,), values + rests)

    if cfg.piece_budget is not None:
        twins = _ref_twins(model, n) if bounded else []
        for masks, values in _ref_assignments(model, n, cfg, budget, prune, twins):
            consider(masks, values)
    else:
        whole_last = bounded and cfg.objective == "egal" and not cfg.require_complete
        partitions = _ref_partitions(
            model, n, cfg.require_complete, budget, prune, bound, bounded, whole_last
        )
        for masks, values in partitions:
            consider(masks, values)

    if best is None:
        raise DomainError("search space is empty")
    return best[0], Allocation(tuple(model.piece(m) for m in best[2])), budget.used


def ref_pair_feasible(
    inst, d, first_threshold, second_threshold, first_strict=False, second_strict=False,
    flexible=True, require_complete=False, state_budget=10_000_000, bounded=True,
):
    """(feasible, witness, states spent) of the Fraction pair search."""
    model = _RefModel(inst, d)
    budget = _RefBudget(state_budget)

    def meets(value, threshold, strict):
        return value > threshold if strict else value >= threshold

    orders = [(first_threshold, first_strict, second_threshold, second_strict)]
    # agents that share one row search the swapped order as the same search
    if flexible and not (bounded and model.values[0] == model.values[1]):
        orders.append((second_threshold, second_strict, first_threshold, first_strict))
    for t0, s0, t1, s1 in orders:
        # the second agent's pieces lie in the first piece's complement
        cut = (lambda value, rests: not meets(rests[0], t1, s1)) if bounded else None
        # a larger first piece leaves the second agent only parts of what
        # this one leaves it, unless it must take the whole complement
        stop = None
        if bounded and not require_complete:
            stop = lambda value: meets(value, t0, s0)
        first_candidates = itertools.chain(
            [(0, F(0))], _ref_connected_subsets(model, model.full_mask, 0, budget, cut, stop=stop)
        )
        for s0_mask, v0 in first_candidates:
            if not meets(v0, t0, s0):
                continue
            complement = model.full_mask & ~s0_mask
            if require_complete:
                options = [complement] if model.is_connected(complement) else []
            else:
                options = [0] + model.components(complement)
            for s1_mask in options:
                if meets(model.value(1, s1_mask), t1, s1):
                    masks = (s0_mask, s1_mask)
                    return True, Allocation(tuple(model.piece(m) for m in masks)), budget.used
    return False, None, budget.used


def ref_check_powers_of_three(t, a_lo, a_hi):
    """(holds, first minimizer, gap, states spent) of the Fraction lemma check."""
    count = 0
    half = F(1, 2)
    best_gap = None
    best_assignment = None
    for exps in itertools.combinations_with_replacement(range(a_lo, a_hi + 1), t):
        powers = [F(3) ** a for a in exps]
        for coefs in itertools.product((-2, -1, 1, 2), repeat=t):
            count += 1
            total = sum((c * p for c, p in zip(coefs, powers)), F(0))
            gap = abs(total - half)
            if best_gap is None or gap < best_gap:
                best_gap = gap
                best_assignment = (exps, coefs)
    return best_gap >= F(1, 2 * 3**t), best_assignment, best_gap, count


# -- the integer oracle against the reference ----------------------------------------

# small denominators make ties; large coprime ones make the common scale a
# product of primes (lcm well above any single denominator)
DENOMINATORS = (1, 2, 3, 4, 8, 97, 101, 1009, 7919)
REFERENCE_BUDGET = 20_000


def _fractions(lo, hi_per_denominator):
    return st.sampled_from(DENOMINATORS).flatmap(
        lambda d: st.integers(lo, max(lo, hi_per_denominator * d - 1)).map(lambda k: F(k, d))
    )


@st.composite
def grid_instances(draw, max_edges=3, sharing=(None, 0, 1)):
    """Two or three agents with 1-3 segments per edge on a connected multigraph.

    Sometimes one valuation goes to every agent, or to every agent after the
    first, so that the searches take their symmetric paths: ``sharing`` lists
    the choices of the first agent that gets it, None for no sharing."""
    g = draw(st.sampled_from(connected_multigraphs_up_to_iso(max_edges)))
    agents = []
    for _ in range(draw(st.integers(2, 3))):
        densities = {}
        for e in g.edges:
            cuts = sorted(set(draw(st.lists(_fractions(1, 1), max_size=2))) - {F(0), F(1)})
            bounds = [F(0), *cuts, F(1)]
            densities[e.id] = tuple(
                Segment(lo, hi, draw(_fractions(0, 3))) for lo, hi in zip(bounds, bounds[1:])
            )
        v = Valuation(densities)
        agents.append(Valuation.uniform(g) if v.total() == 0 else v.scaled(1 / v.total()))
    shared = draw(st.sampled_from(sharing))
    if shared is not None:
        agents[shared:] = [agents[shared]] * (len(agents) - shared)
    return Instance(g, tuple(agents), "cake")


def _outcome(call):
    """A call's result as comparable JSON, or the name of the error it raised."""
    try:
        result = call()
    except (BudgetExceeded, DomainError) as exc:
        return type(exc).__name__
    return [x.to_json() if isinstance(x, Allocation) else x for x in result]


def _spends_like_the_reference(expected, search):
    """``search(budget)`` runs the integer search.  It must give the reference
    outcome ``expected`` (answer, witness, states spent, or an error name) and
    need exactly the states that the reference spent."""
    if isinstance(expected, str):
        assert _outcome(lambda: search(REFERENCE_BUDGET)) == expected
        return
    *answer, states = expected
    assert _outcome(lambda: search(states)) == answer
    if states:  # a pair search can succeed before it visits a state
        assert _outcome(lambda: search(states - 1)) == "BudgetExceeded"


@settings(max_examples=120, deadline=None)
@given(
    grid_instances(),
    st.integers(1, 4),
    st.sampled_from(OBJECTIVES),
    st.booleans(),
)
def test_grid_search_matches_the_fraction_reference(inst, d, objective, complete):
    cfg = GridSearchConfig(d, objective, require_complete=complete, state_budget=REFERENCE_BUDGET)
    _spends_like_the_reference(
        _outcome(lambda: ref_grid_search_best(inst, cfg)),
        lambda budget: grid_search_best(inst, dataclasses.replace(cfg, state_budget=budget)),
    )


@settings(max_examples=60, deadline=None)
@given(
    grid_instances(max_edges=2),
    st.integers(1, 4),
    st.sampled_from(OBJECTIVES),
    st.booleans(),
    st.integers(1, 4),
)
def test_piece_budget_search_matches_the_fraction_reference(inst, d, objective, complete, pieces):
    cfg = GridSearchConfig(
        d, objective, piece_budget=pieces, require_complete=complete, state_budget=REFERENCE_BUDGET
    )
    _spends_like_the_reference(
        _outcome(lambda: ref_grid_search_best(inst, cfg)),
        lambda budget: grid_search_best(inst, dataclasses.replace(cfg, state_budget=budget)),
    )


def _pair_arguments(inst, d, data):
    """A two-agent instance, grid and drawn thresholds and flags for the pair search."""
    inst = Instance(inst.graph, inst.agents[:2], "cake")
    model = _RefModel(inst, d)
    budget = _RefBudget(REFERENCE_BUDGET)
    # thresholds equal to a value some connected piece reaches, so that the
    # strict and non-strict comparisons decide the answer, or just off it, so
    # that the threshold times the scale is not an integer
    reachable = [
        [F(0)] + [v for _, v in _ref_connected_subsets(model, model.full_mask, a, budget)]
        for a in (0, 1)
    ]
    first, second = (
        data.draw(st.sampled_from(reachable[data.draw(st.integers(0, 1))]))
        + data.draw(st.sampled_from((F(0), F(0), F(1, 10007), F(-1, 10007))))
        for _ in range(2)
    )
    flags = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
    return (inst, d, first, second, *flags)


@settings(max_examples=150, deadline=None)
@given(grid_instances(), st.integers(1, 4), st.data())
def test_pair_search_matches_the_fraction_reference(inst, d, data):
    args = _pair_arguments(inst, d, data)
    _spends_like_the_reference(
        _outcome(lambda: ref_pair_feasible(*args, state_budget=REFERENCE_BUDGET)),
        lambda budget: pair_feasible(*args, state_budget=budget),
    )


# -- the bound keeps the optimum and the witness --------------------------------------


def _same_answer_in_fewer_states(bounded, exhaustive):
    """Reference outcomes (answer, witness, states) or error names: the bounded
    search gives the exhaustive one's answer and witness, in no more states."""
    if isinstance(exhaustive, str):
        assert bounded == exhaustive
    else:
        assert bounded[:2] == exhaustive[:2]
        assert bounded[2] <= exhaustive[2]


@settings(max_examples=60, deadline=None)
@given(grid_instances(), st.integers(1, 4), st.sampled_from(OBJECTIVES), st.booleans())
def test_bounded_grid_search_matches_the_exhaustive_one(inst, d, objective, complete):
    # a smaller budget than the other reference tests: the exhaustive search
    # spends all of it on the instances it cannot finish, which are skipped
    cfg = GridSearchConfig(d, objective, require_complete=complete, state_budget=5_000)
    exhaustive = _outcome(lambda: ref_grid_search_best(inst, cfg, bounded=False))
    assume(exhaustive != "BudgetExceeded")
    bounded = _outcome(lambda: ref_grid_search_best(inst, cfg))
    _same_answer_in_fewer_states(bounded, exhaustive)


@settings(max_examples=60, deadline=None)
@given(
    grid_instances(max_edges=2, sharing=(0, 1)),
    st.integers(1, 3),
    st.sampled_from(OBJECTIVES),
    st.booleans(),
    st.integers(1, 4),
)
def test_piece_budget_search_of_identical_agents_matches_the_exhaustive_one(
    inst, d, objective, complete, pieces
):
    # identical agents listed in one order only: the exhaustive answer and
    # witness, and the integer search spends what the reference does
    cfg = GridSearchConfig(
        d, objective, piece_budget=pieces, require_complete=complete, state_budget=5_000
    )
    exhaustive = _outcome(lambda: ref_grid_search_best(inst, cfg, bounded=False))
    assume(exhaustive != "BudgetExceeded")
    bounded = _outcome(lambda: ref_grid_search_best(inst, cfg))
    _same_answer_in_fewer_states(bounded, exhaustive)
    _spends_like_the_reference(
        bounded,
        lambda budget: grid_search_best(inst, dataclasses.replace(cfg, state_budget=budget)),
    )


@settings(max_examples=60, deadline=None)
@given(grid_instances(max_edges=2), st.integers(1, 3), st.booleans())
def test_assignment_count_is_the_number_of_ordered_assignments(inst, d, complete):
    # with no prune and no piece limit (no n sets of these atoms have more
    # components than there are atoms), every in-order assignment once
    model = _AtomModel(inst, d)
    cfg = GridSearchConfig(d, piece_budget=len(model.adj), require_complete=complete)
    listed = []
    for masks, values in _assignments(model, cfg, _Budget(10**6), lambda values: False):
        assert values == tuple(model.value(a, m) for a, m in enumerate(masks))
        listed.append(masks)
    n = inst.n
    twins = _ref_twins(_RefModel(inst, d), n)
    owners = range(n if complete else n + 1)
    ordered = [
        assignment
        for assignment in itertools.product(owners, repeat=len(model.adj))
        if _ref_in_order(assignment, twins)
    ]
    masks = {tuple(sum(1 << i for i, o in enumerate(a) if o == b) for b in range(n)) for a in ordered}
    assert len(set(listed)) == len(listed) == len(ordered)
    assert masks == set(listed)


@settings(max_examples=60, deadline=None)
@given(grid_instances(), st.integers(1, 4), st.data())
def test_bounded_pair_search_matches_the_exhaustive_one(inst, d, data):
    args = _pair_arguments(inst, d, data)
    exhaustive = _outcome(
        lambda: ref_pair_feasible(*args, state_budget=REFERENCE_BUDGET, bounded=False)
    )
    assume(exhaustive != "BudgetExceeded")
    bounded = _outcome(lambda: ref_pair_feasible(*args, state_budget=REFERENCE_BUDGET))
    _same_answer_in_fewer_states(bounded, exhaustive)


def test_bounded_pair_search_keeps_growing_a_met_first_piece_when_complete():
    # the path of test_complete_pair_search_grows_a_first_piece_past_its_threshold:
    # stopping at the first piece {e0}, which meets its threshold, would miss
    # the only answer, the larger {e0, e1}
    g = CakeGraph(["x", "y", "z", "w"], [("e0", "y", "z"), ("e1", "x", "y"), ("e2", "z", "w")])
    inst = Instance(
        g, (Valuation.from_edge_values({"e0": 1}), Valuation.from_edge_values({"e2": 1})), "cake"
    )
    for flexible in (False, True):
        args = (inst, 1, F(1), F(1), False, False, flexible, True)
        exhaustive = _outcome(
            lambda: ref_pair_feasible(*args, state_budget=REFERENCE_BUDGET, bounded=False)
        )
        bounded = _outcome(lambda: ref_pair_feasible(*args, state_budget=REFERENCE_BUDGET))
        assert exhaustive[0]
        _same_answer_in_fewer_states(bounded, exhaustive)


# a_lo from -6 to 3 takes both lemma scales, 2 * 3^-a_lo and plain 2
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(-6, 3), st.data())
def test_powers_of_three_matches_the_fraction_reference(t, a_lo, data):
    width = data.draw(st.integers(1, {1: 10, 2: 10, 3: 6, 4: 4}[t]))
    a_hi = a_lo + width - 1
    assert check_powers_of_three(t, a_lo, a_hi) == ref_check_powers_of_three(t, a_lo, a_hi)[:3]


def test_atom_piece_matches_one_interval_per_atom():
    # edges whose id order differs from their stored order (trunk before en.*,
    # e10 before e2), grids 1-5, and fields that are full, empty, random, or a
    # run from either end
    rng = random.Random(36)
    ternary = build_fixture(FixtureSpec("ternary_tree", {"k": 2})).graph
    for g in (ternary, path_graph(12), single_edge_graph()):
        for d in (1, 2, 3, 5):
            model = _AtomModel(uniform_instance(g, 2), d)
            field = (1 << d) - 1
            for _ in range(40):
                fields = []
                for _ in g.edges:
                    low, high = field >> rng.randrange(d), field << rng.randrange(d) & field
                    fields.append(rng.choice((field, 0, rng.getrandbits(d), low, high)))
                mask = sum(f << k * d for k, f in enumerate(fields))
                atoms = (divmod(i, d) for i in range(g.m * d) if mask >> i & 1)
                expected = Piece.of(Interval(g.edges[k].id, F(j, d), F(j + 1, d)) for k, j in atoms)
                piece = model.piece(mask)
                assert piece == expected and Piece.of(piece.intervals) == piece
                full = {g.edges[k].id for k, f in enumerate(fields) if f == field}
                assert all(iv.lo is ZERO and iv.hi is ONE for iv in piece.intervals if iv.edge in full)


def test_component_count_is_the_number_of_components():
    # every mask of every multigraph with at most three edges, parallel ones included
    graphs = connected_multigraphs_up_to_iso(3)
    assert any(len({(e.u, e.v) for e in g.edges}) < g.m for g in graphs)
    for g in graphs:
        for d in (1, 2, 3):
            inst = uniform_instance(g, 2)
            model, ref = _AtomModel(inst, d), _RefModel(inst, d)
            for mask in range(model.full_mask + 1):
                components = model.components(mask)
                assert components == ref.components(mask)
                assert model.component_count(mask) == len(components)


def test_connected_subsets_walk_like_the_reference():
    # every multigraph with at most three edges, grids 1-3, two and three agents
    # with random valuations, and every choice of seeds, cut and stop: the same
    # subsets and values in the same order, for the same states
    rng = random.Random(20261021)
    for g in connected_multigraphs_up_to_iso(3):
        for d, n, whole in itertools.product((1, 2, 3), (2, 3), (True, False)):
            inst = Instance(g, random_valuations(rng, g, n))
            model, ref = _AtomModel(inst, d), _RefModel(inst, d)
            scale = model.scale
            universe = model.full_mask if whole else rng.randint(1, model.full_mask)
            agent = rng.randrange(n)
            later = range(agent + 1, n)
            top, floor, enough = (F(rng.randint(1, 10), 10) for _ in range(3))
            cuts = (
                (None, True),
                (lambda value, rests: value > top, False),
                (lambda value, rests: value > top or any(r < floor for r in rests), True),
            )
            for seeds, (cut, reads_rests), stop in itertools.product(
                (None, universe & rng.randint(0, model.full_mask)),
                cuts,
                (None, lambda value: value >= enough),
            ):
                budget, ref_budget = _Budget(10**6), _RefBudget(10**6)
                walk = _connected_subsets(
                    model,
                    universe,
                    agent,
                    budget,
                    cut and (lambda v, rests, cut=cut: cut(F(v, scale), [F(r, scale) for r in rests])),
                    seeds,
                    stop and (lambda v, stop=stop: stop(F(v, scale))),
                    reads_rests,
                )
                got = list(walk)
                want = list(_ref_connected_subsets(ref, universe, agent, ref_budget, cut, seeds, stop))
                assert [(s, F(v, scale)) for s, v, _ in got] == want
                assert budget.used == ref_budget.used
                tracks = cut is not None and reads_rests
                for s, _, rests in got:
                    left = universe & ~s
                    assert rests == (tuple(model.value(b, left) for b in later) if tracks else ())


def test_adjacency_from_vertex_masks_matches_the_pairwise_reference():
    # grid 1 is the case where an edge's first atom is also its last
    for g in connected_multigraphs_up_to_iso(3):
        for d in (1, 2, 3):
            inst = uniform_instance(g, 2)
            assert _AtomModel(inst, d).adj == _RefModel(inst, d).adj


def test_mask_tie_break_orders_assignments_like_their_keys():
    rng = random.Random(20261020)
    for _ in range(2000):
        atoms, n = rng.randint(1, 8), rng.randint(1, 4)
        model = types.SimpleNamespace(atoms=range(atoms))  # the key reads only its length

        def masks_of(owners):  # owner n leaves the atom unallocated
            return tuple(sum(1 << i for i, o in enumerate(owners) if o == a) for a in range(n))

        owners = [rng.randint(0, n) for _ in range(atoms)]
        other = list(owners)
        for i in rng.sample(range(atoms), rng.randint(0, atoms)):  # an empty sample keeps them equal
            other[i] = rng.randint(0, n)
        masks, others = masks_of(owners), masks_of(other)
        for a, b in ((masks, others), (others, masks)):
            expected = _ref_assignment_key(model, a, n) < _ref_assignment_key(model, b, n)
            assert _assigns_first(a, b) == expected


def assert_atoms_match_the_checker(inst, d):
    """Each atom's integer over the model's scale is its value by ``independent``,
    and the scale is the least common multiple of those values' denominators."""
    model = _AtomModel(inst, d)
    exact = [
        [independent.value(val, [(e.id, F(j, d), F(j + 1, d))]) for e in inst.graph.edges for j in range(d)]
        for val in (independent.valuation(v) for v in inst.to_json()["agents"])
    ]
    assert [[F(x, model.scale) for x in row] for row in model.values] == exact
    assert model.scale == math.lcm(*(x.denominator for row in exact for x in row))


@settings(max_examples=100, deadline=None)
@given(grid_instances(), st.integers(1, 7))
def test_atom_values_match_one_fraction_per_atom(inst, d):
    assert_atoms_match_the_checker(inst, d)


def test_atom_values_with_breakpoints_on_and_between_grid_points():
    g = CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "a", "b")])
    agents = [
        Valuation.from_segments(
            {
                # 1/2 is a grid point at d = 2, 4, 6, 1/3 at d = 3, 6 and 3/7 at
                # d = 7; 96/97 lies between grid points at every d here
                "e0": [(0, "1/2", 3), ("1/2", 1, "2/5")],
                "e1": [(0, "1/3", "7/3"), ("1/3", "3/7", 0), ("3/7", "96/97", 5), ("96/97", 1, "1/1009")],
                "e2": [(0, 1, "1/7919")],
            }
        ),
        Valuation.from_segments({"e1": [(0, "1/6", 0), ("1/6", "5/6", 11), ("5/6", 1, 0)]}),
    ]
    inst = Instance(g, tuple(v.scaled(1 / v.total()) for v in agents), "cake")
    for d in range(1, 8):
        assert_atoms_match_the_checker(inst, d)


def test_complete_searches_on_four_edges_match_the_fraction_reference():
    # the shapes of the benchmark's two-agent searches, which the drawn
    # instances above do not reach: four edges at grid 4, complete
    rng = random.Random(4)
    for i, g in enumerate(g for g in connected_multigraphs_up_to_iso(4) if g.m == 4):
        agents = []
        for _ in range(2):
            v = Valuation(
                {
                    e.id: (Segment(0, F(1, 3), rng.randint(0, 3)), Segment(F(1, 3), 1, rng.randint(1, 3)))
                    for e in g.edges
                }
            )
            agents.append(v.scaled(1 / v.total()))
        if i % 3 == 0:  # one valuation for both agents: the symmetric search
            agents[1] = agents[0]
        inst = Instance(g, tuple(agents), "cake")
        for objective in ("egal", "inequity"):
            cfg = GridSearchConfig(4, objective, require_complete=True, state_budget=REFERENCE_BUDGET)
            _spends_like_the_reference(
                _outcome(lambda: ref_grid_search_best(inst, cfg)),
                lambda budget: grid_search_best(inst, dataclasses.replace(cfg, state_budget=budget)),
            )


def test_grid_search_with_large_coprime_denominators():
    g = CakeGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
    first = Valuation.from_segments({"e0": [("0", "1/101", "5"), ("1/101", "1", "1/7919")], "e1": [("0", "1", "1/1009")]})
    second = Valuation.from_segments({"e0": [("0", "1", "1/97")], "e1": [("0", "3/7", "2/3"), ("3/7", "1", "11/13")]})
    inst = Instance(g, tuple(v.scaled(1 / v.total()) for v in (first, second)), "cake")
    denominators = {v.denominator for row in _RefModel(inst, 4).values for v in row}
    assert _AtomModel(inst, 4).scale > max(denominators)
    for objective in OBJECTIVES:
        cfg = GridSearchConfig(4, objective, require_complete=True)
        optimum, witness, _ = ref_grid_search_best(inst, cfg)
        assert _outcome(lambda: grid_search_best(inst, cfg)) == [optimum, witness.to_json()]


# -- the state budget is spent at the same states -----------------------------------

BUDGET_CASES = [
    ("star_tight", {"n": 2}, GridSearchConfig(6)),
    ("three_bridge", {}, GridSearchConfig(4)),
    ("chore_star", {"n": 2}, GridSearchConfig(6, "cost", require_complete=True)),
    ("chore_star", {"n": 3}, GridSearchConfig(4, "cost", require_complete=True)),
    ("equit_star3", {}, GridSearchConfig(6, "inequity", require_complete=True)),
    ("star_fnk_tight", {"n": 3, "k": 4}, GridSearchConfig(4, require_complete=True)),
    ("ternary_tree", {"k": 1}, GridSearchConfig(2, piece_budget=2, require_complete=True)),
    # the benchmark's own identical-agent certificates
    ("star_fnk_tight", {"n": 2, "k": 3}, GridSearchConfig(6)),
    ("ternary_tree", {"k": 1}, GridSearchConfig(3, piece_budget=2, require_complete=True)),
]


# each case by its fixture name, and a repeated name with its parameter values too
BUDGET_IDS = []
for _name, _params, _ in BUDGET_CASES:
    if _name in BUDGET_IDS:
        _name = "-".join(map(str, [_name, *_params.values()]))
    BUDGET_IDS.append(_name)


@pytest.mark.parametrize("name, params, cfg", BUDGET_CASES, ids=BUDGET_IDS)
def test_grid_search_spends_the_budget_like_the_reference(name, params, cfg):
    inst = build_fixture(FixtureSpec(name, params))
    optimum, witness, states = ref_grid_search_best(inst, cfg)
    exact = dataclasses.replace(cfg, state_budget=states)
    assert _outcome(lambda: grid_search_best(inst, exact)) == [optimum, witness.to_json()]
    with pytest.raises(BudgetExceeded):
        grid_search_best(inst, dataclasses.replace(cfg, state_budget=states - 1))


PAIR_BUDGET_CASES = [
    ("four_edge_star", {}, (8, F(1, 2), F(1, 4), True, True)),
    ("fig2", {}, (8, F(1, 4), F(13, 25), False, True)),
    ("frontier_edge", {"alpha": F(3, 4)}, (8, F(7, 8), F(1, 8))),
]


@pytest.mark.parametrize("name, params, args", PAIR_BUDGET_CASES, ids=[c[0] for c in PAIR_BUDGET_CASES])
def test_pair_search_spends_the_budget_like_the_reference(name, params, args):
    inst = build_fixture(FixtureSpec(name, params))
    found, witness, states = ref_pair_feasible(inst, *args)
    expected = [found, witness.to_json() if witness else None]
    assert _outcome(lambda: pair_feasible(inst, *args, state_budget=states)) == expected
    with pytest.raises(BudgetExceeded):
        pair_feasible(inst, *args, state_budget=states - 1)


def test_powers_of_three_spends_the_budget_like_the_reference():
    *expected, states = ref_check_powers_of_three(3, -4, 1)
    assert list(check_powers_of_three(3, -4, 1, state_budget=states)) == expected
    with pytest.raises(BudgetExceeded):
        check_powers_of_three(3, -4, 1, state_budget=states - 1)


def test_pair_search_rejects_a_grid_below_one():
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    for d in (0, -3):
        with pytest.raises(DomainError, match="grid denominator must be at least 1"):
            pair_feasible(inst, d, F(1, 2), F(1, 4))


def test_a_grid_over_the_atom_cap_is_refused_before_the_model_is_built():
    # three edges at grid 10**6 would need adjacency masks of 3 million bits each
    inst = build_fixture(FixtureSpec("three_bridge", {}))
    start = time.perf_counter()
    for d in (MAX_ATOMS // 3 + 1, 10**6):
        message = f"a grid of {d} on 3 edges has {3 * d} atoms; the oracle takes at most {MAX_ATOMS}"
        with pytest.raises(DomainError, match=message):
            grid_search_best(inst, GridSearchConfig(d, state_budget=0))
        with pytest.raises(DomainError, match=message):
            pair_feasible(inst, d, Fraction(1, 2), Fraction(1, 2), state_budget=0)
    assert time.perf_counter() - start < 1
    # exactly at the cap the model is built
    four = build_fixture(FixtureSpec("four_edge_star", {}))
    assert len(_AtomModel(four, MAX_ATOMS // 4).adj) == MAX_ATOMS
    with pytest.raises(DomainError, match="atoms"):
        _AtomModel(four, MAX_ATOMS // 4 + 1)
