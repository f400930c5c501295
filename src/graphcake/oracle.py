"""Desk-scale ground truth: exhaustive search over grid-cut allocations.

The cake is diced into atoms of length 1/d per edge; every allocation whose
cut points lie on that grid corresponds to an assignment of atoms to agents.
For maximization objectives the grid optimum is a lower bound on the true
supremum; on the bundled tight fixtures the optimum is attained at grid
points, so equality is the test.

The search runs in exact integers: each agent's atom values are multiplied by
one common scale, the least common multiple of all their denominators, which
keeps every sum, comparison and tie exact, and results are divided back.  The
atom values come from one pass over each edge's integer segments.

Atom ``k * d + j`` is the ``j``-th of edge ``k``, so an atom set is a bit
mask in which each edge owns a field of d bits.  Its components are counted
field by field, as ``graph_core.piece_component_count`` counts a piece's: a
whole edge joins its two ends, a run of atoms at an end reaches that vertex,
and any other run stands alone.  Only the searches that need the components
themselves walk the atoms' adjacency masks, built from one mask per vertex
of the atoms at it.  A search reads a piece's value, and the value of what it
leaves to each later agent, from the sums it keeps while it grows the piece.

The connected-piece searches are bounded by their incumbent: a piece, with
every piece grown from it, or a prefix of pieces is dropped as soon as no
allocation through it can score as well as the best one found so far.  Each
such test is strict, so allocations that tie the optimum survive and the
witness is the one the exhaustive search would return.

More rules skip states that cannot change the answer or the witness.  The
witness is the least optimal assignment of atoms to owners.  Of two
assignments the lesser gives the lowest atom they assign differently to the
lower-indexed agent, and an unallocated atom sorts after every agent.  Each
rule keeps only allocations that some change preserving the score, or
raising it, can turn into a lesser one, and so keeps that witness.

- Agent symmetry, in every search.  The agents from some index on may share
  one row of atom values; swapping two of their pieces keeps every
  objective's score, and the assignment is least when the lower-indexed
  agent holds the lower atom.  So their pieces are searched in one order only.
  In the connected-piece searches their nonempty pieces come in increasing
  order of lowest atom, with the empty ones last; when the allocation must
  be complete, each next piece holds the lowest atom still free.  The
  piece-budget search keeps only assignments in which those agents first
  appear in index order, with agents that never appear last.  A pair search
  whose two agents share one row tries the thresholds in one order only,
  since the swapped order is the same search with the roles exchanged.
- Whole last piece.  In an egalitarian search without completeness the
  last agent's piece is a whole component of the atoms left, or empty only
  when none are left.  With n agents, growing the last piece to its
  component never lowers the least value, and the atoms it adds pass from
  no owner, which sorts after every agent, to agent n - 1.
- Pair-search stop.  Without completeness, ``pair_feasible`` stops growing
  a first piece once it meets its threshold.  A larger piece leaves a
  smaller complement, each of whose components lies inside a component of
  this piece's complement, and values are nonnegative: so if this piece
  fails, every piece grown from it fails too, and if it succeeds the search
  ends.

State budgets count the states visited after bounding and these rules.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .allocation import Allocation
from .errors import BudgetExceeded, DomainError, ProtocolInvariantError
from .graph_core import ONE, ZERO, Interval, Piece, _edge_ends
from .valuation import Instance, require_exact

# Each objective: the score of an allocation's per-agent values, and the strict
# test ``beats(score, other)`` that one score is better than another.
_OBJECTIVES: dict[str, tuple[Callable[[Sequence[int]], int], Callable[[int, int], bool]]] = {
    "egal": (min, operator.gt),  # maximize the least value (egalitarian welfare)
    "cost": (max, operator.lt),  # minimize the largest cost (egalitarian cost)
    "inequity": (lambda values: max(values) - min(values), operator.lt),  # minimize the spread
}
OBJECTIVES = tuple(_OBJECTIVES)
DEFAULT_STATE_BUDGET = 10_000_000
# Most atoms (edges times grid denominator) a search or pair search may have.
# On one core (Python 3.11), building the atom model of a 3-edge star took 0.008-0.014 s at 4,095
# atoms (median of 7 builds, in 5 runs), 0.06 s and 11 MB peak memory (tracemalloc) at 12,000, and
# 0.13 s and 40 MB at 24,000.
MAX_ATOMS = 4096


@dataclass(frozen=True)
class GridSearchConfig:
    """What ``grid_search_best`` searches: the grid ``1/denominator``, the
    objective, an optional total piece budget, whether the allocation must be
    complete, and ``state_budget``, the most states the search may visit.
    That counts the states visited after bounding and the rules of the
    module docstring: pieces and prefixes dropped by the incumbent, orders
    of identical agents' pieces that are not searched, and egalitarian last
    pieces smaller than their component cost nothing.  With a piece budget
    a state is one assignment of atoms to agents, and assignments that list
    identical agents out of order cost nothing either.

    ``inequity`` without ``require_complete`` always has optimum 0: the
    allocation that leaves every piece empty is allowed and has no inequity,
    so the search only looks for the least allocation that ties it."""

    denominator: int
    objective: str = "egal"
    piece_budget: Optional[int] = None
    require_complete: bool = False
    state_budget: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        if self.denominator < 1:
            raise DomainError("grid denominator must be at least 1")
        if self.objective not in OBJECTIVES:
            raise DomainError(f"unknown objective {self.objective!r}")
        if self.piece_budget is not None:
            _require_nonnegative(self.piece_budget, "piece budget")
        _require_nonnegative(self.state_budget, "state budget")


def _require_nonnegative(value: int, what: str) -> None:
    if value < 0:
        raise DomainError(f"{what} must be nonnegative, got {value}")


def _atom_values(segs: Sequence[tuple[int, int, int, int, int, int]], d: int) -> list[tuple[int, int]]:
    """The values of an edge's d atoms, each a reduced pair (numerator,
    positive denominator), from one pass over the edge's integer segments.

    An atom that lies inside one segment is worth its density over d.  Only
    the first and the last atom a segment meets can hold a breakpoint; each of
    them adds the length of its overlap times the density.
    """
    out = [(0, 1)] * d
    for an, ad, bn, bd, p, q in segs:
        if not p:
            continue
        first, last = an * d // ad, (bn * d - 1) // bd  # the atoms the segment meets
        if last - first > 1:
            g = math.gcd(p, q * d)
            out[first + 1 : last] = [(p // g, q * d // g)] * (last - first - 1)
        for j in (first, last) if last != first else (first,):
            ln, ld = (an, ad) if an * d > j * ad else (j, d)
            hn, hd = (bn, bd) if bn * d < (j + 1) * bd else (j + 1, d)
            x, y = (hn * ld - ln * hd) * p, hd * ld * q  # the overlap times the density
            num, den = out[j]
            num, den = num * y + x * den, den * y
            g = math.gcd(num, den)
            out[j] = (num // g, den // g)
    return out


class _AtomModel:
    """Atoms of length 1/d per edge, with adjacency masks and per-agent values.

    Atom ``k * d + j`` is the ``j``-th of edge ``k`` counted from its ``u``
    end, so each edge owns one d-bit field of a mask.  ``adj[i]`` masks atom
    ``i``'s neighbours in its edge and, at an end of the edge, the other atoms
    at that vertex, read from one mask per vertex.  ``values[a][i]`` is agent
    ``a``'s value of atom ``i`` times ``scale``, an integer; ``scale`` is the
    least common multiple of all atom denominators.

    ``component_count`` counts a mask's components field by field, by the
    rule of ``graph_core.piece_component_count``: a whole edge joins its two
    ends in a union-find over vertex numbers, a run of atoms that touches an
    end reaches that vertex, and every other run is a component of its own.
    ``components`` walks the adjacency masks, for the searches that need the
    components themselves.
    """

    def __init__(self, inst: Instance, d: int):
        if d < 1:
            raise DomainError("grid denominator must be at least 1")
        g = inst.graph
        if g.m * d > MAX_ATOMS:
            raise DomainError(
                f"a grid of {d} on {g.m} edges has {g.m * d} atoms; the oracle takes at most "
                f"{MAX_ATOMS}: its adjacency masks grow with the square of the atom count"
            )
        self.d = d
        # each edge's field offset and id, edges by id: the order of a piece's intervals
        self._fields_by_id = sorted(((k * d, e.id) for k, e in enumerate(g.edges)), key=lambda f: f[1])
        self._ends = tuple(_edge_ends(g).values())  # in edge order
        self._vertex_count = len(g.vertices)
        at_vertex = [0] * len(g.vertices)  # each vertex's mask of the atoms at it
        for k, (a, b) in enumerate(self._ends):
            at_vertex[a] |= 1 << k * d
            at_vertex[b] |= 1 << (k + 1) * d - 1
        self.adj = adj = []
        for k, (a, b) in enumerate(self._ends):
            first, last = k * d, (k + 1) * d - 1
            for i in range(first, last + 1):
                down = 1 << i - 1 if i > first else at_vertex[a]
                up = 1 << i + 1 if i < last else at_vertex[b]
                adj.append((down | up) & ~(1 << i))
        exact = [
            [pq for e in g.edges for pq in _atom_values(val.edge_segments(e.id), d)]
            for val in inst.agents
        ]
        self.scale = math.lcm(*(q for row in exact for _, q in row))
        self.values = [[p * (self.scale // q) for p, q in row] for row in exact]
        # later[a][i]: the values of atom i for the agents after a, in order
        self.later = [
            [tuple(row[i] for row in self.values[a + 1 :]) for i in range(len(adj))]
            for a in range(len(self.values))
        ]
        self.full_mask = (1 << len(adj)) - 1

    def piece(self, mask: int) -> Piece:
        """The piece ``mask`` covers: one interval per run of atoms in an
        edge's field, edges by id, so the intervals come out canonical.  A
        full field is the edge's shared ``[ZERO, ONE]``."""
        d = self.d
        field = (1 << d) - 1
        out = []
        for shift, edge in self._fields_by_id:
            f = mask >> shift & field
            if f == field:
                out.append(Interval(edge, ZERO, ONE))
                continue
            j = 0
            while f:
                gap = (f & -f).bit_length() - 1  # the clear atoms before the next run
                f >>= gap
                run = (f ^ (f + 1)).bit_length() - 1  # the set atoms in it
                out.append(Interval(edge, Fraction(j + gap, d), Fraction(j + gap + run, d)))
                f >>= run
                j += gap + run
        return Piece(tuple(out))

    def value(self, agent: int, mask: int) -> int:
        acc = 0
        vals = self.values[agent]
        while mask:
            low = mask & -mask
            acc += vals[low.bit_length() - 1]
            mask ^= low
        return acc

    def component_count(self, mask: int) -> int:
        """How many components ``mask`` has: 0 for the empty mask."""
        d = self.d
        field = (1 << d) - 1
        top = 1 << (d - 1)
        loose = reached = joins = 0
        # The union-find is written out: through ``graph_core._UnionFind`` the
        # 16,498 counts of a seed-1 oracle-certify pass took 21 ms, not 17
        # (Python 3.11, one core).
        parent: Optional[list[int]] = None
        for a, b in self._ends:
            if not mask:
                break
            f = mask & field
            mask >>= d
            if f == field:
                reached |= 1 << a | 1 << b
                if parent is None:
                    parent = list(range(self._vertex_count))
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    parent[b] = a
                    joins += 1
            elif f:
                loose += (f & ~(f << 1)).bit_count()  # the runs of this edge
                if f & 1:
                    reached |= 1 << a
                    loose -= 1
                if f & top:
                    reached |= 1 << b
                    loose -= 1
        return loose + reached.bit_count() - joins

    def components(self, mask: int) -> list[int]:
        """The components of ``mask``, lowest atom first.  Each grows from the
        lowest atom left: every atom taken into it is removed from ``mask`` and
        queued, and each queued atom takes in its neighbours still in ``mask``."""
        adj = self.adj
        out = []
        while mask:
            comp = todo = mask & -mask
            mask ^= comp
            while todo:
                low = todo & -todo
                todo ^= low
                grown = adj[low.bit_length() - 1] & mask
                mask ^= grown
                comp |= grown
                todo |= grown
            out.append(comp)
        return out

    def symmetric_from(self) -> int:
        """The first of the agents, counted back from the last, that share the
        last agent's row of atom values; the last agent's own index when no
        other agent shares it."""
        last = len(self.values) - 1
        first = last
        while first > 0 and self.values[first - 1] == self.values[last]:
            first -= 1
        return first


# cut(value, rests): whether to drop a subset and every subset grown from it
Cut = Callable[[int, tuple[int, ...]], bool]


class _Budget:
    """The state counter of the grid and pair searches: ``spend`` counts
    visited states and raises ``BudgetExceeded`` once they pass ``limit``."""

    def __init__(self, limit: int):
        _require_nonnegative(limit, "state budget")
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"search exceeded the state budget of {self.limit}")


def _connected_subsets(
    model: _AtomModel,
    universe: int,
    agent: int,
    budget: _Budget,
    cut: Optional[Cut] = None,
    seeds: Optional[int] = None,
    stop: Optional[Callable[[int], bool]] = None,
    reads_rests: bool = True,
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The nonempty connected subsets of ``universe``, each with its value for
    ``agent`` and its rests.

    Each subset appears exactly once: seeds are taken in increasing atom order,
    each the first extension of the empty subset, and extensions already
    branched on are banned for later branches.  A subset's seed is its lowest
    atom, so ``seeds``, the atoms that may seed (all of ``universe`` by
    default), keeps the subsets whose lowest atom is among them, in the same
    order.

    The rests are, for each agent after ``agent``, the value of ``universe``
    minus the subset.  ``cut(value, rests)`` sees a subset's value and rests.
    A subset it drops is not visited, and neither is any subset grown from it,
    so it must also hold for those: along a branch the value only grows and
    the rests only shrink, so a test that a larger value or smaller rests
    cannot make false will do.  A cut that reads only the value is passed
    with ``reads_rests=False``.  Without a cut, or with such a one, no rests
    are kept, and every subset comes with an empty tuple.

    ``stop(value)`` keeps a subset but grows nothing from it.
    """
    adj = model.adj
    vals = model.values[agent]
    later = model.later[agent]
    track = cut is not None and reads_rests
    whole = ()
    if track:
        whole = tuple(model.value(b, universe) for b in range(agent + 1, len(model.values)))
    atoms = universe if seeds is None else seeds
    while atoms:
        seed = atoms & -atoms
        atoms ^= seed
        allowed = universe & _above_lowest(seed)
        # Depth-first over the subsets grown from this seed.  A frame is a subset,
        # its value and rests, its frontier, the extensions not yet branched on,
        # and the ban its next child inherits: the extensions branched on before
        # it.  The root frame is the empty subset, with the universe's rests and
        # the seed as its one extension, so the step below values, cuts, counts,
        # yields and grows every subset, the seed included.
        stack = [(0, 0, whole, 0, seed, 0)]
        while stack:
            current, value, rests, frontier, ext, ban = stack[-1]
            if not ext:
                stack.pop()
                continue
            pick = ext & -ext
            stack[-1] = (current, value, rests, frontier, ext ^ pick, ban | pick)
            bit = pick.bit_length() - 1
            value += vals[bit]
            if cut is not None:
                if track:
                    rests = tuple(map(operator.sub, rests, later[bit]))
                if cut(value, rests):
                    continue
            current |= pick
            frontier = (frontier | adj[bit]) & ~current
            budget.spend()
            yield current, value, rests
            if stop is None or not stop(value):
                stack.append((current, value, rests, frontier, frontier & allowed & ~ban, ban))


def _above_lowest(mask: int) -> int:
    """Every atom above the lowest atom of ``mask``; none when it is empty."""
    return -((mask & -mask) << 1)


def _partitions(
    model: _AtomModel,
    cfg: GridSearchConfig,
    budget: _Budget,
    prune: Callable[[Sequence[int]], bool],
    bound: Callable[[Sequence[int]], Optional[Cut]],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Tuples of pairwise-disjoint connected (possibly empty) atom sets with
    their per-agent values, covering all atoms when ``cfg`` requires
    completeness.

    ``prune(values)`` drops a prefix of assigned values with every tuple that
    extends it; ``bound(values)`` gives the cut on the next agent's pieces
    after that prefix (see ``_connected_subsets``).

    The agents from ``symmetric`` on share one row of atom values, so their
    pieces come in one order only: with completeness each holds the lowest
    atom still free and none is empty while atoms remain; without it the
    nonempty ones come in increasing order of lowest atom, and the empty ones
    last.  An egalitarian search without completeness gives the last agent a
    whole component of the atoms left, or nothing only when none are left.

    With completeness the last piece is the rest, so the agent before the last
    finishes each allocation itself: it takes the steps the last agent would
    take, prune, the rest's component count and one state, and reads the
    last agent's value from the rests its pieces come with.
    """
    n = len(model.values)
    complete = cfg.require_complete
    whole_last = cfg.objective == "egal" and not complete
    reads_rests = cfg.objective != "cost"  # the cost cut reads the chooser's value only
    symmetric = model.symmetric_from()

    def rec(
        agent: int, remaining: int, masks: tuple[int, ...], values: tuple[int, ...]
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if prune(values):
            return
        left = n - agent
        if complete and model.component_count(remaining) > left:
            return
        if complete and agent == n - 1:
            # the component count above has ruled out a second component
            budget.spend()
            yield masks + (remaining,), values + (model.value(agent, remaining),)
            return
        # the atoms that may be this piece's lowest, and whether it may be empty
        seeds, empty = remaining, True
        if complete and agent >= symmetric and remaining:
            seeds, empty = remaining & -remaining, False  # the lowest free atom
        elif not complete and agent > symmetric:
            seeds &= _above_lowest(masks[-1])
        pieces = _connected_subsets(
            model, remaining, agent, budget, bound(values), seeds, reads_rests=reads_rests
        )
        if agent < n - 1:
            if empty:
                yield from rec(agent + 1, remaining, masks + (0,), values + (0,))
            if not complete or agent < n - 2:
                for s, v, _ in pieces:
                    yield from rec(agent + 1, remaining & ~s, masks + (s,), values + (v,))
                return
            for s, v, rests in pieces:  # the last piece is the rest
                head = values + (v,)
                if prune(head):
                    continue
                rest = remaining & ~s
                if model.component_count(rest) > 1:
                    continue
                budget.spend()
                # the cost cut keeps no rests
                yield masks + (s, rest), head + (rests[0] if rests else model.value(n - 1, rest),)
        elif whole_last and remaining:
            for c in model.components(remaining):
                if c & -c & seeds:
                    budget.spend()
                    yield masks + (c,), values + (model.value(agent, c),)
        else:
            budget.spend()
            yield masks + (0,), values + (0,)
            for s, v, _ in pieces:
                yield masks + (s,), values + (v,)

    yield from rec(0, model.full_mask, (), ())


def _assignments(model: _AtomModel, complete: bool) -> Iterator[tuple[int, ...]]:
    """Every assignment of atoms to agents, as one atom set per agent,
    covering all atoms when ``complete``.

    The agents from ``symmetric`` on share one row of atom values, so only
    the assignments in which they first appear in index order, with the
    agents that never appear last, are listed: each of their sets lies above
    the lowest atom of the set before, and after an empty one all are empty.
    """
    n = len(model.values)
    symmetric = model.symmetric_from()

    def rec(agent: int, remaining: int, masks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        allowed = remaining
        if agent > symmetric:
            allowed &= _above_lowest(masks[-1])
        if complete and agent == n - 1:
            if allowed == remaining:
                yield masks + (remaining,)
            return
        subset = allowed
        while True:  # every subset of allowed, the largest first
            if agent == n - 1:
                yield masks + (subset,)
            else:
                yield from rec(agent + 1, remaining & ~subset, masks + (subset,))
            if not subset:
                return
            subset = (subset - 1) & allowed

    yield from rec(0, model.full_mask, ())


def _assignment_count(model: _AtomModel, complete: bool) -> int:
    """How many assignments ``_assignments`` lists, counted without listing them.

    Each atom goes to an agent before the identical ones, to no one when
    that is allowed, or to an identical agent.  With exactly the first j
    identical agents appearing, the assignments onto those j, counted by
    inclusion and exclusion, come j! to each order of first appearance.
    Without identical agents this is ``choices ** atoms``.
    """
    atoms = len(model.adj)
    symmetric = model.symmetric_from()
    free = symmetric if complete else symmetric + 1
    total = 0
    for j in range(len(model.values) - symmetric + 1):
        onto = sum((-1) ** i * math.comb(j, i) * (free + j - i) ** atoms for i in range(j + 1))
        total += onto // math.factorial(j)
    return total


def _assigns_first(masks: Sequence[int], other: Sequence[int]) -> bool:
    """Whether the assignment ``masks``, disjoint atom sets one per agent, is
    less than ``other``: whether it gives the lowest atom the two assign
    differently to the lower-indexed agent, no agent sorting after them all."""
    differ = 0
    for m, o in zip(masks, other):
        differ |= m ^ o
    low = differ & -differ
    for m, o in zip(masks, other):
        if (m | o) & low:
            return bool(m & low)
    return False


def grid_search_best(inst: Instance, cfg: GridSearchConfig) -> tuple[Fraction, Allocation]:
    """Exact optimum over all grid-cut allocations satisfying the config.

    Without a piece budget every agent's piece must be connected; with one,
    only the total number of connected pieces is bounded.  The witness is the
    lexicographically least optimal assignment of atoms to agents.
    """
    n = inst.n
    if n < 1:
        raise DomainError("grid search needs at least one agent")
    model = _AtomModel(inst, cfg.denominator)
    budget = _Budget(cfg.state_budget)
    score_of, beats = _OBJECTIVES[cfg.objective]
    best: Optional[tuple[int, tuple[int, ...]]] = None

    # Branch and bound: drop a prefix of pieces, or a piece with every piece
    # grown from it, when no allocation through it can score as well as the
    # incumbent.  Each test is strict, so every tie, and with it the least
    # witness, survives.
    def prune(values: Sequence[int]) -> bool:
        # serving more agents can only lower the least value and raise the
        # largest, so the assigned values' score only gets worse
        return best is not None and bool(values) and beats(best[0], score_of(values))

    def bound(values: Sequence[int]) -> Optional[Cut]:
        """The cut on the next agent's pieces after the assigned ``values``.

        The chooser's value only grows and a later agent gets at most its rest.
        The assigned values alone never cut: ``prune`` passed them, and every
        allocation found since extends them, so the incumbent scores no better
        than they allow.  Each objective has its own cut rather than a test
        read from ``_OBJECTIVES``: a cut runs once per visited piece, against
        the live incumbent, and must not build tuples there.
        """
        last = len(values) == n - 1
        if cfg.objective == "cost":
            return lambda value, rests: best is not None and value > best[0]
        if cfg.objective == "egal":
            return None if last else lambda value, rests: best is not None and min(rests) < best[0]
        top = max(values, default=0)  # values are nonnegative
        floor = min(values, default=math.inf)
        if last:
            return lambda value, rests: best is not None and value - floor > best[0]
        return lambda value, rests: best is not None and (
            max(top, value) - min(floor, *rests) > best[0]
        )

    def consider(masks: tuple[int, ...], values: tuple[int, ...]) -> None:
        nonlocal best
        score = score_of(values)
        if best is None or beats(score, best[0]) or (
            score == best[0] and _assigns_first(masks, best[1])
        ):
            best = (score, masks)

    if cfg.piece_budget is not None:
        size = _assignment_count(model, cfg.require_complete)
        if size > cfg.state_budget:
            raise BudgetExceeded(
                f"{size} grid assignments exceed the state budget of {cfg.state_budget}"
            )
        for masks in _assignments(model, cfg.require_complete):
            budget.spend()
            left = cfg.piece_budget
            for m in masks:
                left -= model.component_count(m)
                if left < 0:
                    break
            else:
                consider(masks, tuple(model.value(a, m) for a, m in enumerate(masks)))
    else:
        for masks, values in _partitions(model, cfg, budget, prune, bound):
            consider(masks, values)

    if best is None:
        raise DomainError("search space is empty")
    return Fraction(best[0], model.scale), Allocation(tuple(model.piece(m) for m in best[1]))


def pair_feasible(
    inst: Instance,
    d: int,
    first_threshold: Fraction,
    second_threshold: Fraction,
    first_strict: bool = False,
    second_strict: bool = False,
    flexible: bool = True,
    require_complete: bool = False,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[bool, Optional[Allocation]]:
    """Is there a grid-cut connected allocation meeting both value thresholds?

    With ``flexible`` the two thresholds may go to the agents in either order;
    when both agents share one row of atom values only the given order is
    searched, since the swapped one is the same search with the roles
    exchanged and finds nothing it misses.  Values are monotone in atoms, so
    for the second agent it suffices to test whole components of the
    complement (or the complement itself when the allocation must be
    complete).

    Without ``require_complete`` a first piece that meets its threshold is
    not grown further.  Every larger piece leaves a complement whose
    components each lie inside a component of this piece's complement, so
    if this piece fails, they all fail; if it succeeds, the search returns
    it.  So the answer and the first witness are those of the full search.
    With ``require_complete`` a larger piece can leave a connected
    complement where this one does not, so every piece is grown.
    """
    if inst.n != 2:
        raise DomainError("pair search is defined for two agents")
    require_exact(first_threshold, "first threshold")
    require_exact(second_threshold, "second threshold")
    budget = _Budget(state_budget)
    model = _AtomModel(inst, d)

    def least_meeting(threshold: Fraction, strict: bool) -> int:
        # the least scaled value v with v > threshold * scale (strict) or
        # v >= threshold * scale (non-strict)
        if strict:
            return threshold.numerator * model.scale // threshold.denominator + 1
        return -(-threshold.numerator * model.scale // threshold.denominator)

    first = least_meeting(first_threshold, first_strict)
    second = least_meeting(second_threshold, second_strict)
    orders = [(first, second)]
    if flexible and model.symmetric_from() > 0:  # the agents' rows differ
        orders.append((second, first))
    whole = model.value(1, model.full_mask)
    for need0, need1 in orders:
        # a first piece whose complement is worth less than need1 to the
        # second agent leaves it nothing that meets need1, nor does any larger one
        cut = lambda value, rests, need1=need1: rests[0] < need1
        stop = None if require_complete else lambda value, need0=need0: value >= need0
        first_candidates = itertools.chain(
            [(0, 0, (whole,))], _connected_subsets(model, model.full_mask, 0, budget, cut, stop=stop)
        )
        for s0_mask, v0, (rest,) in first_candidates:
            if v0 < need0:
                continue
            complement = model.full_mask & ~s0_mask
            # the second piece with its value: with completeness the complement,
            # which must be connected; without, nothing or a component of the
            # complement.  A connected complement is worth ``rest``.
            options = [] if require_complete else [(0, 0)]
            if model.component_count(complement) <= 1:
                options.append((complement, rest))
            elif not require_complete:
                options += [(c, model.value(1, c)) for c in model.components(complement)]
            for s1_mask, v1 in options:
                if v1 >= need1:
                    masks = (s0_mask, s1_mask)
                    return True, Allocation(tuple(model.piece(m) for m in masks))
    return False, None


def check_powers_of_three(
    t: int, a_lo: int, a_hi: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Exhaustively check that signed sums of t powers of three stay at least
    1/(2*3^t) away from one half.

    Enumerates every multiset of exponents in [a_lo, a_hi] and every
    coefficient vector over {-2, -1, 1, 2}; returns whether the bound holds,
    the first minimizing assignment (exponents, coefficients), and the gap.
    When those assignments outnumber ``state_budget`` it raises
    ``BudgetExceeded`` before it enumerates any.
    """
    if not 1 <= t <= 6:
        raise DomainError("t must be between 1 and 6")
    width = a_hi - a_lo + 1
    if not 1 <= width <= 10:
        raise DomainError("exponent window must be nonempty and at most 10 wide")
    _require_nonnegative(state_budget, "state budget")
    # every multiset of t exponents, with each of the 4^t coefficient vectors
    size = math.comb(width + t - 1, t) * 4**t
    if size > state_budget:
        raise BudgetExceeded(f"{size} assignments exceed the state budget of {state_budget}")
    exponents = range(a_lo, a_hi + 1)
    # every quantity times 2 * 3^shift, so powers, the half and gaps are integers
    shift = max(0, -a_lo)
    scale = 2 * 3**shift
    half = 3**shift
    choices = (-2, -1, 1, 2)
    vectors = list(itertools.product(choices, repeat=t))
    best_gap: Optional[int] = None
    best_assignment: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    for exps in itertools.combinations_with_replacement(exponents, t):
        # every vector's total minus the half, in the order of ``vectors``:
        # the last coefficient varies fastest
        totals = [-half]
        for a in exps:
            power = 2 * 3 ** (a + shift)
            steps = [c * power for c in choices]
            totals = [x + step for x in totals for step in steps]
        gaps = list(map(abs, totals))
        gap = min(gaps)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best_assignment = (exps, vectors[gaps.index(gap)])
    if best_gap is None or best_assignment is None:
        raise ProtocolInvariantError("the enumeration visited no assignment")
    gap = Fraction(best_gap, scale)
    return gap >= Fraction(1, 2 * 3**t), best_assignment, gap
