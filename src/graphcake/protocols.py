"""Moving-knife protocols over graphical cakes and chores.

Every protocol returns an allocation plus a log of the evaluation and cut
queries it issued, and comes with an exact guarantee that the verifier in
:mod:`graphcake.allocation` can check with zero tolerance.

Recursive protocols never build a new cake.  They recurse on a region, a
connected piece of the original graph, and scale each agent's thresholds by
her value of the region, which is what renormalizing the rest of the cake
amounts to.  Every piece they hand out is already in the graph's coordinates.

Extraction sums values in exact integers.  A region's subtree values are
integers over one scale per valuation and region: the valuation's scale for
its whole-edge totals, widened to cover the few partial legs next to cut
points.  A need is met when a value reaches the least scaled integer at or
above it, so every comparison, and every tie, is that of the rational values.
A tree sums each distinct valuation once and keeps the sums while it lives:
agents that share a valuation share one pass, and an agent's value of the
region, the root sum, both sets her need and checks it, with no second pass.
The tree of the whole graph is built once per graph, root and child order
and kept on the graph without sums; each solve walks a handle on it that
holds the solve's own sums.
The egalitarian recursion keeps one tree throughout: after each extraction it
prunes the branches taken, shortens the leg a knife cut, and subtracts their
sums, so only the shortened leg is integrated again.

Deterministic tie-breaking throughout: when several agents qualify at the
same knife point, the lowest agent index wins.  A region is walked as a tree
over the graph vertices it reaches and its interior cut points, rooted at the
least-named vertex, or at the lower end of a region inside a single edge; a
walk reads parents, children and each link's interval.  When several branches
qualify, the one earliest in piece order (edge id as a string, then position)
wins.  Walks over the whole graph that are not extractions (the height-two
sweep and the chore protocol's first split) take branches in the graph's
stored edge order.  Every descent to where a region is cut, the extraction's
and the chore protocol's, goes through one method, ``_RootedTree.cut_site``.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import ge, gt, not_
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .allocation import Allocation, VerificationReport
from .errors import (
    AlphaOutOfRange,
    DisconnectedPiece,
    DomainError,
    InsufficientValue,
    NotAlmostBridgeless,
    NotAStar,
    NotHeightTwoTree,
    LabelingNotContiguous,
    ProtocolInvariantError,
    TooManyAgents,
)
from .graph_core import (
    ONE,
    ZERO,
    CakeGraph,
    EdgePoint,
    Interval,
    OrientedLabeling,
    Param,
    Piece,
    Point,
    _cycle_breaks,
    _distances,
    _require_int,
    _shown,
    canonical_point,
    classify_almost_bridgeless,
    compute_contiguous_labeling,
    exact_fraction,
    exact_int,
    is_contiguous,
    is_whole,
    read_params,
)
from .valuation import (
    Instance,
    Leg,
    QueryLog,
    Trajectory,
    TrajectoryCut,
    Valuation,
    combine_valuations,
    cut_trajectory,
    latest_position_within,
    require_exact,
    value_of_piece,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class ProtocolResult:
    allocation: Allocation
    queries: QueryLog


@dataclass(frozen=True)
class EntitlementResult:
    """Allocation plus a note of which agent received which guarantee."""

    allocation: Allocation
    alpha_agent: int
    beta_agent: int
    queries: QueryLog


@dataclass(frozen=True)
class Setting:
    """The instances a protocol is stated for: a mode, a range of agent counts
    (no upper bound when ``max_agents`` is None) and optionally a graph class."""

    mode: str
    min_agents: int
    max_agents: Optional[int] = None
    graph: Optional[Callable[[CakeGraph], bool]] = None


def _require(inst: Instance, setting: Setting) -> None:
    """Reject an instance of the wrong mode or agent count.  The graph class is
    enforced by the protocol itself, where it has the structure at hand."""
    n, lo, hi = inst.n, setting.min_agents, setting.max_agents
    if inst.mode != setting.mode:
        raise DomainError(f"protocol requires {setting.mode} mode, instance is {inst.mode}")
    if lo == hi != n:
        raise DomainError(f"protocol requires exactly {lo} agents, instance has {n}")
    if n < lo:
        least = "one agent" if lo == 1 else f"{lo} agents"
        raise DomainError(f"protocol requires at least {least}, instance has {n}")
    if hi is not None and n > hi:
        raise TooManyAgents(
            f"the guarantee is only established for up to {hi} agents, instance has {n}"
        )


# ---------------------------------------------------------------------------
# Regions as rooted trees
# ---------------------------------------------------------------------------


def _ends(g: CakeGraph, iv: Interval) -> tuple[Point, Point]:
    """The points at an interval's two ends; a whole edge's are its endpoints."""
    if is_whole(iv.lo, iv.hi):
        e = g.edge(iv.edge)
        return e.u, e.v
    return canonical_point(g, iv.edge, iv.lo), canonical_point(g, iv.edge, iv.hi)


def _numbered_ends(
    g: CakeGraph, intervals: Iterable[Interval]
) -> tuple[list[tuple[int, int]], dict[Point, int]]:
    """Each interval's two end nodes by id, and each node's id: the nodes are
    numbered from 0 in order of first appearance."""
    ids: dict[Point, int] = {}
    ends = []
    for iv in intervals:
        a, b = _ends(g, iv)
        ends.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    return ends, ids


def _node_key(p: Point) -> tuple:
    """Graph vertices first, by name; then cut points, by edge id and position."""
    if isinstance(p, str):
        return (0, p, ZERO)
    return (1, p.edge, p.pos)


class _RootedTree:
    """A region of the cake as a rooted tree, in the graph's coordinates.

    The nodes are the graph vertices the region reaches and its interior cut
    points (``Point``s), numbered so that every parent comes before its
    children; node 0 is the root.  Each interval links the nodes at its two
    ends; an interval that closes a cycle (see ``_cycle_breaks``) is cut loose
    and gets a leaf of its own at its upper end, and ``loose`` lists those
    leaves in order.  A link is kept once, at its child ``w``: ``parent[w]``,
    ``upper[w]``, whether the child sits at the upper end of its interval,
    and ``position[w]``, the one record of the interval itself: its index in
    ``intervals``, the region's intervals in canonical order (-1 for the root
    and for a branch without a link).  ``leg(w)`` sweeps the interval towards
    the parent, and ``split`` parts ``intervals`` by the positions.  Children
    follow the order of the intervals the tree is built from, which are
    ``intervals`` except in the kept stored-order tree (``_kept_tree``).  The
    build gives the nodes integer ids in order of first appearance
    (``_numbered_ends``); the ids do not outlive the build, and every order
    and tie-break goes by the ``Point``s.  The root is a given ``Point``, by
    default the least node by ``_node_key``.

    A region that is not connected raises ``DisconnectedPiece``, unless
    ``forest`` is set: then each further component, from its least node, hangs
    off the root by a branch without a link (position -1), so root sums
    still cover the whole region, and ``connected`` is False.  The empty
    region is a lone root.

    Subtree sums are kept per distinct valuation for the tree's lifetime, and
    ``remainder`` carries them over when it prunes the tree to what an
    extraction left.  The sums belong to one solve: a whole-graph tree that a
    graph keeps (``_kept_tree``) has read-only links and no sums, and each
    solve gets a ``handle`` on it, which shares its links and sums on its own.
    ``remainder`` rebinds every list it changes, so a handle never writes into
    the kept links.
    """

    def __init__(
        self,
        g: CakeGraph,
        intervals: Sequence[Interval],
        root: Optional[Point] = None,
        forest: bool = False,
    ):
        ends, ids = _numbered_ends(g, intervals)
        # by node id: (far end, interval, whether the far end is the interval's
        # upper end, cut loose, the interval's index)
        links: list[list[tuple[int, Interval, bool, bool, int]]] = [[] for _ in ids]
        breaks = _cycle_breaks(ends, len(ids))
        for i, (iv, (a, b), loose) in enumerate(zip(intervals, ends, breaks)):
            if loose:
                # a detached end no other interval reaches
                b = ids[EdgePoint(iv.edge, iv.hi)] = len(ids)
                links.append([])
            links[a].append((b, iv, True, loose, i))
            links[b].append((a, iv, False, loose, i))
        names = list(ids)
        if root is None:
            root = min(names, key=_node_key, default=None)
        if root not in ids:
            # a root no interval reaches (the empty region's None) is a lone node
            ids[root] = len(names)
            names.append(root)
            links.append([])
        # by node id: the node's number in the tree, -1 until the walk reaches it
        number = [-1] * len(names)
        number[ids[root]] = 0
        order = [ids[root]]  # node ids by number
        parent = [-1]
        upper = [False]
        position = [-1]
        children: list[list[int]] = [[]]
        self.loose: list[int] = []
        self.connected = True
        # _link_kinds, kept until the links change
        self._kinds: Optional[tuple[Sequence[Optional[str]], Sequence[tuple[int, Interval]]]] = None
        # subtree_values, kept per distinct valuation for the tree's lifetime
        self._values: dict[Valuation, tuple[list[int], list[int], int]] = {}
        for v, x in enumerate(order):
            kids = children[v]
            for y, iv, at_hi, loose, i in links[x]:
                if number[y] < 0:
                    child = number[y] = len(order)
                    order.append(y)
                    parent.append(v)
                    upper.append(at_hi)
                    position.append(i)
                    children.append([])
                    kids.append(child)
                    if loose:
                        self.loose.append(child)
            if v == len(order) - 1 and len(order) < len(names):
                # every node reached is walked, yet some component is not
                if not forest:
                    raise DisconnectedPiece("piece is not connected")
                self.connected = False
                top = min((y for y, at in enumerate(number) if at < 0), key=lambda y: _node_key(names[y]))
                children[0].append(len(order))
                number[top] = len(order)
                order.append(top)
                parent.append(0)
                upper.append(False)
                position.append(-1)
                children.append([])
        self.parent, self.children, self.upper, self.position = parent, children, upper, position
        self.intervals = intervals

    def freeze(self) -> _RootedTree:
        """Make this tree's links, and its split into whole and partial links,
        read-only tuples, and give it no sums; returns the tree."""
        self.parent, self.upper, self.position, self.loose = map(
            tuple, (self.parent, self.upper, self.position, self.loose)
        )
        self.children = tuple(map(tuple, self.children))
        whole, partial = self._link_kinds()
        self._kinds = tuple(whole), tuple(partial)
        self._values = MappingProxyType({})
        return self

    def handle(self) -> _RootedTree:
        """A tree for one solve: this tree's links, shared, and sums of its own."""
        rt = copy.copy(self)
        rt._values = {}
        return rt

    def leg(self, w: int) -> Leg:
        """Child ``w``'s interval swept from the child's end towards its parent."""
        iv = self.intervals[self.position[w]]
        return Leg(iv.edge, iv.hi, iv.lo) if self.upper[w] else Leg(iv.edge, iv.lo, iv.hi)

    def lowest(self, crosses: Callable[[int], bool]) -> int:
        """Step from the root to the first child that ``crosses`` until none does."""
        v = 0
        while (nxt := next((w for w in self.children[v] if crosses(w)), None)) is not None:
            v = nxt
        return v

    def cut_site(
        self,
        branch: Sequence[Sequence[int]],
        subtree_crosses: Callable[[int], bool],
        crosses: Callable[[list[int]], bool],
    ) -> tuple[list[int], Optional[list[int]]]:
        """Where a descent cuts this tree, given each agent's branch sums, a
        test of the subtree below a node and a test of one value per agent (in
        ``branch``'s order).  Below the ``lowest`` node whose subtree crosses:
        its first child whose branch crosses, with None (a knife will cut that
        leg), or else its fewest first children whose branch sums cross, with
        those sums."""
        kids = self.children[self.lowest(subtree_crosses)]
        for w in kids:
            if crosses([b[w] for b in branch]):
                return [w], None
        sums = [0] * len(branch)
        for i, w in enumerate(kids, 1):
            sums = [x + b[w] for x, b in zip(sums, branch)]
            if crosses(sums):
                return list(kids[:i]), sums
        raise ProtocolInvariantError("branch accumulation never crossed")

    def split(self, tops: Sequence[int], stop: Optional[Fraction]) -> tuple[Piece, Piece]:
        """The tree's ``intervals`` parted into what an extraction takes and
        the rest, both in region order.  The taken part is the branches of
        ``tops``, or with ``stop`` the one top's subtree and its leg swept from
        the child end to ``stop``."""
        taken = bytearray(len(self.intervals))
        cut = None
        if stop is not None:
            (w,) = tops
            cut = self.position[w], self.leg(w), stop
            tops = self.children[w]
        position, children = self.position, self.children
        stack = list(tops)
        while stack:
            w = stack.pop()
            taken[position[w]] = 1
            stack.extend(children[w])
        return _parted(self.intervals, taken, cut)

    def subtree_values(self, val: Valuation) -> tuple[list[int], list[int], int]:
        """Values computed bottom-up as integers over one returned scale: of the
        subtree strictly below each node, and of each child's branch (its leg
        plus the subtree below it).

        The scale is a common multiple of the valuation's scale and the
        denominators of the partial legs' values, so every sum is exact; a fresh
        tree uses the least one.  The root's entry, ``below[0]``, is the value of
        the whole region.  Each distinct valuation is summed once; later calls
        return the same lists, kept up to date by ``remainder``.
        """
        done = self._values.get(val)
        if done is None:
            done = self._values[val] = self._sum(val)
        return done

    def _link_kinds(self) -> tuple[Sequence[Optional[str]], Sequence[tuple[int, Interval]]]:
        """Each node's edge id when its leg is a whole edge, else None; and the
        children with a partial leg, by interval."""
        if self._kinds is None:
            whole: list[Optional[str]] = []
            partial = []
            for w, i in enumerate(self.position):
                iv = self.intervals[i] if i >= 0 else None
                if iv is not None and is_whole(iv.lo, iv.hi):
                    whole.append(iv.edge)
                else:
                    whole.append(None)
                    if iv is not None:
                        partial.append((w, iv))
            self._kinds = whole, partial
        return self._kinds

    def _sum(self, val: Valuation) -> tuple[list[int], list[int], int]:
        # Whole legs are summed from each valuation's integer edge totals; the
        # few partial ones (next to cut points) are integrated per valuation.
        whole, partial = self._link_kinds()
        parts = [(w, val.interval_value(iv.edge, iv.lo, iv.hi)) for w, iv in partial]
        scale = math.lcm(val.scale, *(x.denominator for _, x in parts))
        lift = scale // val.scale
        totals = val.int_totals
        branch = [0] * len(self.parent)
        for w, edge in enumerate(whole):
            if edge is not None:
                branch[w] = totals.get(edge, 0) * lift
        for w, x in parts:
            branch[w] = x.numerator * (scale // x.denominator)
        below = [0] * len(branch)
        parent = self.parent
        for w in range(len(branch) - 1, 0, -1):
            branch[w] += below[w]
            below[parent[w]] += branch[w]
        return below, branch, scale

    def value(self, val: Valuation) -> Fraction:
        """The valuation's value of the whole region, its root sum."""
        below, _, scale = self.subtree_values(val)
        return Fraction(below[0], scale)

    def remainder(
        self,
        g: CakeGraph,
        tops: Sequence[int],
        stop: Optional[Fraction],
        rest: Piece,
        needed: Collection[Valuation],
    ) -> _RootedTree:
        """The tree of ``rest``, the part of a connected region that ``split``
        leaves when it takes the branches of ``tops``, children of one node, or
        with ``stop`` the one top's subtree and the part of its leg that the
        knife swept.

        This tree, which must have its default root, is pruned in place and
        returned: the taken nodes are dropped, the leg cut at ``stop`` keeps its
        part between ``stop`` and the parent, with a new leaf at ``stop``, and
        the sums it holds for the ``needed`` valuations lose the taken value on
        the path to the root; the others are dropped.  The tree then indexes
        ``rest``: ``intervals`` becomes ``rest.intervals``, which already holds
        the kept part of the cut leg, and each kept node's position becomes its
        rank among the kept positions.  The shortened leg is the only one
        integrated again.  The result has the links, positions, loose leaves
        and sums of ``_RootedTree(g, rest.intervals)``, the sums possibly over
        a larger scale.  Where pruning cannot give that tree, a fresh build is
        returned: when nothing is left, so the root left too, and when a loose
        link that stays would no longer be cut loose.
        """
        if not tops:
            return self
        if not rest.intervals:
            return _RootedTree(g, rest.intervals)
        w = tops[0]
        v = self.parent[w]
        if stop == self.leg(w).end:
            stop = None  # the knife took the whole leg
        keep = [True] * len(self.parent)
        stack = list(tops) if stop is None else list(self.children[w])
        while stack:
            x = stack.pop()
            keep[x] = False
            stack.extend(self.children[x])
        kept_at = list(islice(compress(self.position, keep), 1, None))
        held = bytearray(len(self.intervals))
        for p in kept_at:
            held[p] = 1
        at = list(accumulate(held, initial=0))  # a kept position's new one
        loose = [x for x in self.loose if keep[x] and (stop is None or x != w)]
        if loose:
            # taking links away can only let a loose link join the tree, so
            # the pruned tree is right iff every kept loose link stays loose
            ends, ids = _numbered_ends(g, rest.intervals)
            breaks = _cycle_breaks(ends, len(ids))
            if {at[self.position[x]] for x in loose} != {i for i, cut in enumerate(breaks) if cut}:
                return _RootedTree(g, rest.intervals)

        rank = list(accumulate(keep, initial=0))  # a kept node's new number
        kept_parents = islice(compress(self.parent, keep), 1, None)
        self.parent = parent = [-1] + [rank[p] for p in kept_parents]
        self.children = [
            [rank[c] for c in kids if keep[c]] for kids in compress(self.children, keep)
        ]
        self.upper = list(compress(self.upper, keep))
        self.position = [-1] + [at[p] for p in kept_at]
        self.intervals = rest.intervals
        self.loose = [rank[x] for x in loose]
        self._kinds = None
        if stop is not None:
            span = rest.intervals[self.position[rank[w]]]
        values, self._values = self._values, {}
        for val, (below, branch, scale) in values.items():
            if val not in needed:
                continue
            lift = 1
            if stop is None:
                taken = sum(branch[t] for t in tops)
            else:
                x = val.interval_value(span.edge, span.lo, span.hi)
                wide = math.lcm(scale, x.denominator)
                lift, scale = wide // scale, wide
                kept = x.numerator * (wide // x.denominator)
                taken = branch[w] * lift - kept
            if lift == 1:
                below = list(compress(below, keep))
                branch = list(compress(branch, keep))
            else:
                below = [y * lift for y in compress(below, keep)]
                branch = [y * lift for y in compress(branch, keep)]
            if stop is not None:
                below[rank[w]], branch[rank[w]] = 0, kept
            u = rank[v]
            below[u] -= taken
            while u:
                branch[u] -= taken
                u = parent[u]
                below[u] -= taken
            self._values[val] = below, branch, scale
        return self


def _kept_tree(g: CakeGraph, root: Optional[str], stored: bool) -> _RootedTree:
    """A handle on the whole graph's tree that ``g`` keeps, rooted at ``root``,
    by default the least vertex, with children in stored edge order or, without
    ``stored``, in piece order.  The kept tree is built and frozen on the first
    call for its root and order."""
    key = (min(g.vertices) if root is None else root, stored)
    kept = g._kept_trees.get(key)
    if kept is None:
        whole = g.whole_piece().intervals
        kept = _RootedTree(g, [Interval(e.id, ZERO, ONE) for e in g.edges] if stored else whole, root)
        if stored:
            # the tree indexes the whole piece, whose intervals go by edge id
            at = {iv.edge: i for i, iv in enumerate(whole)}
            kept.position = [-1] + [at[g.edges[i].id] for i in islice(kept.position, 1, None)]
            kept.intervals = whole
        kept = g._kept_trees[key] = kept.freeze()
    return kept.handle()


def _region_tree(g: CakeGraph, region: Piece, forest: bool = False) -> _RootedTree:
    """``_RootedTree(g, region.intervals, forest=forest)``; for the whole
    graph's piece, a handle on the tree the graph keeps."""
    if region is g.whole_piece():
        return _kept_tree(g, None, stored=False)
    return _RootedTree(g, region.intervals, forest=forest)


def _parted(
    ivs: Sequence[Interval], taken: bytearray, cut: Optional[tuple[int, Leg, Fraction]] = None
) -> tuple[Piece, Piece]:
    """``ivs``, a region's intervals, parted into a taken piece and the rest,
    both in region order: ``taken`` flags each interval by index.  With
    ``cut``, an unflagged interval's index, a leg that sweeps it and the
    knife's stop on it, that interval's swept part is taken and its other
    part left.  A part of zero length is dropped, and one that is the whole
    interval is the interval itself."""
    mine = list(compress(ivs, taken))
    rest = list(compress(ivs, map(not_, taken)))
    if cut is not None:
        i, leg, stop = cut
        iv = ivs[i]
        low = iv if stop == iv.hi else None if stop == iv.lo else Interval(iv.edge, iv.lo, stop)
        high = iv if stop == iv.lo else None if stop == iv.hi else Interval(iv.edge, stop, iv.hi)
        swept, other = (low, high) if leg.start == iv.lo else (high, low)
        before = taken.count(1, 0, i)  # taken intervals ahead of the cut one
        if other is None:
            del rest[i - before]
        else:
            rest[i - before] = other
        if swept is not None:
            mine.insert(before, swept)
    return Piece(tuple(mine)), Piece(tuple(rest))


def _knife_race(
    vals: Sequence[Valuation],
    traj: Trajectory,
    targets: Mapping[int, Fraction],
    log: QueryLog,
) -> tuple[int, TrajectoryCut]:
    """Sweep one knife along ``traj``; each agent in ``targets`` calls stop where
    the covered prefix first reaches her target.  The earliest call wins, the
    lowest agent index on ties."""
    best: Optional[tuple[int, TrajectoryCut]] = None
    for a in sorted(targets):
        cut = cut_trajectory(vals[a], traj, targets[a], log)
        if best is None or cut.sweep_offset < best[1].sweep_offset:
            best = (a, cut)
    if best is None:
        raise ProtocolInvariantError("no agent takes part in the knife race")
    return best


# ---------------------------------------------------------------------------
# Piece extraction (the workhorse behind most protocols)
# ---------------------------------------------------------------------------


def _extract(
    g: CakeGraph,
    vals: Sequence[Valuation],
    region: Piece,
    need: Mapping[int, Fraction],
    log: QueryLog,
    rt: Optional[_RootedTree] = None,
) -> tuple[Piece, int, Piece]:
    """Split a connected region into two connected pieces; the winner values the
    first at least her ``need`` while every other agent in ``need`` values it at
    most twice hers.  Returns the first piece, the winner and the rest.

    ``rt`` is the region's tree when the caller has built it (default root,
    children in piece order); ``_split`` decides where the tree is cut.
    """
    if not need:
        raise DomainError("extraction needs at least one eligible agent")
    if rt is None:
        rt = _region_tree(g, region, forest=True)
    winner, tops, stop = _split(vals, need, log, rt)
    if not tops:
        return Piece.empty(), winner, region
    piece, rest = rt.split(tops, stop)
    return piece, winner, rest


def _split(
    vals: Sequence[Valuation],
    need: Mapping[int, Fraction],
    log: QueryLog,
    rt: _RootedTree,
) -> tuple[int, list[int], Optional[Fraction]]:
    """Where an extraction cuts ``rt``, the tree of the region: the winner, the
    branches she takes (children of one node), and where a knife stopped on the
    one branch's leg, or None when she takes whole branches.  No branch is
    taken when some need is zero.

    ``rt.cut_site`` finds where: a knife sweeps the one branch it names from
    the child end, earliest call winning, or the first agent whose sum meets
    her need takes the branches it names.  Each agent's value of the region
    is her root sum, one evaluation query each; it is checked against her need
    before the region has to be connected.
    """
    eligible = sorted(need)
    stv, branch, scale, least = {}, {}, {}, {}
    for a in eligible:
        require_exact(need[a], "extraction threshold")
        if need[a] < 0:
            raise DomainError(f"extraction threshold {_shown(need[a])} is negative")
        stv[a], branch[a], scale[a] = rt.subtree_values(vals[a])
        # an integer x meets the need when x >= need * scale, that is x >= least
        least[a] = math.ceil(need[a] * scale[a])
        log.eval_count += 1
        if stv[a][0] < least[a]:
            raise InsufficientValue(f"agent {a} values the piece below {_shown(need[a])}")
    satisfied = [a for a in eligible if need[a] == 0]
    if satisfied:
        return satisfied[0], [], None
    if not rt.connected:
        raise DisconnectedPiece("piece is not connected")
    log.eval_count += len(rt.intervals) * len(eligible)

    lows = [least[a] for a in eligible]
    tops, sums = rt.cut_site(
        [branch[a] for a in eligible],
        lambda v: any(stv[a][v] >= least[a] for a in eligible),
        lambda xs: any(map(ge, xs, lows)),
    )
    if sums is not None:
        return next(compress(eligible, map(ge, sums, lows))), tops, None
    (w,) = tops
    targets = {a: need[a] - Fraction(stv[a][w], scale[a]) for a in eligible if branch[a][w] >= least[a]}
    winner, cut = _knife_race(vals, (rt.leg(w),), targets, log)
    return winner, tops, cut.position


def extract_piece(
    inst: Instance,
    sub: Piece,
    alpha: Fraction,
    eligible: Optional[Iterable[int]] = None,
    log: Optional[QueryLog] = None,
) -> tuple[Piece, int, Piece]:
    """Public wrapper over the extraction routine, on an instance's own agents.
    An eligible agent that is not an index of one, such as -1, ``inst.n`` or
    True, raises DomainError."""
    log = log if log is not None else QueryLog()
    who = list(eligible) if eligible is not None else list(range(inst.n))
    for a in who:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < inst.n:
            raise DomainError(f"eligible agent {a!r} is not one of the {inst.n} agents")
    return _extract(inst.graph, inst.agents, sub, {a: alpha for a in who}, log)


# ---------------------------------------------------------------------------
# Egalitarian guarantee for any number of agents
# ---------------------------------------------------------------------------


def _egalitarian(
    g: CakeGraph,
    vals: Sequence[Valuation],
    agents: Sequence[int],
    region: Piece,
    pieces: list[Piece],
    log: QueryLog,
) -> None:
    """Give each of k agents a connected part of the region worth at least
    1/(2k-1) of her value of the region.

    The region's tree is built and summed at the first level only; each later
    level prunes it to the remainder (``_RootedTree.remainder``), so each
    agent's value of the remainder is read off the kept root sum."""
    agents = list(agents)
    if len(agents) > 1:
        rt = _region_tree(g, region)
    while len(agents) > 1:
        share = Fraction(1, 2 * len(agents) - 1)
        need = {a: share * rt.value(vals[a]) for a in agents}
        winner, tops, stop = _split(vals, need, log, rt)
        pieces[winner], region = rt.split(tops, stop)
        agents.remove(winner)
        if len(agents) > 1:
            rt = rt.remainder(g, tops, stop, region, {vals[a] for a in agents})
    pieces[agents[0]] = region


_EGAL = Setting("cake", 1)


def connected_egalitarian(inst: Instance) -> ProtocolResult:
    """Connected allocation giving every one of n agents at least 1/(2n-1).

    Extract a piece for one agent at threshold 1/(2n-1), then repeat on the
    remainder with one agent fewer, each threshold scaled by the agent's value
    of that remainder.
    """
    _require(inst, _EGAL)
    log = QueryLog()
    pieces: list[Piece] = [Piece.empty()] * inst.n
    _egalitarian(inst.graph, inst.agents, range(inst.n), inst.graph.whole_piece(), pieces, log)
    return ProtocolResult(Allocation(tuple(pieces)), log)


# ---------------------------------------------------------------------------
# Stars
# ---------------------------------------------------------------------------


def f_guarantee(n: int, k: int) -> Fraction:
    """Optimal egalitarian guarantee for n agents on a star with k edges.  Each
    count must be an int: a bool, a float or a Fraction raises DomainError."""
    _require_int(n, "n")
    _require_int(k, "k")
    if n < 2 or k < 3:
        raise DomainError(f"f(n, k) needs n >= 2 and k >= 3, got ({_shown(n)}, {_shown(k)})")
    if k < 2 * n - 1:
        return Fraction(1, n + (k + 1) // 2 - 1)
    return Fraction(1, 2 * n - 1)


def _path_tree(g: CakeGraph, region: Piece) -> _RootedTree:
    """A path region as a tree rooted at its least end."""
    ends = Counter(end for iv in region.intervals for end in _ends(g, iv))
    start = min((p for p, count in ends.items() if count == 1), key=_node_key)
    return _RootedTree(g, region.intervals, start)


def _sweep(rt: _RootedTree) -> Trajectory:
    """The legs of a path's tree, swept from its root to its one leaf."""
    legs: list[Leg] = []
    v = 0
    while rt.children[v]:
        if len(rt.children[v]) > 1:
            raise ProtocolInvariantError("region is not a path swept from one end")
        v = rt.children[v][0]
        leg = rt.leg(v)
        legs.append(Leg(leg.edge, leg.end, leg.start))
    return tuple(legs)


def _path_proportional(
    vals: Sequence[Valuation],
    traj: Trajectory,
    need: Mapping[int, Fraction],
    region: Piece,
    pieces: list[Piece],
    log: QueryLog,
) -> None:
    """Moving knife along a trajectory that sweeps the region: the agents in
    ``need`` race one knife to their needs, the winner takes the covered prefix,
    and the others race on from where it stopped.  The last agent takes the rest
    of the region.  Each leg sweeps one interval of the region, found by edge
    id: a region that holds two intervals of one edge, or none of a leg's
    edge, raises ProtocolInvariantError."""
    remaining = list(need)
    while len(remaining) > 1:
        winner, cut = _knife_race(vals, traj, {a: need[a] for a in remaining}, log)
        at = {iv.edge: i for i, iv in enumerate(region.intervals)}
        if len(at) != len(region.intervals):
            raise ProtocolInvariantError("a swept region holds two intervals of one edge")
        try:
            swept = [at[leg.edge] for leg in traj[: cut.leg_index + 1]]
        except KeyError:
            raise ProtocolInvariantError("a leg sweeps an edge the region does not hold") from None
        taken = bytearray(len(at))
        for i in islice(swept, cut.leg_index):
            taken[i] = 1
        leg = traj[cut.leg_index]
        pieces[winner], region = _parted(region.intervals, taken, (swept[-1], leg, cut.position))
        remaining.remove(winner)
        traj = traj[cut.leg_index + 1 :]
        if cut.position != leg.end:
            traj = (Leg(leg.edge, cut.position, leg.end), *traj)
    pieces[remaining[0]] = region


def _star_rec(
    g: CakeGraph,
    vals: Sequence[Valuation],
    agents: Sequence[int],
    region: Piece,
    center: str,
    pieces: list[Piece],
    log: QueryLog,
) -> None:
    """Give each of k agents a connected part of a star region worth at least
    f(k, m) of her value of it, m being its intervals.  A path (m <= 2) is cut
    proportionally and m >= 2k-1 is left to ``_egalitarian``.  In between,
    each interval is a spoke or the part of one at the center, so no tree is
    built: a knife sweeps the first interval worth the first agent's need from
    its outer end, and the others recurse on the rest."""
    k = len(agents)
    if k == 1:
        pieces[agents[0]] = region
        return
    m = len(region.intervals)
    if m <= 2:
        rt = _path_tree(g, region)
        share = Fraction(1, k)
        need = {a: share * rt.value(vals[a]) for a in agents}
        _path_proportional(vals, _sweep(rt), need, region, pieces, log)
        return
    if m >= 2 * k - 1:
        _egalitarian(g, vals, agents, region, pieces, log)
        return
    share = f_guarantee(k, m)
    need = {a: share * value_of_piece(vals[a], region) for a in agents}
    # The first agent values every interval up to the chosen one, then every
    # agent the chosen one.
    log.eval_count += m + k

    def meets(a: int, iv: Interval) -> bool:
        return vals[a].interval_value(iv.edge, iv.lo, iv.hi) >= need[a]

    first = agents[0]
    i, iv = next((i, iv) for i, iv in enumerate(region.intervals) if meets(first, iv))
    targets = {a: need[a] for a in agents if meets(a, iv)}
    inner = ZERO if g.edge(iv.edge).u == center else ONE  # the end at the center
    leg = Leg(iv.edge, iv.hi, iv.lo) if iv.lo == inner else Leg(iv.edge, iv.lo, iv.hi)
    winner, cut = _knife_race(vals, (leg,), targets, log)
    pieces[winner], region = _parted(region.intervals, bytearray(m), (i, leg, cut.position))
    rest = [a for a in agents if a != winner]
    _star_rec(g, vals, rest, region, center, pieces, log)


def _is_wide_star(g: CakeGraph) -> bool:
    return g.m >= 3 and g.star_center() is not None


_STAR = Setting("cake", 2, graph=_is_wide_star)


def star_egalitarian(inst: Instance) -> ProtocolResult:
    """Connected allocation on a star with k >= 3 edges achieving the star guarantee.

    Wide stars delegate to the general egalitarian protocol; narrow stars sweep
    a knife from the outer endpoint of a valuable edge towards the center and
    recurse on one agent fewer.
    """
    _require(inst, _STAR)
    if not _is_wide_star(inst.graph):
        raise NotAStar("graph is not a star with at least three edges")
    center = inst.graph.star_center()
    log = QueryLog()
    pieces: list[Piece] = [Piece.empty()] * inst.n
    _star_rec(
        inst.graph, inst.agents, range(inst.n), inst.graph.whole_piece(), center, pieces, log
    )
    return ProtocolResult(Allocation(tuple(pieces)), log)


# ---------------------------------------------------------------------------
# Two agents, one connected piece each
# ---------------------------------------------------------------------------


def _almost_bridgeless(g: CakeGraph) -> bool:
    return classify_almost_bridgeless(g).is_almost_bridgeless


_TWO_CAKE = Setting("cake", 2, 2)
_PROP2 = replace(_TWO_CAKE, graph=_almost_bridgeless)


def proportional_two_connected(inst: Instance, lab: OrientedLabeling) -> ProtocolResult:
    """Proportional connected allocation for two agents via one knife sweep.

    The knife follows the contiguous labeling edge by edge; whoever first sees
    value 1/2 in the covered prefix takes it, the other agent takes the suffix.
    Every labeling is checked with ``is_contiguous`` except the one the graph
    keeps (the very object ``compute_contiguous_labeling`` returns), which was
    checked before it was kept and cannot change; an equal copy is checked.
    """
    _require(inst, _PROP2)
    if lab is not inst.graph._kept_labeling and not is_contiguous(inst.graph, lab):
        raise LabelingNotContiguous("the supplied labeling fails the contiguity check")
    g = inst.graph
    # the contiguity check put every tail at one end of its edge
    traj = tuple(
        Leg(e, ZERO, ONE) if lab.tails[e] == g.edge(e).u else Leg(e, ONE, ZERO)
        for e in lab.order
    )
    return _halve(g, inst.agents, traj)


def _halve(g: CakeGraph, vals: Sequence[Valuation], traj: Trajectory) -> ProtocolResult:
    """Two agents race one knife along ``traj`` to half their value: the first
    to call stop takes the covered prefix, the other the rest of the graph."""
    log = QueryLog()
    pieces = [Piece.empty()] * 2
    _path_proportional(vals, traj, {0: HALF, 1: HALF}, g.whole_piece(), pieces, log)
    return ProtocolResult(Allocation(tuple(pieces)), log)


def _fixed_pair(
    g: CakeGraph,
    first: Valuation,
    second: Valuation,
    region: Piece,
    log: QueryLog,
    rt: Optional[_RootedTree] = None,
) -> tuple[Piece, Piece]:
    """Cut-and-choose core: split the region so both parts are worth at least a
    third of it to ``second``, then ``first`` takes her preferred part.  ``rt``
    is the region's tree in piece order when the caller has built it."""
    rt = rt if rt is not None else _region_tree(g, region)
    need = THIRD * rt.value(second)
    piece, _, rem = _extract(g, [second, second], region, {0: need, 1: need}, log, rt)
    if value_of_piece(first, piece, log) >= value_of_piece(first, rem, log):
        return piece, rem
    return rem, piece


def two_agent_fixed(inst: Instance) -> ProtocolResult:
    """Connected allocation giving agent 1 at least 1/2 and agent 2 at least 1/3."""
    _require(inst, _TWO_CAKE)
    log = QueryLog()
    g = inst.graph
    a1, a2 = _fixed_pair(g, inst.agents[0], inst.agents[1], g.whole_piece(), log)
    return ProtocolResult(Allocation((a1, a2)), log)


def two_agent_best(inst: Instance) -> ProtocolResult:
    """The optimal guarantee for the instance's graph: 1/2 on almost bridgeless
    graphs (proportional), otherwise 1/3 with agent 1 still receiving 1/2."""
    _require(inst, _TWO_CAKE)
    # the labeling classifies the graph itself; it exists exactly on almost
    # bridgeless graphs
    try:
        lab = compute_contiguous_labeling(inst.graph)
    except NotAlmostBridgeless:
        return two_agent_fixed(inst)
    return proportional_two_connected(inst, lab)


def two_agent_flexible(inst: Instance, alpha: Fraction) -> EntitlementResult:
    """Connected allocation where one agent gets >= alpha and the other >= 1-2*alpha,
    without fixing in advance which agent gets which share."""
    _require(inst, _TWO_CAKE)
    require_exact(alpha, "alpha")
    if not 0 < alpha <= Fraction(1, 4):
        raise AlphaOutOfRange(f"alpha must satisfy 0 < alpha <= 1/4, got {_shown(alpha)}")
    log = QueryLog()
    piece, winner, rem = _extract(
        inst.graph, inst.agents, inst.graph.whole_piece(), {0: alpha, 1: alpha}, log
    )
    other = 1 - winner
    pieces = (piece, rem) if winner == 0 else (rem, piece)
    return EntitlementResult(Allocation(pieces), winner, other, log)


# ---------------------------------------------------------------------------
# More connected pieces
# ---------------------------------------------------------------------------


# The largest piece budget multi2 takes.  Each round triples the denominators
# of the exact values, so a solve's cost grows about as k**3.  Solve, verify
# and guarantee check on one core (Python 3.11): a uniform 3-edge cycle takes
# 0.07 s at k = 100, 0.35 s at 200 and 1.05 s at 400, and 200-400-edge road
# graphs take 0.12-0.17 s at k = 100.  At k = 100 the guarantee
# 1/2 - 1/(2*3^k) is already within 10**-47 of 1/2.
MULTI2_MAX_K = 100


def _piece_budget(k: int) -> int:
    """``k`` when 1 <= k <= MULTI2_MAX_K; DomainError otherwise, before any
    power of three is formed."""
    if k < 1:
        raise DomainError(f"piece budget k must be >= 1, got {_shown(k)}")
    if k > MULTI2_MAX_K:
        raise DomainError(
            f"piece budget k must be at most {MULTI2_MAX_K}: each extra piece triples the exact denominators"
        )
    return k


def multi_piece_two(inst: Instance, k: int) -> ProtocolResult:
    """Two agents, at most k+1 connected pieces in total, welfare >= 1/2 - 1/(2*3^k),
    for 1 <= k <= MULTI2_MAX_K.

    Repeatedly rebalance the first agent's split of the cake: move a small
    connected chunk (one third to two thirds of twice the deficit) from the
    richer part to the poorer one, shrinking the deficit by a factor of three
    per extra piece.  The second agent then picks her preferred part.
    """
    _require(inst, _TWO_CAKE)
    _piece_budget(k)
    g = inst.graph
    f1, f2 = inst.agents
    log = QueryLog()
    piece, _, rem = _extract(g, [f1, f1], g.whole_piece(), {0: THIRD, 1: THIRD}, log)
    parts: list[list[Piece]] = [[piece], [rem]]
    for _ in range(k - 1):
        totals = [
            sum((value_of_piece(f1, p, log) for p in part), ZERO) for part in parts
        ]
        deficit = HALF - min(totals)
        if deficit == 0:
            break
        rich = parts[0] if totals[0] > totals[1] else parts[1]
        poor = parts[1] if rich is parts[0] else parts[0]
        h_pos = max(
            range(len(rich)), key=lambda i: (value_of_piece(f1, rich[i], log), -i)
        )
        target = 2 * deficit / 3
        chunk, _, h_rem = _extract(g, [f1, f1], rich[h_pos], {0: target, 1: target}, log)
        if h_rem.is_empty():
            del rich[h_pos]
        else:
            rich[h_pos] = h_rem
        poor.append(chunk)
    union0 = Piece.of(iv for p in parts[0] for iv in p.intervals)
    union1 = Piece.of(iv for p in parts[1] for iv in p.intervals)
    if value_of_piece(f2, union0, log) >= value_of_piece(f2, union1, log):
        alloc = Allocation((union1, union0))
    else:
        alloc = Allocation((union0, union1))
    return ProtocolResult(alloc, log)


def _height2_tree(g: CakeGraph, root: str) -> Optional[_RootedTree]:
    """The graph as a tree rooted at ``root``, if it is one of height at most two."""
    if g.is_tree() and root in g.vertices:
        rt = _kept_tree(g, root, stored=True)
        # height at most two: no grandchild of the root has children
        if not any(rt.children[x] for child in rt.children[0] for x in rt.children[child]):
            return rt
    return None


def _height2_root(g: CakeGraph) -> Optional[str]:
    """The first vertex from which the graph is a tree of height at most two, if any.

    A root's height is its eccentricity, and in a tree a vertex's eccentricity
    is its larger distance to the two ends of a diameter: a vertex ``a``
    farthest from any vertex, and a vertex ``b`` farthest from ``a``.  So three
    breadth-first searches, O(m) in all, find every vertex of eccentricity at
    most two."""
    if not g.is_tree():
        return None
    start = _distances(g, g.vertices[0])
    to_a = _distances(g, max(start, key=start.__getitem__))
    to_b = _distances(g, max(to_a, key=to_a.__getitem__))
    return next((v for v in g.vertices if to_a[v] <= 2 and to_b[v] <= 2), None)


_HEIGHT2 = replace(_TWO_CAKE, graph=lambda g: _height2_root(g) is not None)


def height2_two_piece_proportional(inst: Instance, root: str) -> ProtocolResult:
    """Proportional allocation with at most two connected pieces per agent on a
    tree of height at most two.

    The knife visits each child branch in turn: down every grandchild edge
    from the child, then up the child edge towards the root; it stops at the
    first point some agent values the covered part exactly 1/2.
    """
    _require(inst, _HEIGHT2)
    g = inst.graph
    rt = _height2_tree(g, root)
    if rt is None:
        raise NotHeightTwoTree(f"graph is not a tree of height at most two from {root!r}")
    legs: list[Leg] = []
    for child in rt.children[0]:
        for grandchild in rt.children[child]:
            down = rt.leg(grandchild)
            legs.append(Leg(down.edge, down.end, down.start))
        legs.append(rt.leg(child))
    return _halve(g, inst.agents, tuple(legs))


# ---------------------------------------------------------------------------
# Equitability
# ---------------------------------------------------------------------------


def equitable_two(inst: Instance) -> ProtocolResult:
    """Complete connected allocation for two agents with inequity at most 1/3.

    Run the extraction machinery on the averaged measure (f1+f2)/2 at threshold
    1/3; the extracted piece goes to agent 1, so f1(A1)+f2(A1) lands in
    [2/3, 4/3] and the value difference is at most 1/3.
    """
    _require(inst, _TWO_CAKE)
    combined = combine_valuations(list(inst.agents), [HALF, HALF])
    log = QueryLog()
    piece, _, rem = _extract(
        inst.graph, [combined, combined], inst.graph.whole_piece(), {0: THIRD, 1: THIRD}, log
    )
    return ProtocolResult(Allocation((piece, rem)), log)


# ---------------------------------------------------------------------------
# Chore division
# ---------------------------------------------------------------------------


_CHORE2 = Setting("chore", 2, 2)
_CHORE3 = Setting("chore", 3, 3)
_CHORE5 = Setting("chore", 1, 5)


def chore_two(inst: Instance) -> ProtocolResult:
    """Two-agent chore division: costs at most 1/2 for agent 1 and 2/3 for agent 2.

    Treat costs as cake values, run the cut-and-choose split, and let the
    agents swap their pieces.
    """
    _require(inst, _CHORE2)
    log = QueryLog()
    pieces = [Piece.empty()] * 2
    _chore_rec(inst.graph, inst.agents, (0, 1), inst.graph.whole_piece(), pieces, log)
    return ProtocolResult(Allocation(tuple(pieces)), log)


def chore_three(inst: Instance) -> ProtocolResult:
    """Three-agent chore division with egalitarian cost at most 1/2.

    Split between agents 1 and 2 as in the two-agent protocol, then divide
    agent 2's piece again: agent 2 cuts it, agent 3 chooses, and the two swap,
    unless it costs agent 3 nothing, when agent 3 takes it whole.
    """
    _require(inst, _CHORE3)
    g = inst.graph
    log = QueryLog()
    pieces = [Piece.empty()] * 3
    _chore_rec(g, inst.agents, (0, 1), g.whole_piece(), pieces, log)
    _divide_group(g, inst.agents, pieces[1], [2, 1], pieces, log)
    return ProtocolResult(Allocation(tuple(pieces)), log)


def _cond1_thresholds(k: int) -> list[Fraction]:
    """Condition one's bounds: the i-th least of k cost shares is at most the i-th."""
    return [Fraction(1, k + 1)] + [Fraction(i - 1, k + 1) for i in range(2, k + 1)]


def _cond2_holds(sorted_costs: Sequence[Fraction], k: int) -> bool:
    head = all(
        sorted_costs[i - 1] > Fraction(i + 1, k + 1) for i in range(1, k)
    )
    return head and sorted_costs[k - 1] > Fraction(k, k + 1)


def _divide_group(
    g: CakeGraph,
    vals: Sequence[Valuation],
    piece: Piece,
    group: list[int],
    pieces: list[Piece],
    log: QueryLog,
) -> None:
    """Allocate a connected piece of chore entirely within a group of agents.

    A group member with zero cost absorbs the whole piece for free; otherwise
    the group divides the piece as a region of its own.
    """
    if piece.is_empty():
        for a in group:
            pieces[a] = Piece.empty()
        return
    # every member's cost of the piece is one evaluation query
    log.eval_count += len(group)
    if len(group) == 1:
        pieces[group[0]] = piece
        return
    rt = _RootedTree(g, piece.intervals)
    zero_agents = [a for a in group if rt.value(vals[a]) == 0]
    if zero_agents:
        sink = min(zero_agents)
        for a in group:
            pieces[a] = piece if a == sink else Piece.empty()
        return
    _chore_rec(g, vals, group, piece, pieces, log, rt)


def _chore_rec(
    g: CakeGraph,
    vals: Sequence[Valuation],
    agents: Sequence[int],
    region: Piece,
    pieces: list[Piece],
    log: QueryLog,
    rt: Optional[_RootedTree] = None,
) -> None:
    """Divide a chore region among agents; ``rt`` walks the region, by default
    in piece order, which two agents' extraction needs.  ``rt.cut_site`` finds
    where costs first break condition one; the piece is the branches it names,
    or the one branch swept to its last point that keeps condition one.  The
    agents, ranked by their cost of it, split into one group for the piece and
    one for the rest."""
    k = len(agents)
    if k == 1:
        pieces[agents[0]] = region
        return
    if k == 2:
        first_part, second_part = _fixed_pair(g, vals[agents[0]], vals[agents[1]], region, log, rt)
        pieces[agents[0]], pieces[agents[1]] = second_part, first_part
        return

    thresholds = _cond1_thresholds(k)
    rt = rt if rt is not None else _RootedTree(g, region.intervals)
    below, branch, total = {}, {}, {}
    for a in agents:
        below[a], branch[a], scale = rt.subtree_values(vals[a])
        total[a] = Fraction(below[a][0], scale)
    log.eval_count += len(region.intervals) * k

    def share(a: int, x: int) -> Fraction:
        """A cost of agent ``a`` as a share of her cost of the region, the root's value."""
        return Fraction(x, below[a][0])

    def violates(costs: Iterable[int]) -> bool:
        """Whether one cost per agent breaks condition one."""
        return any(map(gt, sorted(map(share, agents, costs)), thresholds))

    if not violates([below[a][0] for a in agents]):
        raise ProtocolInvariantError("the whole chore meets condition one")
    tops, sums = rt.cut_site(
        [branch[a] for a in agents], lambda v: violates([below[a][v] for a in agents]), violates
    )

    if sums is None:
        # Case 1: sweep along the branch edge to the last point where the
        # first condition still holds; there some inequality is exactly tight.
        (w,) = tops
        leg = rt.leg(w)
        leg_length = abs(leg.end - leg.start)
        direction = 1 if leg.end >= leg.start else -1
        BEFORE = Fraction(-1)
        offsets: list[list[Fraction]] = []  # offsets[i][j] for condition index i+1
        for i in range(k):
            row = []
            for a in agents:
                budget = (thresholds[i] - share(a, below[a][w])) * total[a]
                pos = latest_position_within(vals[a], leg, budget)
                row.append(BEFORE if pos is None else abs(pos - leg.start))
            log.cut_count += k
            offsets.append(row)
        stop = min(sorted(row, reverse=True)[i] for i, row in enumerate(offsets))
        if not (ZERO <= stop < leg_length):
            raise ProtocolInvariantError("condition-one tightness point out of range")
        piece, rest = rt.split(tops, leg.start + direction * stop)
        ranked = sorted((value_of_piece(vals[a], piece, log) / total[a], a) for a in agents)
        if any(map(gt, [c for c, _ in ranked], thresholds)):
            raise ProtocolInvariantError("condition one broken at the computed stop")
        tight = [i for i in range(1, k + 1) if ranked[i - 1][0] == thresholds[i - 1]]
        if not tight:
            raise ProtocolInvariantError("no condition-one inequality is tight at the stop")
        i_star = tight[0]
        group_a_size = max(1, i_star - 1)
    else:
        # Case 2: the first branches, up to the first whose sum breaks
        # condition one.  Each step's ranking and the final one cost one
        # evaluation query per agent.
        log.eval_count += k * (len(tops) + 1)
        piece, rest = rt.split(tops, None)
        ranked = sorted((share(a, x), a) for a, x in zip(agents, sums))
        plain = [c for c, _ in ranked]
        if _cond2_holds(plain, k):
            raise ProtocolInvariantError("accumulated piece unexpectedly meets condition two")
        fail1 = next(i for i in range(1, k + 1) if plain[i - 1] > thresholds[i - 1])
        if fail1 >= 2:
            group_a_size = fail1 - 1
        else:
            fail2 = next((j for j in range(1, k) if plain[j - 1] <= Fraction(j + 1, k + 1)), None)
            if fail2 is None:
                raise ProtocolInvariantError("condition two fails only at the last index")
            group_a_size = fail2

    group_a = [a for _, a in ranked[:group_a_size]]
    group_b = [a for _, a in ranked[group_a_size:]]
    _divide_group(g, vals, piece, sorted(group_a), pieces, log)
    _divide_group(g, vals, rest, sorted(group_b), pieces, log)


def chore_upto5(inst: Instance) -> ProtocolResult:
    """Chore division for up to five agents with egalitarian cost at most 2/(n+1).

    For three to five agents: walk down the tree to a minimal subtree violating
    the cost condition, cut at the earliest tightness point (or accumulate
    branches), and split the agents into two groups that recurse on the two
    sides, each agent's costs scaled by her cost of her side.
    """
    _require(inst, _CHORE5)
    log = QueryLog()
    pieces: list[Piece] = [Piece.empty()] * inst.n
    g = inst.graph
    # three or more agents walk the graph in stored edge order; two agents'
    # extraction walks it in piece order and builds that tree itself
    rt = _kept_tree(g, None, stored=True) if inst.n > 2 else None
    _chore_rec(g, inst.agents, range(inst.n), g.whole_piece(), pieces, log, rt)
    return ProtocolResult(Allocation(tuple(pieces)), log)


# ---------------------------------------------------------------------------
# Name registry (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: ``run(inst, **params)`` runs it on instances in ``setting``.

    Its guarantee is a complete and disjoint allocation, with every piece
    connected when ``connected`` is set, for which every (holds, message) pair
    of ``bounds(report, inst, params, result)`` holds."""

    run: Callable[..., object]
    setting: Setting
    bounds: Callable[..., list[tuple[bool, str]]]
    connected: bool = True
    params: Mapping[str, Param] = field(default_factory=dict)


def _run_prop2(inst: Instance) -> ProtocolResult:
    return proportional_two_connected(inst, compute_contiguous_labeling(inst.graph))


def _run_height2(inst: Instance, root: Optional[str] = None) -> ProtocolResult:
    if root is None:
        root = _height2_root(inst.graph)
        if root is None:
            raise NotHeightTwoTree("no root gives this graph height at most two")
    return height2_two_piece_proportional(inst, root)


def _floor(value: Fraction, bound: Fraction, what: str) -> tuple[bool, str]:
    return value >= bound, f"{what} below {bound}"


def _ceiling(value: Fraction, bound: Fraction, what: str) -> tuple[bool, str]:
    return value <= bound, f"{what} above {bound}"


def _entitlement_bounds(
    r: VerificationReport, inst: Instance, p: Mapping, result: Optional[EntitlementResult]
) -> list[tuple[bool, str]]:
    if result is None:
        raise DomainError("checking an entitlement guarantee needs the protocol result")
    return [
        (r.values[result.alpha_agent] >= p["alpha"], "alpha guarantee failed"),
        (r.values[result.beta_agent] >= 1 - 2 * p["alpha"], "1-2*alpha guarantee failed"),
    ]


PROTOCOLS: Mapping[str, ProtocolSpec] = {
    "egal": ProtocolSpec(connected_egalitarian, _EGAL, lambda r, inst, p, res: [
        _floor(r.egalitarian, Fraction(1, 2 * inst.n - 1), f"welfare {r.egalitarian}"),
    ]),
    "star": ProtocolSpec(star_egalitarian, _STAR, lambda r, inst, p, res: [
        _floor(r.egalitarian, f_guarantee(inst.n, inst.graph.m), f"welfare {r.egalitarian}"),
    ]),
    "prop2": ProtocolSpec(_run_prop2, _PROP2, lambda r, inst, p, res: [
        _floor(min(r.values), HALF, "welfare"),
    ]),
    "best2": ProtocolSpec(two_agent_best, _TWO_CAKE, lambda r, inst, p, res: [
        _floor(min(r.values), HALF if _almost_bridgeless(inst.graph) else THIRD, "welfare"),
        _floor(r.values[0], HALF, "agent 1"),
    ]),
    "fixed2": ProtocolSpec(two_agent_fixed, _TWO_CAKE, lambda r, inst, p, res: [
        _floor(r.values[0], HALF, "agent 1"),
        _floor(r.values[1], THIRD, "agent 2"),
    ]),
    "flex2": ProtocolSpec(
        two_agent_flexible, _TWO_CAKE, _entitlement_bounds, params={"alpha": Param(exact_fraction)}
    ),
    "multi2": ProtocolSpec(multi_piece_two, _TWO_CAKE, lambda r, inst, p, res: [
        _floor(min(r.values), HALF - Fraction(1, 2 * 3 ** _piece_budget(p["k"])), "welfare"),
        (r.total_pieces <= p["k"] + 1, f"more than {p['k'] + 1} pieces in total"),
    ], connected=False, params={"k": Param(exact_int)}),
    "height2": ProtocolSpec(_run_height2, _HEIGHT2, lambda r, inst, p, res: [
        _floor(min(r.values), HALF, "welfare"),
        (all(a.piece_count <= 2 for a in r.agents), "an agent received more than two pieces"),
    ], connected=False, params={"root": Param(str, required=False)}),
    "equit2": ProtocolSpec(equitable_two, _TWO_CAKE, lambda r, inst, p, res: [
        _ceiling(r.inequity, THIRD, f"inequity {r.inequity}"),
    ]),
    "chore2": ProtocolSpec(chore_two, _CHORE2, lambda r, inst, p, res: [
        _ceiling(r.values[0], HALF, "agent 1"),
        _ceiling(r.values[1], Fraction(2, 3), "agent 2"),
    ]),
    "chore3": ProtocolSpec(chore_three, _CHORE3, lambda r, inst, p, res: [
        _ceiling(r.egalitarian, HALF, "egalitarian cost"),
    ]),
    "chore5": ProtocolSpec(chore_upto5, _CHORE5, lambda r, inst, p, res: [
        _ceiling(r.egalitarian, Fraction(2, inst.n + 1), "egalitarian cost"),
    ]),
}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def _spec(name: str) -> ProtocolSpec:
    if name not in PROTOCOLS:
        raise DomainError(f"unknown protocol {name!r}")
    return PROTOCOLS[name]


def run_protocol(name: str, inst: Instance, params: Optional[Mapping] = None):
    """Run a protocol by its stable name; returns a ProtocolResult or
    EntitlementResult.  ``params`` supplies protocol-specific arguments
    (``alpha`` for flex2, ``k`` for multi2, optional ``root`` for height2);
    any other key, a missing one, or a value that does not convert, such as
    ``k=2.5``, raises BadParameters, itself a DomainError."""
    spec = _spec(name)
    return spec.run(inst, **read_params(name, spec.params, params))


def applies(name: str, inst: Instance) -> bool:
    """Whether the instance lies in the protocol's setting: its mode, its agent
    count and, for star, prop2 and height2, its graph class."""
    setting = _spec(name).setting
    try:
        _require(inst, setting)
    except (DomainError, TooManyAgents):
        return False
    return setting.graph is None or setting.graph(inst.graph)


def guarantee_violations(
    name: str, inst: Instance, report: VerificationReport, params: Optional[Mapping] = None, result=None
) -> list[str]:
    """Check a verification report against the protocol's stated guarantee.

    Returns a list of human-readable violations (empty when the guarantee holds).
    """
    spec = _spec(name)
    checks = [
        (report.disjoint, "pieces overlap"),
        (report.complete, "allocation is not complete"),
    ]
    if spec.connected:
        checks.append((report.all_connected, "some piece is disconnected"))
    checks += spec.bounds(report, inst, read_params(name, spec.params, params), result)
    return [message for holds, message in checks if not holds]
