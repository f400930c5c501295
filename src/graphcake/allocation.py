"""Allocations and ``verify_allocation``, which checks every protocol output.

The verifier reads pieces through the helpers the protocols use themselves
(``Piece.of``, ``piece_component_count``, ``is_whole`` and ``value_of_piece``),
so it shares their code.  The shared-nothing check is ``tests/independent.py``,
which reads the same documents with the standard library only."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import MalformedPiece
from .graph_core import (
    ONE,
    ZERO,
    CakeGraph,
    Piece,
    format_fraction,
    is_whole,
    piece_component_count,
)
from .valuation import Instance, value_of_piece


@dataclass(frozen=True)
class Allocation:
    """One piece per agent; pieces must be pairwise disjoint up to finitely many points."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        # a list given would make the allocation mutable and unhashable
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for i, p in enumerate(self.pieces):
            if not isinstance(p, Piece):
                raise TypeError(f"piece {i} must be a Piece, not {type(p).__name__}")

    def to_json(self) -> list:
        return [p.to_json() for p in self.pieces]

    @staticmethod
    def from_json(data: Iterable) -> "Allocation":
        if not isinstance(data, (list, tuple)):
            raise MalformedPiece("an allocation must be a list of pieces")
        return Allocation(tuple(Piece.from_json(p) for p in data))


@dataclass(frozen=True)
class AgentReport:
    value: Fraction
    connected: bool
    piece_count: int


@dataclass(frozen=True)
class VerificationReport:
    agents: tuple[AgentReport, ...]
    disjoint: bool
    complete: bool
    mode: str
    egalitarian: Fraction  # min value in cake mode, max cost in chore mode
    inequity: Fraction
    total_pieces: int

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(a.value for a in self.agents)

    @property
    def all_connected(self) -> bool:
        return all(a.connected for a in self.agents)

    def to_json(self) -> dict:
        return {
            "agents": [
                {
                    "value": format_fraction(a.value),
                    "connected": a.connected,
                    "pieces": a.piece_count,
                }
                for a in self.agents
            ],
            "disjoint": self.disjoint,
            "complete": self.complete,
            "mode": self.mode,
            "egalitarian": format_fraction(self.egalitarian),
            "inequity": format_fraction(self.inequity),
            "total_pieces": self.total_pieces,
        }


def _edge_coverage(g: CakeGraph, pieces: Sequence[Piece]) -> tuple[bool, bool]:
    """(disjoint, complete): interiors never overlap across agents; every edge
    fully covered.  The pieces are canonical, so every interval has positive
    length.  An edge held whole twice, or whole and in part, breaks
    disjointness; only edges held in part alone are sorted and swept.  The
    allocation is complete when the edges held whole and the partial edges
    swept without a gap number ``g.m``."""
    whole: set[str] = set()
    partial: dict[str, list[tuple[Fraction, Fraction]]] = defaultdict(list)
    disjoint = True
    for p in pieces:
        for iv in p.intervals:
            if is_whole(iv.lo, iv.hi):
                if iv.edge in whole:
                    disjoint = False
                whole.add(iv.edge)
            else:
                partial[iv.edge].append((iv.lo, iv.hi))
    covered = len(whole)
    for edge, held in partial.items():
        if edge in whole:
            disjoint = False
            continue
        cursor = ZERO
        gap = False
        for lo, hi in sorted(held):
            if lo < cursor:
                disjoint = False
            if lo > cursor:
                gap = True
            cursor = max(cursor, hi)
        if not gap and cursor == ONE:
            covered += 1
    return disjoint, covered == g.m


def verify_allocation(inst: Instance, alloc: Allocation) -> VerificationReport:
    """Recompute every fairness quantity of an allocation with exact arithmetic.

    Consumes only the instance and the allocation, never protocol internals.
    Non-canonical pieces are canonicalized; pieces referencing unknown edges
    raise MalformedPiece.
    """
    if len(alloc.pieces) != inst.n:
        raise MalformedPiece(
            f"allocation has {len(alloc.pieces)} pieces for {inst.n} agents"
        )
    pieces = [Piece.of(p.intervals) for p in alloc.pieces]
    agents = []
    for val, piece in zip(inst.agents, pieces):
        # raises MalformedPiece at the piece's first unknown edge, before any
        # later piece is read
        components = piece_component_count(inst.graph, piece)
        agents.append(
            AgentReport(
                value=value_of_piece(val, piece),
                connected=components <= 1,
                piece_count=components,
            )
        )
    disjoint, complete = _edge_coverage(inst.graph, pieces)
    values = [a.value for a in agents]
    egalitarian = min(values) if inst.mode == "cake" else max(values)
    inequity = max(values) - min(values)
    return VerificationReport(
        agents=tuple(agents),
        disjoint=disjoint,
        complete=complete,
        mode=inst.mode,
        egalitarian=egalitarian,
        inequity=inequity,
        total_pieces=sum(a.piece_count for a in agents),
    )
