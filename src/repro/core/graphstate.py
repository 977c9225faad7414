"""Immutable CFG states for the formal operations layer (Section 3).

The paper defines a CFG as ``G = ⟨B, C, E, F⟩``:

- ``B`` — basic blocks, address ranges ``[s, e)``;
- ``C`` — candidate blocks ``[t]`` with known start but unknown end;
- ``E`` — directed edges between blocks; the partial order preserves only
  the *end address of the source* and the *start address of the target*
  (splits may change everything else), so an edge is represented here as
  exactly that pair plus a kind;
- ``F`` — function entry addresses.

This layer exists to state and property-test the paper's Section 4 claims
(commutativity, monotonicity, dependencies); the high-performance mutable
CFG used by the parsers lives in :mod:`repro.core.cfg`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum


class EdgeKind(str, Enum):
    """Edge kinds in the formal layer."""

    JUMP = "jump"          # unconditional direct branch
    COND_TAKEN = "cond_t"  # conditional branch, taken
    FALL = "fall"          # fall-through (incl. split-induced)
    CALL = "call"          # function call
    CALL_FT = "call_ft"    # call fall-through summary edge
    INDIRECT = "ind"       # resolved indirect branch target


@dataclass(frozen=True, slots=True)
class FEdge:
    """A formal edge: (source block end, target block start, kind)."""

    src_end: int
    dst_start: int
    kind: EdgeKind


@dataclass(frozen=True)
class GraphState:
    """An immutable ``⟨B, C, E, F⟩`` tuple."""

    blocks: frozenset[tuple[int, int]] = frozenset()
    candidates: frozenset[int] = frozenset()
    edges: frozenset[FEdge] = frozenset()
    entries: frozenset[int] = frozenset()

    # -- factory -------------------------------------------------------------

    @classmethod
    def initial(cls, entry_addrs: set[int]) -> "GraphState":
        """``G0 = ⟨∅, F0, ∅, F0⟩`` (Section 3)."""
        return cls(candidates=frozenset(entry_addrs),
                   entries=frozenset(entry_addrs))

    # -- queries ---------------------------------------------------------------

    def block_starting(self, addr: int) -> tuple[int, int] | None:
        for b in self.blocks:
            if b[0] == addr:
                return b
        return None

    def block_ending(self, addr: int) -> tuple[int, int] | None:
        for b in self.blocks:
            if b[1] == addr:
                return b
        return None

    def block_containing(self, addr: int) -> tuple[int, int] | None:
        """The block with ``s < addr < e`` (strict interior), if any."""
        for s, e in self.blocks:
            if s < addr < e:
                return (s, e)
        return None

    def has_node_at(self, addr: int) -> bool:
        """True if a block or candidate starts at ``addr``."""
        return addr in self.candidates or self.block_starting(addr) is not None

    def address_intervals(self) -> list[tuple[int, int]]:
        """Merged, sorted intervals of addresses covered by blocks."""
        out: list[tuple[int, int]] = []
        for s, e in sorted(self.blocks):
            if out and s <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], e))
            else:
                out.append((s, e))
        return out

    # -- functional updates ----------------------------------------------------------

    def with_block(self, s: int, e: int) -> "GraphState":
        return replace(self, blocks=self.blocks | {(s, e)},
                       candidates=self.candidates - {s})

    def without_block(self, b: tuple[int, int]) -> "GraphState":
        return replace(self, blocks=self.blocks - {b})

    def with_candidate(self, t: int) -> "GraphState":
        if self.has_node_at(t):
            return self
        return replace(self, candidates=self.candidates | {t})

    def with_edge(self, edge: FEdge) -> "GraphState":
        return replace(self, edges=self.edges | {edge})

    def with_entry(self, addr: int) -> "GraphState":
        return replace(self, entries=self.entries | {addr})


@dataclass(frozen=True)
class CodeSpace:
    """The underlying binary, abstracted for the formal layer.

    A single instruction stream over ``[base, limit)`` described only by
    its control-flow instructions: each control-flow point is
    ``(end_addr, kind, static targets)``, meaning a control-flow
    instruction *ends* at ``end_addr`` (so a block starting at or before
    it ends there).  Between control-flow points the stream is ordinary
    instructions.
    """

    base: int
    limit: int
    cf_points: tuple[tuple[int, EdgeKind, tuple[int, ...]], ...] = ()
    #: ends of indirect-jump blocks (targets come from an oracle)
    indirect_ends: frozenset[int] = frozenset()

    def __post_init__(self):
        ends = [p[0] for p in self.cf_points]
        assert ends == sorted(ends), "cf points must be sorted"

    def _ends(self) -> list[int]:
        return [p[0] for p in self.cf_points]

    def next_cf_end(self, addr: int) -> tuple[int, EdgeKind, tuple[int, ...]] | None:
        """First control-flow point with end > addr, or None."""
        idx = bisect.bisect_right(self._ends(), addr)
        if idx < len(self.cf_points):
            return self.cf_points[idx]
        return None

    def cf_at_end(self, end: int) -> tuple[EdgeKind, tuple[int, ...]] | None:
        idx = bisect.bisect_left(self._ends(), end)
        if idx < len(self.cf_points) and self.cf_points[idx][0] == end:
            _, kind, targets = self.cf_points[idx]
            return kind, targets
        return None
