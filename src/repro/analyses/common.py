"""Shared helpers for intra-procedural analyses."""

from __future__ import annotations

from repro.core.cfg import INTRA_EDGES, Block, Function


def function_blocks(func: Function) -> list[Block]:
    """The function's blocks in address order (assigned at finalization)."""
    return sorted((b for b in func.blocks if not b.is_empty),
                  key=lambda b: b.start)


def intra_successors(block: Block, member: set[int]) -> list[Block]:
    """Intra-procedural successors restricted to the function's blocks."""
    return [e.dst for e in block.out_edges
            if e.etype in INTRA_EDGES and e.dst.start in member]


def intra_predecessors(block: Block, member: set[int]) -> list[Block]:
    """Intra-procedural predecessors restricted to the function's blocks."""
    return [e.src for e in block.in_edges
            if e.etype in INTRA_EDGES and e.src.start in member]


def member_set(func: Function) -> set[int]:
    return {b.start for b in func.blocks if not b.is_empty}
