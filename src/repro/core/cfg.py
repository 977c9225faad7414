"""Mutable CFG data model used by the parsers, and the final read-only view.

Concurrency contract (mirrors Section 6.1 of the paper):

- block *creation* is mediated by the blocks-by-start concurrent map
  (invariant 1): at most one :class:`Block` per start address;
- block *end registration*, edge creation and block splitting are mutually
  exclusive per end address via the block-ends map accessor
  (invariants 2–4);
- function creation is mediated by the functions map (invariant 5).

After construction the CFG becomes read-only and analyses iterate it
without synchronization (Section 7.2).  All iteration orders exposed by
:class:`ParsedCFG` are canonical (address-sorted), so results are
independent of construction schedule — the property the equivalence tests
pin down.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.isa.instructions import ControlFlowKind, Instruction, has_teardown


class EdgeType(enum.Enum):
    """CFG edge types (Section 3's edge classification, concretized)."""

    DIRECT = "direct"            # unconditional intra-procedural branch
    COND_TAKEN = "cond_taken"
    COND_FALLTHROUGH = "cond_ft"
    FALLTHROUGH = "fallthrough"  # split-induced / straight-line
    CALL = "call"                # inter-procedural call edge
    CALL_FT = "call_ft"          # call fall-through summary edge
    TAILCALL = "tailcall"        # inter-procedural branch
    INDIRECT = "indirect"        # resolved jump-table target

    @property
    def interprocedural(self) -> bool:
        return self in INTER_EDGES

    @property
    def intraprocedural(self) -> bool:
        return self in INTRA_EDGES


#: Edge types that cross a function boundary: CALL and TAILCALL.
INTER_EDGES = (EdgeType.CALL, EdgeType.TAILCALL)
#: Edge types that stay inside a function: all the others.
#: Hot loops test ``etype in INTRA_EDGES`` / ``in INTER_EDGES``: on a
#: tuple that is several times cheaper than the properties, and a
#: frozenset would pay the Python-level ``Enum.__hash__`` on every test.
INTRA_EDGES = tuple(t for t in EdgeType if t not in INTER_EDGES)


class ReturnStatus(enum.Enum):
    """Non-returning analysis lattice (Meng & Miller 2016)."""

    UNSET = "unset"
    RETURN = "return"
    NORETURN = "noreturn"


class Edge:
    """A directed control-flow edge between two blocks.

    ``src``/``etype`` may be rewritten during block splits (edge moves),
    always under the source block-end accessor; ``etype`` may additionally
    be flipped once during tail-call correction in finalization.
    """

    __slots__ = ("src", "dst", "etype", "flipped")

    def __init__(self, src: "Block", dst: "Block", etype: EdgeType):
        self.src = src
        self.dst = dst
        self.etype = etype
        self.flipped = False  # tail-call correction flips each edge ≤ once

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Edge({self.src.start:#x}->{self.dst.start:#x}, "
                f"{self.etype.value})")


class Block:
    """A basic block (or candidate while ``end`` is None)."""

    __slots__ = ("start", "end", "insns", "out_edges", "in_edges",
                 "last_kind", "has_teardown")

    def __init__(self, start: int):
        self.start = start
        self.end: int | None = None
        self.insns: list[Instruction] = []
        self.out_edges: list[Edge] = []
        self.in_edges: list[Edge] = []
        self.last_kind: ControlFlowKind | None = None
        self.has_teardown = False  # LEAVE / net positive SP delta observed

    @property
    def is_candidate(self) -> bool:
        return self.end is None

    @property
    def is_empty(self) -> bool:
        """Zero-length block (candidate that hit undecodable bytes)."""
        return self.end is not None and self.end <= self.start

    @property
    def range(self) -> tuple[int, int]:
        assert self.end is not None
        return (self.start, self.end)

    def truncate(self, new_end: int) -> list[Instruction]:
        """Cut the block at ``new_end``; return the instructions cut off."""
        keep: list[Instruction] = []
        dropped: list[Instruction] = []
        for i in self.insns:
            (keep if i.address < new_end else dropped).append(i)
        self.insns = keep
        self.end = new_end
        self.last_kind = None
        self.has_teardown = has_teardown(keep)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        e = f"{self.end:#x}" if self.end is not None else "?"
        return f"Block({self.start:#x}, {e})"


def release_blocks(blocks: Iterable[Block]) -> None:
    """Empty each block's edge lists.

    Every edge sits in its source's ``out_edges`` and its target's
    ``in_edges``, so a graph is a web of ``Block`` <-> ``Edge`` cycles
    that only the cyclic collector could free.  Emptying the lists of
    every block a graph holds lets reference counting free it instead.
    """
    for b in blocks:
        b.out_edges = []
        b.in_edges = []


class Function:
    """A function: an entry block plus (after finalization) its blocks."""

    __slots__ = ("addr", "name", "entry", "status", "from_symtab",
                 "blocks", "discovered_via")

    def __init__(self, addr: int, name: str, entry: Block,
                 from_symtab: bool, discovered_via: str = "symtab"):
        self.addr = addr
        self.name = name
        self.entry = entry
        self.status = ReturnStatus.UNSET
        self.from_symtab = from_symtab
        self.discovered_via = discovered_via  # symtab|call|tailcall
        self.blocks: list[Block] = []         # assigned at finalization

    def ranges(self) -> list[tuple[int, int]]:
        """Merged, sorted [lo, hi) ranges of this function's blocks."""
        spans = sorted(b.range for b in self.blocks if not b.is_empty)
        out: list[tuple[int, int]] = []
        for lo, hi in spans:
            if out and lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Function({self.name!r}@{self.addr:#x})"


@dataclass
class JumpTableInfo:
    """Result of analyzing one indirect jump."""

    block_start: int          #: block containing the indirect jump
    table_addr: int | None    #: resolved table base (None if unresolved)
    n_entries: int            #: entries read
    bounded: bool             #: True if a bound check was recovered
    targets: list[int] = field(default_factory=list)
    trimmed: int = 0          #: entries removed by overlap finalization


@dataclass
class ParseStats:
    """Construction statistics reported alongside the CFG."""

    n_functions: int = 0
    n_blocks: int = 0
    n_edges: int = 0
    n_splits: int = 0
    n_waves: int = 0
    n_jt_resolved: int = 0
    n_jt_unresolved: int = 0
    n_jt_overapprox: int = 0
    n_edges_trimmed: int = 0
    n_tailcall_flips: int = 0
    n_funcs_removed: int = 0


class ParsedCFG:
    """Read-only CFG produced by a parser (plus finalization)."""

    def __init__(self, functions: list[Function], blocks: list[Block],
                 jump_tables: list[JumpTableInfo], stats: ParseStats):
        self._functions = sorted(functions, key=lambda f: (f.addr, f.name))
        self._blocks = sorted((b for b in blocks), key=lambda b: b.start)
        self.jump_tables = sorted(jump_tables, key=lambda j: j.block_start)
        self.stats = stats
        self._func_by_addr = {f.addr: f for f in self._functions}

    def release(self) -> None:
        """Drop every edge, so reference counting frees this graph.

        Call it once what is needed from the CFG (a signature, a digest,
        findings) has been taken: afterwards the blocks have no edges.
        A parse runs with the cyclic collector paused (see
        :mod:`repro.runtime.serial`), so an unreleased graph that is
        dropped waits for the next full collection.
        """
        release_blocks(self._blocks)

    # -- queries ---------------------------------------------------------------

    def functions(self) -> list[Function]:
        return list(self._functions)

    def function_at(self, addr: int) -> Function | None:
        return self._func_by_addr.get(addr)

    def blocks(self) -> list[Block]:
        return list(self._blocks)

    def block_at(self, addr: int) -> Block | None:
        for b in self._blocks:
            if b.start == addr:
                return b
        return None

    def edges(self) -> list[Edge]:
        out = []
        for b in self._blocks:
            out.extend(b.out_edges)
        return out

    def call_ft_sites(self) -> set[int]:
        """Addresses of call instructions that got a fall-through edge."""
        sites = set()
        for b in self._blocks:
            for e in b.out_edges:
                if e.etype is EdgeType.CALL_FT:
                    last = b.insns[-1] if b.insns else None
                    if last is not None:
                        sites.add(last.address)
        return sites

    def call_sites(self) -> set[int]:
        """Addresses of all call instructions in parsed blocks."""
        sites = set()
        for b in self._blocks:
            if b.insns and b.insns[-1].is_call:
                sites.add(b.insns[-1].address)
        return sites

    # -- canonical identity ------------------------------------------------------

    def signature(self) -> tuple:
        """Schedule-independent identity of the parse result.

        Two parses (any worker count, any backend) of the same binary must
        produce equal signatures — the paper's core correctness property
        ("the relative speed of threads will not impact the final
        results").
        """
        blocks = tuple(sorted(b.range for b in self._blocks
                              if not b.is_empty))
        edges = tuple(sorted(
            (e.src.start, e.dst.start, e.etype.value)
            for b in self._blocks for e in b.out_edges
        ))
        funcs = tuple(sorted(
            (f.addr, f.status.value, tuple(f.ranges()))
            for f in self._functions
        ))
        return (blocks, edges, funcs)

    def to_networkx(self):
        """Whole-program digraph (block starts as nodes) for analyses."""
        import networkx as nx

        g = nx.DiGraph()
        for b in self._blocks:
            g.add_node(b.start, block=b)
        for b in self._blocks:
            for e in b.out_edges:
                g.add_edge(e.src.start, e.dst.start, etype=e.etype)
        return g
