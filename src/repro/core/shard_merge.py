"""Structural merge of per-shard CFG fragments (procs backend).

The procs backend shards the entry set across worker processes; each
worker runs the ordinary parallel parser in *fragment mode*
(:meth:`~repro.core.parallel_parser.ParallelParser.execute_fragment`):
it owns a contiguous address range ``[lo, hi)``, parses its closure
normally inside that range, and defers every cross-shard expansion step
as a flat :class:`~repro.core.parallel_parser.FrontierRecord` instead of
executing it.  This module is the coordinator side:

1. **Rebuild** each fragment's block/edge graph from its integer
   columns (instructions come from the merged decode cache, so no object
   graph crosses the process boundary).
2. **Install** the union into a fresh :class:`ParallelParser`'s maps.
   Shard ownership makes block starts, block ends, functions, jump
   tables and noreturn records disjoint by construction (a shard
   registers an end only if it owns the end's last byte, and defers the
   rest as ``end`` records), so every table is bulk-installed, and an
   entry two shards both exported raises :class:`RuntimeConfigError`.
3. **Replay** the frontier records on the merged parser
   (:meth:`ParallelParser.replay_frontier`) — tail-call classification,
   function creation, noreturn deferral and jump-table analysis all run
   exactly as in a serial parse, just starting from the merged state.
   A record is by definition a step into another shard's claim, so
   replay needs *every* fragment installed: it runs once, in
   :meth:`StreamingMerge.finish`, in shard order and discovery order
   within a shard.
4. Run the parser's ordinary wave fixed point — including the cycle
   rule the fragments had to skip — then the ``finalize`` correction
   phase.

Steps 1–2 run once per fragment, after the fan-out has collected
every shard (:meth:`StreamingMerge.accept`, called in shard order).
Steps 3–4 are the serial tail: the coordinator runtime is one thread,
so each runs once, after the last fragment is in.

Correctness rests on the battery-proven schedule independence of the
invariant machinery: a fragment is a prefix of a valid global schedule
(all its steps touch only addresses it owns), so completing the union of
prefixes with the remaining cross-shard work through the same machinery
reproduces the serial fixed point byte-for-byte — the differential
battery (``tests/test_differential_backends.py``) pins exactly that.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace

from repro.binary.loader import LoadedBinary
from repro.core.cfg import (
    Block,
    Edge,
    EdgeType,
    Function,
    JumpTableInfo,
    ParsedCFG,
    ReturnStatus,
)
from repro.core.finalize import finalize
from repro.core.noreturn import DeferredCallSite
from repro.core.parallel_parser import (
    FrontierRecord,
    ParallelParser,
    ParseOptions,
)
from repro.errors import RuntimeConfigError
from repro.isa.instructions import ControlFlowKind, Instruction
from repro.runtime.api import Runtime

#: Small-int wire codes for the two enums a fragment's columns carry.
_KINDS = (None, *ControlFlowKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_ETYPES = tuple(EdgeType)
_ETYPE_CODE = {etype: code for code, etype in enumerate(_ETYPES)}


@dataclass
class CFGFragment:
    """Pickle-friendly structural export of one shard's fragment parse.

    Everything is flat — no :class:`Block`/:class:`Edge` object graph
    crosses the process boundary (deep linked graphs recurse past pickle
    limits, and the coordinator rebuilds instructions from the merged
    decode cache anyway).  The three big record sets are parallel integer
    columns (``array`` / ``bytes``; ``zip(*frag.blocks)`` gives rows),
    which pickle as a handful of buffers instead of tens of thousands of
    tuples.
    """

    shard_id: int
    owned: tuple[int, int]
    #: per block in start order: starts, ends (-1 = no end yet),
    #: ``last_kind`` codes (``_KINDS``), ``has_teardown`` flags
    blocks: tuple[array, array, bytes, bytes] = field(
        default_factory=lambda: (array("Q"), array("q"), b"", b""))
    #: the shard's block-ends map in end order: end addresses, block starts
    ends: tuple[array, array] = field(
        default_factory=lambda: (array("Q"), array("Q")))
    #: per edge in per-block creation order: source starts, target
    #: starts, edge-type codes (``_ETYPES``)
    edges: tuple[array, array, bytes] = field(
        default_factory=lambda: (array("Q"), array("Q"), b""))
    #: (addr, name, entry_start, from_symtab, discovered_via, status value)
    functions: list[tuple] = field(default_factory=list)
    jump_tables: list[JumpTableInfo] = field(default_factory=list)
    #: noreturn table: (addr, status value,
    #:   [(caller, block_start, fallthrough, callee)], [tail_waiters])
    noreturn: list[tuple] = field(default_factory=list)
    #: deferred cross-shard operations, in discovery order
    frontier: list[FrontierRecord] = field(default_factory=list)
    #: func addr -> reached block starts (frontier replay task seeds)
    reached: dict[int, list[int]] = field(default_factory=dict)
    n_splits: int = 0


def export_fragment(parser: ParallelParser, shard_id: int) -> CFGFragment:
    """Flatten a fragment-mode parser's state for shipping home."""
    assert parser.owned_range is not None, "export requires fragment mode"
    frag = CFGFragment(shard_id=shard_id, owned=parser.owned_range)
    blocks = [b for _, b in parser.blocks_by_start.sorted_items()]
    frag.blocks = (
        array("Q", [b.start for b in blocks]),
        array("q", [-1 if b.end is None else b.end for b in blocks]),
        bytes([_KIND_CODE[b.last_kind] for b in blocks]),
        bytes([b.has_teardown for b in blocks]))
    edges = [e for b in blocks for e in b.out_edges]
    frag.edges = (array("Q", [e.src.start for e in edges]),
                  array("Q", [e.dst.start for e in edges]),
                  bytes([_ETYPE_CODE[e.etype] for e in edges]))
    ends = parser.block_ends.sorted_items()
    frag.ends = (array("Q", [end for end, _ in ends]),
                 array("Q", [b.start for _, b in ends]))
    frag.functions = [
        (f.addr, f.name, f.entry.start, f.from_symtab, f.discovered_via,
         f.status.value)
        for _, f in parser.functions.sorted_items()
    ]
    frag.jump_tables = [info
                        for _, info in parser.jump_tables.sorted_items()]
    frag.noreturn = [
        (addr, status.value,
         [(s.caller_addr, s.block.start, s.fallthrough, s.callee_addr)
          for s in waiters],
         list(tail_waiters))
        for addr, status, waiters, tail_waiters
        in parser.noreturn.dump_state()
    ]
    frag.frontier, frag.reached = parser.export_frontier()
    frag.n_splits = parser.stats.n_splits
    return frag


class StreamingMerge:
    """Coordinator side of the merge: fold fragments in one at a time.

    :meth:`accept` rebuilds and installs one fragment (steps 1–2); the
    procs backend calls it once per shard, in shard order, after the
    fan-out has collected every delta.  :meth:`finish` runs the parts
    that need *all* fragments — the frontier replay (a record is a step
    into a foreign shard's claim), the wave fixed point and
    finalization — once each, on the coordinator's one thread.

    Per-fragment installation is order-independent: ownership claims
    make block starts, block ends, functions, jump tables and noreturn
    records shard-disjoint, and map installs are insert-only.

    Must be used inside ``rt.run`` on the coordinator runtime.  One
    fragment per shard: a second one for the same shard violates the
    ownership guard and raises :class:`RuntimeConfigError`.
    """

    def __init__(self, binary: LoadedBinary, rt: Runtime,
                 options: ParseOptions | None = None):
        self.rt = rt
        #: the merged-state parser; everything here runs on its thread
        self.parser = ParallelParser(
            binary, rt, replace(options or ParseOptions(),
                                thread_local_cache=True))
        #: merged decode cache: the parser's own, so what the deltas
        #: bring and what the replay decodes sit in one dict.
        self.warm = self.parser.local_decode_cache()
        #: every installed block by start (cross-fragment ownership guard)
        self.blocks: dict[int, Block] = {}
        #: installed fragments by shard id (their frontiers replay in
        #: :meth:`finish`)
        self._frags: dict[int, CFGFragment] = {}

    def accept(self, fragment: CFGFragment,
               insns: dict[int, Instruction] | None = None) -> None:
        """Install one shard's fragment into the merged graph.

        ``insns`` is the shard's decode cache (merged into ``warm``
        before the rebuild resolves instructions from it).
        """
        if insns:
            self.warm.update(insns)
        rt = self.rt
        m = rt.metrics
        parser = self.parser
        with rt.phase("cfg_merge"), m.wall_timer(
                "procs.phase.install_wall_ns"):
            added = _rebuild_fragment_graph(fragment, self.warm,
                                            self.blocks)
            parser.blocks_by_start.install_many(added)

            funcs: dict[int, Function] = {}
            for addr, name, entry_start, from_symtab, via, status \
                    in fragment.functions:
                func = Function(addr, name, self.blocks[entry_start],
                                from_symtab=from_symtab,
                                discovered_via=via)
                func.status = ReturnStatus(status)
                funcs[addr] = func
            parser.functions.install_many(sorted(funcs.items()))

            parser.jump_tables.install_many(sorted(
                (info.block_start, info)
                for info in fragment.jump_tables))

            for addr, status, waiters, tails in fragment.noreturn:
                sites = [DeferredCallSite(caller_addr=c,
                                          block=self.blocks[bs],
                                          fallthrough=ft, callee_addr=ce)
                         for c, bs, ft, ce in waiters]
                parser.noreturn.seed_state(addr, ReturnStatus(status),
                                           sites, tails)

            # A shard registers an end only if it owns the end's last
            # byte, so no two fragments export the same end.
            ends = fragment.ends
            if parser.block_ends.install_many(
                    (end_addr, self.blocks[bstart])
                    for end_addr, bstart in zip(*ends)) < len(ends[0]):
                raise RuntimeConfigError(
                    f"shard ownership violated: a block end exported by "
                    f"shard {fragment.shard_id} and an earlier shard")
            parser.stats.n_splits += fragment.n_splits
            if m.enabled:
                m.inc("procs.merge.blocks", len(added))
                m.inc("procs.merge.edges", len(fragment.edges[0]))
                m.inc("procs.merge.functions", len(funcs))
        self._frags[fragment.shard_id] = fragment

    def finish(self) -> ParsedCFG:
        """Complete the parse: frontier replay, waves, finalization.

        Only callable once every shard's fragment has been accepted:
        a frontier record targets another shard's claim, and the replay
        runs with full ownership.
        """
        rt = self.rt
        m = rt.metrics
        parser = self.parser

        with rt.phase("cfg_frontier"), m.wall_timer(
                "procs.phase.frontier_wall_ns"):
            n = parser.replay_frontier(
                [(frag.frontier, frag.reached)
                 for _, frag in sorted(self._frags.items())])
            m.inc("procs.frontier.records", n)

        if parser.op_trace is not None:
            # Debug hook: the merged-and-replayed graph must satisfy the
            # structural invariants before the wave extends it.  Not
            # earlier — until its deferred "end" record replays, an
            # overrunning block legitimately overlaps its owner's.
            from repro.sanity.cfgsan import run_cfgsan
            run_cfgsan(parser, "shard-merge")

        with rt.phase("cfg_wave"), m.wall_timer("procs.phase.wave_wall_ns"):
            parser.noreturn_waves()

        with rt.phase("cfg_finalize"), m.wall_timer(
                "procs.phase.finalize_wall_ns"):
            return finalize(parser)


def _rebuild_fragment_graph(frag: CFGFragment,
                            insns: dict[int, Instruction],
                            blocks: dict[int, Block]
                            ) -> list[tuple[int, Block]]:
    """Rebuild one fragment's blocks and intra-fragment edges from its
    columns; returns the new ``(start, block)`` pairs in start order.

    Instructions are resolved from the merged decode cache (complete: a
    worker's cache covers every block it exported, including bytes later
    truncated away by splits).
    """
    added: list[tuple[int, Block]] = []
    for start, end, kind, has_teardown in zip(*frag.blocks):
        if start in blocks:
            raise RuntimeConfigError(
                f"shard ownership violated: block {start:#x} exported by "
                f"shard {frag.shard_id} and an earlier shard")
        b = Block(start)
        if end >= 0:
            b.end = end
        b.last_kind = _KINDS[kind]
        b.has_teardown = bool(has_teardown)
        addr = start
        seq = b.insns
        while addr < end:
            insn = insns.get(addr)
            if insn is None:
                break
            seq.append(insn)
            addr += insn.length
        blocks[start] = b
        added.append((start, b))
    for src, dst, etype in zip(*frag.edges):
        edge = Edge(blocks[src], blocks[dst], _ETYPES[etype])
        edge.src.out_edges.append(edge)
        edge.dst.in_edges.append(edge)
    return added
