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
   Shard ownership makes block starts, functions, jump tables and
   noreturn records disjoint by construction; block *ends* are the one
   place shards can disagree (linear overrun past a boundary), so an
   imported end that collides with an installed one is re-registered
   through the parser's real invariant-4 split cascade
   (``_split_collision``), which reconciles the fragments to the serial
   block set; the rest are bulk-installed.
3. **Replay** the frontier records through the real parser machinery —
   tail-call classification, function creation, noreturn deferral and
   jump-table analysis all run exactly as in a serial parse, just
   starting from the merged state.  Replay is *batched*: after every
   install, records whose endpoint regions are all installed drain
   immediately (coordinator ownership restricted to the installed
   claims, so cascades re-defer anything further), overlapping
   cross-shard expansion with still-outstanding shards; the final drain
   at :meth:`StreamingMerge.finish` restores full ownership.  Within a
   batch records replay in discovery order; across batches (one per
   source shard) they replay in parallel (``rt.parallel_for``), safe
   because ownership claims make the record sets disjoint and all
   shared state goes through the accessor-based invariant machinery.
4. Run the wave fixed point — including the cycle rule the fragments
   had to skip, and *sharded* across ownership partitions when more
   than one claim is installed (``resolve_wave(partitions=…)``) — then
   the ordinary ``finalize`` correction phase.

Steps 1–3 run *incrementally*: :class:`StreamingMerge` installs each
fragment the moment its delta lands and drains ready frontier batches
right after, overlapping merge and replay work with the still-running
fan-out; :func:`merge_fragments` is the batch wrapper the
inline/degraded paths use (same code path, installs in shard order).

Correctness rests on the battery-proven schedule independence of the
invariant machinery: a fragment is a prefix of a valid global schedule
(all its steps touch only addresses it owns), so completing the union of
prefixes with the remaining cross-shard work through the same machinery
reproduces the serial fixed point byte-for-byte — the differential
battery (``tests/test_differential_backends.py``) pins exactly that.
"""

from __future__ import annotations

import bisect
import time
from array import array
from dataclasses import dataclass, field, replace
from functools import partial

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
    _TaskCtx,
)
from repro.errors import InvalidInstructionError, RuntimeConfigError
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
    #: 1-based shard attempt this fragment came from.  The retry ladder
    #: can hand the merge duplicate fragments for one shard (a timed-out
    #: attempt whose delta straggles in next to its retry's); the merge
    #: keeps the highest attempt per shard and drops the rest.
    attempt: int = 1


def export_fragment(parser: ParallelParser, shard_id: int,
                    attempt: int = 1) -> CFGFragment:
    """Flatten a fragment-mode parser's state for shipping home."""
    assert parser._owned is not None, "export requires fragment mode"
    frag = CFGFragment(shard_id=shard_id, owned=parser._owned,
                       attempt=attempt)
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
    frag.frontier = list(parser._frontier)
    reached: dict[int, set[int]] = {}
    for ctx in parser._frontier_ctxs:
        if ctx is not None:
            reached.setdefault(ctx.func.addr, set()).update(ctx.reached)
    frag.reached = {addr: sorted(starts)
                    for addr, starts in reached.items()}
    frag.n_splits = parser.stats.n_splits
    return frag


def partition_by_claims(claims: list[tuple[int, int]],
                        funcs: list[Function]
                        ) -> list[list[Function]] | None:
    """Partition functions by shard-claim ownership (entry address).

    The claims partition the address space, so every function —
    including ones minted at the coordinator — maps to exactly one
    partition.  Returns None (serial wave) with fewer than two
    non-empty partitions.
    """
    ranges = sorted(claims)
    if len(ranges) <= 1:
        return None
    los = [lo for lo, _ in ranges]
    parts: list[list[Function]] = [[] for _ in ranges]
    for f in funcs:
        i = bisect.bisect_right(los, f.addr) - 1
        parts[i if i >= 0 else 0].append(f)
    live = [p for p in parts if p]
    return live if len(live) > 1 else None


class StreamingMerge:
    """Incremental coordinator: fold fragments in as they arrive.

    The batch merge waits for every shard before touching the graph; a
    streaming coordinator starts step 2 (rebuild + install) the moment
    the first :class:`ShardDelta` lands, overlapping merge work with
    the still-running fan-out.  The procs backend feeds
    :meth:`accept` from its dispatch loop; :meth:`finish` runs the
    parts that genuinely need *all* fragments — the frontier replay
    (a record can target any foreign shard's blocks), the wave fixed
    point and finalization.

    Per-fragment installation is order-independent: ownership claims
    make block starts, functions, jump tables and noreturn records
    shard-disjoint; map installs are insert-only; and cross-shard end
    collisions go through the invariant-4 cascade, whose outcome is
    schedule-independent (battery-proven).  So installing fragments in
    arrival order equals installing them in shard order.

    Must be used inside ``rt.run`` on the coordinator runtime.  One
    fragment per shard: a duplicate (the retry ladder's straggler case)
    is skipped — callers that can see both attempts dedup first, as
    :func:`merge_fragments` does.
    """

    def __init__(self, binary: LoadedBinary, rt: Runtime,
                 options: ParseOptions | None = None):
        self.binary = binary
        self.rt = rt
        self.opts = replace(options or ParseOptions(),
                            thread_local_cache=True)
        #: installed shard claims, in install order: early drains own
        #: exactly their union, the sharded wave partitions by them.
        self.claims: list[tuple[int, int]] = []
        #: merged decode cache; grows as deltas arrive.  The parser
        #: holds this same dict, so later updates are visible to it.
        self.warm: dict[int, Instruction] = {}
        #: every installed block by start (cross-fragment ownership guard)
        self.blocks: dict[int, Block] = {}
        self._parser: ParallelParser | None = None
        self._installed: dict[int, int] = {}  # shard_id -> attempt
        self._frag_by_sid: dict[int, CFGFragment] = {}
        #: undrained frontier records per source shard
        self._pending: dict[int, list[FrontierRecord]] = {}
        #: persistent replay contexts, one per (shard, function) — a
        #: shard's records may drain across several batches; reusing the
        #: context preserves the "at least what the shard task had"
        #: seeding across them.
        self._replay_ctxs: dict[tuple[int, int], _TaskCtx] = {}

    @property
    def parser(self) -> ParallelParser:
        """The merged-state parser (created on first use).

        Lazy because the parser treats an empty warm cache as "no warm
        cache" — constructing it after the first delta's instructions
        land keeps the shared ``warm`` dict wired in.
        """
        if self._parser is None:
            p = ParallelParser(self.binary, self.rt, self.opts,
                               warm_cache=self.warm)
            # Set exclusively here, so the serial/vtime/threads waves
            # stay unpartitioned.  Bound to the list, not to this
            # object: no parser <-> merge reference cycle.
            p.wave_partitions = partial(partition_by_claims, self.claims)
            self._parser = p
        return self._parser

    def accept(self, fragment: CFGFragment,
               insns: dict[int, Instruction] | None = None,
               streamed: bool = False) -> bool:
        """Install one shard's fragment into the merged graph.

        ``insns`` is the shard's decode cache (merged into the warm
        cache before the rebuild resolves instructions from it);
        ``streamed`` marks an install that overlapped the fan-out, for
        the ``procs.overlap.*`` metrics.  Returns False (and installs
        nothing) for a shard that already has a fragment installed.
        """
        if fragment.shard_id in self._installed:
            return False
        if insns:
            self.warm.update(insns)
        rt = self.rt
        m = rt.metrics
        parser = self.parser
        with rt.phase("cfg_merge"):
            t0 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
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

            # Cross-shard block-end reconciliation.  Ends nobody has
            # registered yet go in in bulk; where shards disagree (one
            # shard's linear overrun straddles another's blocks) the end
            # is re-registered through the real invariant-4 cascade,
            # which splits exactly as concurrent registration would
            # have.  A cascade only ever re-registers at smaller
            # addresses, so installing the free ends first leaves it the
            # state it would have met end by end.
            block_ends = parser.block_ends
            free, taken = [], []
            for end_addr, bstart in zip(*fragment.ends):
                (taken if end_addr in block_ends else free).append(
                    (end_addr, self.blocks[bstart]))
            block_ends.install_many(free)
            splits_before = parser.stats.n_splits
            for end_addr, blk in taken:
                _install_end(parser, blk, end_addr)
            end_splits = parser.stats.n_splits - splits_before
            parser.stats.n_splits += fragment.n_splits
            if m.enabled:
                wall = time.perf_counter_ns() - t0  # sanity: allow(wall-clock) coordinator-side metric
                m.inc("procs.merge.blocks", len(added))
                m.inc("procs.merge.edges", len(fragment.edges[0]))
                m.inc("procs.merge.functions", len(funcs))
                m.inc("procs.merge.end_splits", end_splits)
                m.observe("procs.phase.install_wall_ns", wall)
                if streamed:
                    m.inc("procs.overlap.fragments")
                    m.observe("procs.overlap.install_wall_ns", wall)
                else:
                    m.inc("procs.overlap.batch_fragments")
        self._installed[fragment.shard_id] = fragment.attempt
        self._frag_by_sid[fragment.shard_id] = fragment
        self._pending[fragment.shard_id] = list(fragment.frontier)
        self.claims.append(fragment.owned)
        # Batched early drain: replay every pending record whose endpoint
        # regions are all installed, overlapping cross-shard expansion
        # with still-outstanding shards.
        with rt.phase("cfg_frontier"):
            t1 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            n, batches = self._drain_ready(final=False)
            if m.enabled and n:
                wall = time.perf_counter_ns() - t1  # sanity: allow(wall-clock) coordinator-side metric
                m.inc("procs.frontier.records", n)
                m.inc("procs.frontier.early_records", n)
                m.inc("procs.frontier.batches", batches)
                m.observe("procs.phase.frontier_wall_ns", wall)
        return True

    def finish(self) -> ParsedCFG:
        """Complete the parse: final frontier drain, waves, finalization.

        Only callable once every shard's fragment has been accepted —
        the final drain restores full ownership, so any record (or
        re-deferred cascade step) still pending replays unconditionally.
        """
        rt = self.rt
        m = rt.metrics
        parser = self.parser

        if getattr(parser, "op_trace", None) is not None:
            # Debug hook: the merged-from-shards graph must satisfy the
            # structural invariants before the remaining replay extends it.
            from repro.sanity.cfgsan import run_cfgsan
            run_cfgsan(parser, "shard-merge")

        with rt.phase("cfg_frontier"):
            t1 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            n, batches = self._drain_ready(final=True)
            if m.enabled:
                wall = time.perf_counter_ns() - t1  # sanity: allow(wall-clock) coordinator-side metric
                m.inc("procs.frontier.records", n)
                if batches:
                    m.inc("procs.frontier.batches", batches)
                m.observe("procs.phase.frontier_wall_ns", wall)

        with rt.phase("cfg_wave"):
            t2 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            parser._noreturn_waves()
            if m.enabled:
                m.observe("procs.phase.wave_wall_ns",
                          time.perf_counter_ns() - t2)  # sanity: allow(wall-clock) coordinator-side metric

        with rt.phase("cfg_finalize"):
            t3 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            cfg = finalize(parser, incremental=True)
            if m.enabled:
                m.observe("procs.phase.finalize_wall_ns",
                          time.perf_counter_ns() - t3)  # sanity: allow(wall-clock) coordinator-side metric
        return cfg

    # ------------------------------------------------- batched frontier drains

    def _insn_at(self, addr: int) -> Instruction:
        """Resolve an instruction for replay: merged warm cache, then the
        coordinator's own decode cache (cascade-parsed blocks), then a
        direct deterministic decode."""
        insn = self.warm.get(addr)
        if insn is None:
            insn = self.parser.local_decode_cache().get(addr)
        if insn is None:
            insn = self.parser.decoder.decode_at(addr)
        return insn

    def _block_at(self, start: int) -> Block:
        blk = self.blocks.get(start)
        if blk is None:
            blk = self.parser.blocks_by_start.get(start)
        assert blk is not None, f"replay source block {start:#x} missing"
        return blk

    def _record_ready(self, rec: FrontierRecord) -> bool:
        """True when every address this record's replay step itself
        touches lies in an installed claim (the cascade it triggers
        re-defers anything further via the restricted ownership)."""
        foreign = self.parser._foreign
        if rec.kind in ("direct", "intra"):
            return not foreign(rec.target)
        if rec.kind == "resume":
            return not foreign(rec.site[2])
        if rec.kind == "end":
            return not foreign(rec.last_addr)
        try:
            insn = self._insn_at(rec.last_addr)  # cond | call
        except InvalidInstructionError:
            # Not classifiable yet: stays deferred until the final drain.
            return False
        if rec.kind == "call":
            return not foreign(insn.direct_target)
        return (not foreign(insn.direct_target)
                and not foreign(insn.end))

    def _drain_ready(self, final: bool) -> tuple[int, int]:
        """Replay every ready pending record; returns (records, batches).

        Ownership is restricted to the union of installed claims while
        shards are outstanding (``final=False``), so replay cascades
        re-defer any step into a not-yet-installed region instead of
        creating blocks a later fragment will export.  The final drain
        restores full ownership first.
        """
        parser = self.parser
        parser.set_owned_ranges(None if final else self.claims)
        batches: list[tuple[CFGFragment, list[FrontierRecord]]] = []
        for sid in sorted(self._pending):
            recs = self._pending[sid]
            if not recs:
                continue
            if final:
                ready, rest = recs, []
            else:
                ready, rest = [], []
                for rec in recs:
                    (ready if self._record_ready(rec) else rest).append(rec)
            if ready:
                self._pending[sid] = rest
                batches.append((self._frag_by_sid[sid], ready))
        own = self._take_ready_own(final)
        if not batches and not own:
            return 0, 0
        self._replay_batches(batches, own)
        n = sum(len(r) for _, r in batches) + len(own)
        return n, len(batches) + (1 if own else 0)

    def _take_ready_own(self, final: bool
                        ) -> list[tuple[FrontierRecord, _TaskCtx | None]]:
        """Pop coordinator-re-deferred records that became ready.

        Cascades during early drains defer steps into uninstalled
        regions through the ordinary ``_defer_frontier`` path; their
        live contexts ride along so a later drain resumes them exactly
        where they stopped.
        """
        parser = self.parser
        if not parser._frontier:
            return []
        own: list[tuple[FrontierRecord, _TaskCtx | None]] = []
        keep_r: list[FrontierRecord] = []
        keep_c: list[_TaskCtx | None] = []
        for rec, ctx in zip(parser._frontier, parser._frontier_ctxs):
            if final or self._record_ready(rec):
                own.append((rec, ctx))
            else:
                keep_r.append(rec)
                keep_c.append(ctx)
        parser._frontier = keep_r
        parser._frontier_ctxs = keep_c
        return own

    def _replay_batches(self, batches, own) -> None:
        """Replay drained batches through the real parser machinery.

        Within a batch records replay in discovery order; across batches
        (one per source shard — their records were produced inside
        disjoint claims) they replay under ``rt.parallel_for``, exactly
        like the old whole-frontier replay but per drain.  Tasks the
        replay discovers spawn into the shared group (or round queue) as
        in a live parse, and the drain quiesces before returning.
        """
        parser = self.parser
        rt = parser.rt
        group = rt.task_group() if parser.opts.task_parallel else None
        parser._group = group
        try:
            if group is not None and len(batches) > 1:
                rt.parallel_for(
                    batches,
                    lambda b: self._replay_batch(b[0], b[1]),
                    sort_key=lambda b: b[0].shard_id)
            else:
                for frag, recs in batches:
                    self._replay_batch(frag, recs)
            for rec, ctx in own:
                self._replay_own(rec, ctx)
            if group is not None:
                group.wait()
            else:
                current = parser._round_discovered
                while current:
                    parser._round_discovered = []
                    rt.parallel_for(
                        current,
                        lambda fs: parser._traverse_task(fs[0], fs[1]))
                    current = parser._round_discovered
        finally:
            parser._group = None

    def _replay_batch(self, frag: CFGFragment,
                      recs: list[FrontierRecord]) -> None:
        parser = self.parser
        for rec in recs:
            if rec.kind == "resume":
                c, bs, ft, ce = rec.site
                parser._resume_call_ft(DeferredCallSite(
                    caller_addr=c, block=self._block_at(bs),
                    fallthrough=ft, callee_addr=ce))
                continue
            key = (frag.shard_id, rec.func_addr)
            ctx = self._replay_ctxs.get(key)
            if ctx is None:
                func = parser.functions.get(rec.func_addr)
                assert func is not None, (
                    f"frontier record for unknown function "
                    f"{rec.func_addr:#x}")
                ctx = _TaskCtx(func=func)
                ctx.reached.update(frag.reached.get(rec.func_addr, ()))
                ctx.reached.add(rec.func_addr)
                self._replay_ctxs[key] = ctx
            self._replay_record(ctx, rec)
            parser._drain(ctx)

    def _replay_own(self, rec: FrontierRecord,
                    ctx: _TaskCtx | None) -> None:
        parser = self.parser
        if rec.kind == "resume":
            c, bs, ft, ce = rec.site
            parser._resume_call_ft(DeferredCallSite(
                caller_addr=c, block=self._block_at(bs),
                fallthrough=ft, callee_addr=ce))
            return
        if ctx is None:
            func = parser.functions.get(rec.func_addr)
            assert func is not None
            ctx = _TaskCtx(func=func)
            ctx.reached.add(rec.func_addr)
        self._replay_record(ctx, rec)
        parser._drain(ctx)

    def _replay_record(self, ctx: _TaskCtx, rec: FrontierRecord) -> None:
        parser = self.parser
        if rec.kind == "end":
            parser._register_end(ctx, self._block_at(rec.block_start),
                                 rec.end_addr, self._insn_at(rec.last_addr))
            return
        src = parser.block_ends.get(rec.end_addr)
        if src is None:
            src = self._block_at(rec.block_start)
        if rec.kind == "direct":
            parser._direct_branch(ctx, src, rec.target)
        elif rec.kind == "cond":
            parser._cond_branch(ctx, src, self._insn_at(rec.last_addr))
        elif rec.kind == "call":
            parser._call(ctx, src, self._insn_at(rec.last_addr))
        else:  # intra
            parser._add_intra_target(ctx, src, rec.target,
                                     EdgeType(rec.etype))


def merge_fragments(binary: LoadedBinary, rt: Runtime,
                    options: ParseOptions | None,
                    fragments: list[CFGFragment],
                    warm_cache: dict[int, Instruction]) -> ParsedCFG:
    """Stitch shard fragments into the serial fixed point (batch form).

    The thin non-streaming wrapper over :class:`StreamingMerge`: dedup
    duplicate-attempt fragments from the retry ladder (highest attempt
    wins — the one the coordinator actually validated last), install
    them all, finish.  Must be called inside ``rt.run`` on the
    coordinator runtime.
    """
    merge = StreamingMerge(binary, rt, options)
    merge.warm.update(warm_cache)
    m = rt.metrics
    by_shard: dict[int, CFGFragment] = {}
    for f in fragments:
        cur = by_shard.get(f.shard_id)
        if cur is None or f.attempt > cur.attempt:
            by_shard[f.shard_id] = f
    if m.enabled and len(by_shard) != len(fragments):
        m.inc("procs.merge.duplicate_fragments",
              len(fragments) - len(by_shard))
    for sid in sorted(by_shard):
        merge.accept(by_shard[sid])
    return merge.finish()


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


def _install_end(parser: ParallelParser, block: Block, end: int) -> None:
    """Register an imported block end, cascading splits on collision.

    Mirrors ``_register_end``'s loop minus edge creation (the owning
    shard already created this end's edges; losers in the cascade carry
    theirs along exactly as invariant 4 moves them).
    """
    pending: tuple[Block, int] | None = (block, end)
    while pending is not None:
        blk, e = pending
        pending = None
        with parser.block_ends.accessor(e) as acc:
            if acc.created:
                acc.value = blk
                blk.end = e
                continue
            if acc.value is blk:
                continue
            nxt_blk, nxt_end, _ = parser._split_collision(blk, e, acc)
            pending = (nxt_blk, nxt_end)


