"""Parallel CFG construction (Section 5 of the paper).

Implements Listing 2's three stages — parallel function initialization,
parallel control-flow traversal, CFG finalization — on top of the runtime
abstraction, with the five invariants of Section 5.2:

1. **Block creation**: at most one block per start address (insert-if-
   absent on the blocks-by-start map; the winning task parses the block).
2. **Block end**: at most one block per end address; the check is deferred
   until a control-flow instruction, so there is one global map lookup per
   *control-flow* instruction, not per instruction.
3. **Edge creation**: the task that registers a block's end creates its
   outgoing edges, while holding the end accessor.
4. **Block split**: tasks that lose the end registration split blocks with
   the eager algorithm — each iteration re-registers at a strictly smaller
   end address, so the algorithm converges (and the accessor order is
   strictly decreasing, so it cannot deadlock).
5. **Function creation**: at most one function per entry address.

Non-returning dependencies are handled by eager notification (the first
``RET`` found releases waiting call sites immediately) plus a wave-level
fixed point for statuses that need whole-closure information (shared
blocks, call chains, cycles).  Jump tables are analyzed with union
semantics and re-analyzed after a function gains more control-flow paths
(the fixed-point refinement of Section 5.3).

The procs backend's frontier protocol lives here too: a parser with an
ownership range defers each expansion step into a foreign shard as a
:class:`FrontierRecord`, and the coordinator's merged parser runs those
records through the same code paths (:meth:`ParallelParser.
replay_frontier`) before its own wave and finalization.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.binary.loader import LoadedBinary
from repro.core.cfg import (
    INTRA_EDGES,
    Block,
    Edge,
    EdgeType,
    Function,
    JumpTableInfo,
    ParseStats,
    ParsedCFG,
    ReturnStatus,
)
from repro.core.finalize import _function_closure, finalize, return_summary
from repro.core.jump_table import JumpTableOptions, analyze_jump_table
from repro.core.noreturn import DeferredCallSite, NoReturnState
from repro.isa.instructions import ControlFlowKind, Instruction, has_teardown
from repro.runtime.api import Runtime
from repro.runtime.conchash import SharedMap

#: control flow whose successors are known at decode time; in fragment
#: mode a foreign successor defers the block's whole edge creation.
_DIRECT_KINDS = frozenset((ControlFlowKind.DIRECT_JUMP,
                           ControlFlowKind.COND_JUMP, ControlFlowKind.CALL))

#: Bound on the noreturn waves of one parse (:meth:`noreturn_waves`).
MAX_WAVES = 60


@dataclass
class ParseOptions:
    """Knobs for the parallel parser (ablation points are called out)."""

    #: eager noreturn notification (Section 5.3) vs wave-boundary only.
    eager_noreturn_notify: bool = True
    #: task parallelism with spawn-on-discovery (Section 6.3) vs
    #: round-based parallel-for waves (Listing 2's basic shape).
    task_parallel: bool = True
    #: process large functions first at the initial spawn (Listing 7).
    sort_functions: bool = True
    #: thread-local decode cache (Section 6.3).
    thread_local_cache: bool = True
    jt_options: JumpTableOptions = field(default_factory=JumpTableOptions)
    #: record an operation trace and validate the structural invariants
    #: at quiesced points (finalize, shard merge) — see
    #: :mod:`repro.sanity.cfgsan`.
    sanitize: bool = False


@dataclass
class _TaskCtx:
    """Per-traversal-task state (function-local, no synchronization)."""

    func: Function
    work: list[Block] = field(default_factory=list)
    reached: set[int] = field(default_factory=set)
    jt_pending: list[Block] = field(default_factory=list)
    jt_targets_seen: dict[int, set[int]] = field(default_factory=dict)
    #: blocks already scanned for reachable returns (shared-code regions).
    scanned: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class FrontierRecord:
    """One deferred cross-shard operation (procs backend fragment mode).

    A shard worker parsing with an ownership range records — instead of
    executing — every expansion step whose target address belongs to
    another shard.  The record is flat ints/strings so it pickles without
    dragging the block graph along; the coordinator hands it back to
    :meth:`ParallelParser.replay_frontier`, which runs the deferred step
    through the same code path a live parse would have, in list order —
    discovery order.  Kinds:

    - ``end``: a block end past the claim (``_register_end``);
    - ``edges``: a direct jump, conditional jump or call with a foreign
      successor (``_create_edges``);
    - ``intra``: one intra-procedural edge into a foreign block
      (``_add_intra_target``);
    - ``resume``: a released call fall-through into a foreign block
      (``_resume_call_ft``).
    """

    kind: str                     #: end | edges | intra | resume
    func_addr: int                #: the traversal task's function
    block_start: int | None       #: source block at record time
    end_addr: int | None          #: the source block's registered end
    target: int | None            #: edge target (intra)
    last_addr: int | None         #: CF instruction address (end/edges)
    etype: str | None             #: EdgeType value (intra)
    #: (caller_addr, block_start, fallthrough, callee_addr) for resume
    site: tuple[int, int, int, int] | None


class ParallelParser:
    """One-shot parser for one binary on one runtime."""

    def __init__(self, binary: LoadedBinary, rt: Runtime,
                 options: ParseOptions | None = None,
                 seed_entries: list[int] | None = None,
                 owned_range: tuple[int, int] | None = None):
        self.binary = binary
        self.rt = rt
        self.opts = options or ParseOptions()
        self.decoder = binary.decoder
        self.image = binary.image
        #: restrict stage 1 to these entries (procs backend shards);
        #: None means the binary's full ``F0``.
        self.seed_entries = seed_entries
        #: shard ownership claim ``[lo, hi)`` (procs backend fragment
        #: mode): expansion steps targeting a foreign address are recorded
        #: in ``_frontier`` instead of executed.  None = own everything.
        self.owned_range = owned_range
        self._frontier: list[FrontierRecord] = []
        self._frontier_ctxs: list[_TaskCtx | None] = []
        self.blocks_by_start: SharedMap[int, Block] = \
            rt.make_map("blocks")
        self.block_ends: SharedMap[int, Block] = \
            rt.make_map("block_ends")
        self.functions: SharedMap[int, Function] = \
            rt.make_map("functions")
        self.jump_tables: SharedMap[int, JumpTableInfo] = \
            rt.make_map("jump_tables")
        # Per-edge / per-block counters, bound once (see metrics.bind).
        m = rt.metrics
        self._n_edges = m.bind("parser.edges_created")
        self._n_blocks = m.bind("parser.blocks_created")
        self._n_functions = m.bind("parser.functions_created")
        self._n_splits = m.bind("parser.block_splits")
        self.noreturn = NoReturnState(
            rt, eager_notify=(self.opts.eager_noreturn_notify
                              and self.opts.task_parallel))
        self.stats = ParseStats()
        #: operation trace for the cfgsan checker (None = not recording).
        #: Entries are flat tuples: ("OIEC", block, targets),
        #: ("OCFEC", block, callee, status), ("OFEI", addr, via),
        #: ("SPLIT", loser_start, old_end, new_end).
        self.op_trace: list[tuple] | None = (
            [] if self.opts.sanitize else None)
        self._tl = threading.local()
        self._group = None            # the active _quiesce task group
        #: round mode only: traversals discovered during the current round
        self._round_discovered: list[tuple[Function, list[Block]]] = []

    # ------------------------------------------------------------- public API

    def local_decode_cache(self) -> dict[int, Instruction]:
        """The calling thread's decode cache (complete after a serial
        parse — this is the shard delta the procs backend ships home)."""
        tl = self._tl
        try:
            return tl.insns
        except AttributeError:
            cache = tl.insns = {}
            return cache

    def execute(self) -> ParsedCFG:
        """Run all three stages; must be called inside ``rt.run``."""
        self.execute_fragment()
        with self.rt.phase("cfg_finalize"):
            return finalize(self)

    def execute_fragment(self) -> None:
        """Stages 1–2: function initialization, traversal, noreturn waves.

        With an ownership range (procs-backend workers) traversal defers
        every cross-shard step into the frontier, the wave fixed point
        runs without the cycle rule (an UNSET→NORETURN conclusion is
        unsound on a partial closure), and the coordinator completes the
        parse from the exported fragment (``repro.core.shard_merge``).
        Must be called inside ``rt.run``.
        """
        rt = self.rt
        with rt.phase("cfg_init"):
            initial = self._init_functions()
        with rt.phase("cfg_traversal"):
            self._traverse(initial)
            self.noreturn_waves()

    # ------------------------------------------------- shard frontier (procs)

    def _foreign(self, addr: int) -> bool:
        """True if ``addr`` is owned by another shard (fragment mode)."""
        owned = self.owned_range
        if owned is not None:
            lo, hi = owned
            return not (lo <= addr < hi)
        return False

    def export_frontier(self) -> tuple[list[FrontierRecord],
                                       dict[int, list[int]]]:
        """The deferred records in discovery order, and per function the
        sorted block starts its deferring tasks had reached — one shard's
        input to :meth:`replay_frontier`."""
        reached: dict[int, set[int]] = {}
        for ctx in self._frontier_ctxs:
            if ctx is not None:
                reached.setdefault(ctx.func.addr, set()).update(ctx.reached)
        return (list(self._frontier),
                {addr: sorted(starts) for addr, starts in reached.items()})

    def replay_frontier(self, shipped: list[tuple[list[FrontierRecord],
                                                  dict[int, list[int]]]]
                        ) -> int:
        """Run every shard's deferred steps on this (merged, unowned)
        parser; returns the number of records replayed.

        ``shipped`` holds one :meth:`export_frontier` result per shard,
        in shard order; records replay in discovery order within a shard.
        Each record takes the code path it was deferred from, starting
        from the merged state, and the traversals it discovers run to
        quiescence before this returns.
        """
        def replay() -> None:
            for records, reached in shipped:
                self._replay_shard(records, reached)

        self._quiesce(replay)
        return sum(len(records) for records, _ in shipped)

    def _replay_shard(self, records: list[FrontierRecord],
                      reached: dict[int, list[int]]) -> None:
        # One context per function, seeded with at least what the
        # shard's traversal task had reached.
        ctxs: dict[int, _TaskCtx] = {}
        for rec in records:
            if rec.kind == "resume":
                c, bs, ft, ce = rec.site
                self._resume_call_ft(DeferredCallSite(
                    caller_addr=c, block=self._block_at(bs),
                    fallthrough=ft, callee_addr=ce))
                continue
            ctx = ctxs.get(rec.func_addr)
            if ctx is None:
                func = self.functions.get(rec.func_addr)
                assert func is not None, (
                    f"frontier record for unknown function "
                    f"{rec.func_addr:#x}")
                ctx = ctxs[rec.func_addr] = _TaskCtx(func=func)
                ctx.reached.update(reached.get(rec.func_addr, ()))
                ctx.reached.add(rec.func_addr)
            if rec.kind == "end":
                self._register_end(ctx, self._block_at(rec.block_start),
                                   rec.end_addr, self._insn_at(rec.last_addr))
            else:
                src = self.block_ends.get(rec.end_addr)
                if src is None:
                    src = self._block_at(rec.block_start)
                if rec.kind == "edges":
                    self._create_edges(ctx, src, self._insn_at(rec.last_addr))
                else:  # intra
                    self._add_intra_target(ctx, src, rec.target,
                                           EdgeType(rec.etype))
            self._drain(ctx)

    def _insn_at(self, addr: int) -> Instruction:
        """A replayed record's instruction: the decode cache (which the
        merge fills with every shard's), else a direct decode."""
        insn = self.local_decode_cache().get(addr)
        if insn is None:
            insn = self.decoder.decode_at(addr)
        return insn

    def _block_at(self, start: int) -> Block:
        blk = self.blocks_by_start.get(start)
        assert blk is not None, f"replay source block {start:#x} missing"
        return blk

    def _defer_frontier(self, ctx: _TaskCtx | None, kind: str,
                        block: Block | None = None,
                        target: int | None = None,
                        last: Instruction | None = None,
                        etype: EdgeType | None = None,
                        site: DeferredCallSite | None = None) -> None:
        """Record a cross-shard expansion step for coordinator replay."""
        self.rt.metrics.inc("parser.frontier_deferred")
        self._frontier.append(FrontierRecord(
            kind=kind,
            func_addr=(ctx.func.addr if ctx is not None
                       else site.caller_addr),
            block_start=block.start if block is not None else None,
            end_addr=block.end if block is not None else None,
            target=target,
            last_addr=last.address if last is not None else None,
            etype=etype.value if etype is not None else None,
            site=((site.caller_addr, site.block.start, site.fallthrough,
                   site.callee_addr) if site is not None else None),
        ))
        self._frontier_ctxs.append(ctx)

    # -------------------------------------------------------------- stage 1

    def _init_functions(self) -> list[tuple[Function, list[Block]]]:
        """Parallel InitFunctions: one function per symtab/unwind entry."""
        symtab = self.binary.symtab
        name_of = {}
        size_of = {}
        for s in symtab.functions():
            name_of.setdefault(s.offset, s.name)
            size_of[s.offset] = max(size_of.get(s.offset, 0), s.size)
        for s in self.binary.dynsym.functions():
            name_of.setdefault(s.offset, s.name)
        entries = (self.binary.entry_addresses()
                   if self.seed_entries is None
                   else sorted(self.seed_entries))

        results: list[tuple[Function, list[Block]]] = []

        def init_one(addr: int) -> None:
            name = name_of.get(addr, f"func_{addr:x}")
            func, created_f, seeds = self._make_function(addr, name,
                                                         via="symtab")
            if created_f:
                results.append((func, seeds))

        self.rt.parallel_for(entries, init_one)
        if self.opts.sort_functions:
            # Largest symbols first: the load-balancing sort of Listing 7.
            results.sort(key=lambda fs: (-size_of.get(fs[0].addr, 0),
                                         fs[0].addr))
        else:
            results.sort(key=lambda fs: fs[0].addr)
        return results

    # -------------------------------------------------------------- stage 2

    def _quiesce(self, work: Callable[[], None]) -> None:
        """Run ``work``, then every traversal it discovers, to quiescence.

        With ``task_parallel`` (spawn-on-discovery, Section 6.3) the work
        and everything it spawns are tasks of one group; otherwise
        discovered traversals queue up and run in rounds of
        ``parallel_for`` (Listing 2's loop) until a round discovers none.
        """
        rt = self.rt
        if self.opts.task_parallel:
            group = self._group = rt.task_group()
            work()
            group.wait()
            return
        self._round_discovered = []
        work()
        while self._round_discovered:
            current, self._round_discovered = self._round_discovered, []
            rt.parallel_for(current, lambda fs: self._traverse_task(*fs))

    def _traverse(self, initial: list[tuple[Function, list[Block]]]
                  ) -> None:
        """Stage 2: a traversal task per function, spawned on discovery.

        Initial tasks are fanned out as a splitting tree so launching
        thousands of functions isn't itself a serial phase.
        """
        def spawn_range(lo: int, hi: int) -> None:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                self._group.spawn(spawn_range, mid, hi)
                hi = mid
            if hi > lo:
                self._traverse_task(*initial[lo])

        def start() -> None:
            if not self.opts.task_parallel:
                self._round_discovered.extend(initial)
            elif initial:
                spawn_range(0, len(initial))

        self._quiesce(start)
        # spawn_range refers to itself and to this parser: break that
        # cycle so a dropped parser is freed by reference counting.
        del spawn_range

    def _traverse_task(self, func: Function, seeds: list[Block]) -> None:
        """ControlFlowTraversal(f) — Listing 3."""
        ctx = _TaskCtx(func=func)
        ctx.work.extend(seeds)
        ctx.reached.add(func.addr)
        self._drain(ctx)

    def _drain(self, ctx: _TaskCtx) -> None:
        # A task stays on one thread: resolve its decode cache once.
        cache = (self.local_decode_cache()
                 if self.opts.thread_local_cache else None)
        while True:
            while ctx.work:
                block = ctx.work.pop()
                self._parse_block(ctx, block, cache)
            if not self._retry_jump_tables(ctx):
                break

    # -- block parsing -------------------------------------------------------

    def _parse_block(self, ctx: _TaskCtx, block: Block,
                     cache: dict[int, Instruction] | None) -> None:
        ctx.reached.add(block.start)
        insns, ended_cf = self._linear_parse(block.start, cache)
        if not insns:
            block.end = block.start  # degenerate: undecodable candidate
            return
        block.insns = insns
        block.has_teardown = has_teardown(insns)
        last = insns[-1] if ended_cf else None
        end = insns[-1].end
        if last is not None and self._foreign(last.address):
            # Linear overrun past the shard boundary: the control-flow
            # instruction belongs to another shard, which may parse the
            # same bytes in its own fragment.  Claim rule: only the CF
            # instruction's owner registers this end (invariants 2–3), so
            # edges are created exactly once; we keep the block with its
            # end *unregistered* and defer the whole registration for
            # coordinator replay, where it reconciles against the owner's
            # blocks through the ordinary split cascade.
            block.end = end
            self._defer_frontier(ctx, "end", block=block, last=last)
            return
        self._register_end(ctx, block, end, last)

    def _linear_parse(self, start: int,
                      cache: dict[int, Instruction] | None
                      ) -> tuple[list[Instruction], bool]:
        """linearParsing; ``cache`` is the calling thread's decode cache
        (Section 6.3), or None to decode every block afresh."""
        insns, ended_cf, misses = self.decoder.scan_run(start, cache)
        rt = self.rt
        rt.charge(rt.cost.decode_insn * misses)
        return insns, ended_cf

    # -- invariants 2-4: end registration, edge creation, splitting ------------

    def _register_end(self, ctx: _TaskCtx | None, block: Block, end: int,
                      last: Instruction | None) -> None:
        while True:
            with self.block_ends.accessor(end) as acc:
                if acc.created:
                    # Invariant 2 won: this block owns the end; invariant
                    # 3: we create its outgoing edges, under the accessor.
                    acc.value = block
                    block.end = end
                    if last is not None:
                        block.last_kind = last.cf_kind
                        self._create_edges(ctx, block, last)
                    return
                if acc.value is block:
                    return
                # A split loser re-registers at a smaller end, where its
                # truncated instruction list ends without a CF instruction.
                block, end = self._split_collision(block, end, acc)
                last = None

    def install_end(self, block: Block, end: int) -> None:
        """Register an imported block end (procs structural merge),
        cascading splits on collision.

        ``_register_end`` minus edge creation: the owning shard already
        created this end's edges, and losers in the cascade carry theirs
        along exactly as invariant 4 moves them.  This is how the merge
        reconciles shards that disagree about where a region's blocks end.
        """
        self._register_end(None, block, end, None)

    def _split_collision(self, blk: Block, e: int, acc
                         ) -> tuple[Block, int]:
        """Invariant 4: two distinct blocks claim end ``e`` — split.

        ``acc`` is the held accessor for ``block_ends[e]``.  Returns the
        (block, end) pair that must re-register at a strictly smaller end
        address.
        """
        rt = self.rt
        other = acc.value
        rt.charge(rt.cost.block_split)
        self._n_splits.inc()
        self.stats.n_splits += 1
        trace = self.op_trace
        if trace is not None:
            loser = other if other.start < blk.start else blk
            winner_start = blk.start if loser is other else other.start
            trace.append(("SPLIT", loser.start, e, winner_start))
        if other.start < blk.start:
            # Split the incumbent: it keeps [xo, xb); we take over
            # the end registration and inherit its out-edges.
            acc.value = blk
            blk.end = e
            blk.last_kind = other.last_kind
            moved = other.out_edges
            other.out_edges = []
            for edge in moved:
                edge.src = blk
            blk.out_edges.extend(moved)
            other.truncate(blk.start)
            self._link(other, blk, EdgeType.FALLTHROUGH)
            return other, blk.start
        # We are the longer block: truncate ourselves and
        # re-register at the incumbent's start.
        blk.truncate(other.start)
        self._link(blk, other, EdgeType.FALLTHROUGH)
        return blk, other.start

    def _link(self, src: Block, dst: Block, etype: EdgeType) -> Edge:
        rt = self.rt
        rt.charge(rt.cost.edge_create)
        self._n_edges.inc()
        edge = Edge(src, dst, etype)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        return edge

    def _ensure_block(self, start: int) -> tuple[Block, bool]:
        """Invariant 1: create-if-absent; the winner parses the block."""
        rt = self.rt
        with self.blocks_by_start.accessor(start) as acc:
            if acc.created:
                rt.charge(rt.cost.block_create)
                self._n_blocks.inc()
                acc.value = Block(start)
                return acc.value, True
            return acc.value, False

    def _make_function(self, addr: int, name: str, via: str
                       ) -> tuple[Function, bool, list[Block]]:
        """Invariant 5: create-if-absent function plus its entry block."""
        rt = self.rt
        entry, created_b = self._ensure_block(addr)
        with self.functions.accessor(addr) as acc:
            if acc.created:
                rt.charge(rt.cost.func_create)
                self._n_functions.inc()
                func = Function(addr, name, entry,
                                from_symtab=(via == "symtab"),
                                discovered_via=via)
                acc.value = func
                self.noreturn.init_function(func)
                if self.op_trace is not None:
                    self.op_trace.append(("OFEI", addr, via))
                return func, True, [entry] if created_b else []
            return acc.value, False, [entry] if created_b else []

    # -- invariant 3: the edge creation cases of Listing 3 ---------------------

    def _create_edges(self, ctx: _TaskCtx, block: Block,
                      last: Instruction) -> None:
        kind = last.cf_kind
        if (self.owned_range is not None and kind in _DIRECT_KINDS
                and (self._foreign(last.direct_target)
                     or (kind is ControlFlowKind.COND_JUMP
                         and self._foreign(last.end)))):
            # A foreign successor: the coordinator replays this whole
            # expansion — tail-call classification against the merged
            # function map, function creation, both conditional edges,
            # the call fall-through deferral — exactly once.
            self._defer_frontier(ctx, "edges", block=block, last=last)
            return
        if kind is ControlFlowKind.DIRECT_JUMP:
            self._direct_branch(ctx, block, last.direct_target)
        elif kind is ControlFlowKind.COND_JUMP:
            self._cond_branch(ctx, block, last)
        elif kind is ControlFlowKind.CALL:
            self._call(ctx, block, last)
        elif kind is ControlFlowKind.INDIRECT_CALL:
            # Unknown callee: assume it returns (as Dyninst does).
            self._add_intra_target(ctx, block, last.end, EdgeType.CALL_FT)
        elif kind is ControlFlowKind.INDIRECT_JUMP:
            self._indirect_jump(ctx, block)
        elif kind is ControlFlowKind.RETURN:
            for site in self.noreturn.mark_return(ctx.func.addr):
                self._spawn_resume(site)
        # HALT: block ends, no edges.

    def _add_intra_target(self, ctx: _TaskCtx, block: Block, target: int,
                          etype: EdgeType) -> Block | None:
        if self._foreign(target):
            self._defer_frontier(ctx, "intra", block=block, target=target,
                                 etype=etype)
            return None
        tb, created = self._ensure_block(target)
        self._link(block, tb, etype)
        ctx.reached.add(target)
        if created:
            ctx.work.append(tb)
        else:
            # Shared code: the region was parsed by another function's
            # task, so its return instructions never pass through our
            # Listing 3 loop.  Scan the already-built subgraph eagerly so
            # our status resolves without waiting for a wave boundary.
            self._scan_existing_region(ctx, tb)
        return tb

    def _scan_existing_region(self, ctx: _TaskCtx, block: Block) -> None:
        rt = self.rt
        if self.noreturn.status_of(ctx.func.addr) is not ReturnStatus.UNSET:
            return
        stack = [block]
        while stack:
            b = stack.pop()
            if b.start in ctx.scanned:
                continue
            ctx.scanned.add(b.start)
            ctx.reached.add(b.start)
            rt.charge(rt.cost.closure_per_block)
            if b.last_kind is ControlFlowKind.RETURN:
                for site in self.noreturn.mark_return(ctx.func.addr):
                    self._spawn_resume(site)
                return
            for e in b.out_edges:
                if e.etype in INTRA_EDGES and e.dst.start not in ctx.scanned:
                    stack.append(e.dst)

    # Parse-time tail-call heuristic (Section 2.1), in Dyninst's order: a
    # branch to a known entry is a tail call; else one to a block this
    # function reached is not; else one after frame teardown is.  A
    # conditional branch is one only toward a known entry (.cold parts).
    def _direct_branch(self, ctx: _TaskCtx, block: Block,
                       target: int) -> None:
        if target in self.functions or (target not in ctx.reached
                                        and block.has_teardown):
            self._tail_call_edge(ctx, block, target)
        else:
            self._add_intra_target(ctx, block, target, EdgeType.DIRECT)

    def _cond_branch(self, ctx: _TaskCtx, block: Block,
                     last: Instruction) -> None:
        target = last.direct_target
        if target in self.functions:
            self._tail_call_edge(ctx, block, target)
        else:
            self._add_intra_target(ctx, block, target, EdgeType.COND_TAKEN)
        self._add_intra_target(ctx, block, last.end,
                               EdgeType.COND_FALLTHROUGH)

    def _tail_call_edge(self, ctx: _TaskCtx, block: Block,
                        target: int) -> None:
        self._enter_callee(block, target, EdgeType.TAILCALL)
        # Eager tail propagation: this function returns if the tail-callee
        # does; register the dependency (or propagate immediately).
        status = self.noreturn.defer_tail(ctx.func.addr, target)
        if status is ReturnStatus.RETURN:
            for site in self.noreturn.mark_return(ctx.func.addr):
                self._spawn_resume(site)

    def _call(self, ctx: _TaskCtx, block: Block, last: Instruction) -> None:
        target = last.direct_target
        self._enter_callee(block, target, EdgeType.CALL)
        # Call fall-through: depends on the callee's return status.
        site = DeferredCallSite(caller_addr=ctx.func.addr, block=block,
                                fallthrough=last.end, callee_addr=target)
        status = self.noreturn.defer(site)
        if status is ReturnStatus.RETURN:
            if self.op_trace is not None:
                self.op_trace.append(
                    ("OCFEC", block.start, target, status.value))
            self._add_intra_target(ctx, block, last.end, EdgeType.CALL_FT)
        # UNSET: deferred (eager notification or a wave releases it).
        # NORETURN: no fall-through edge, ever.

    def _enter_callee(self, block: Block, target: int,
                      etype: EdgeType) -> None:
        """A call or tail-call edge into ``target``'s function, created
        if absent (invariant 5), whose traversal is spawned if new."""
        func, _, seeds = self._make_function(
            target, f"func_{target:x}", via=etype.value)
        self._link(block, func.entry, etype)
        if seeds:
            self._spawn_traversal(func, seeds)

    def _indirect_jump(self, ctx: _TaskCtx, block: Block,
                       retry: bool = False) -> bool:
        """O_IEC: analyze ``block``'s jump table and link one INDIRECT
        edge per target not yet linked, in table order; True if one was.

        On first sight the table is recorded and traced; on a retry
        (:meth:`_retry_jump_tables`) only when a target is new.  A table
        that is unresolved or unbounded stays pending for the retry.
        """
        self.rt.metrics.inc("parser.jt_analyses")
        info = analyze_jump_table(self.rt, self.image, block,
                                  self.opts.jt_options)
        seen = ctx.jt_targets_seen.setdefault(block.start, set())
        new = [t for t in dict.fromkeys(info.targets) if t not in seen]
        if new or not retry:
            with self.jump_tables.accessor(block.start) as acc:
                acc.value = info
            for t in new:
                seen.add(t)
                self._add_intra_target(ctx, block, t, EdgeType.INDIRECT)
            if self.op_trace is not None:
                self.op_trace.append(
                    ("OIEC", block.start, tuple(sorted(seen))))
        if info.table_addr is None or not info.bounded:
            ctx.jt_pending.append(block)
        return bool(new)

    def _retry_jump_tables(self, ctx: _TaskCtx) -> bool:
        """Fixed-point jump-table refinement: re-analyze after the function
        gained more control-flow paths; True if new targets appeared."""
        if not ctx.jt_pending:
            return False
        self.rt.metrics.inc("parser.jt_retry_rounds")
        pending, ctx.jt_pending = ctx.jt_pending, []
        progress = False
        for block in pending:
            progress |= self._indirect_jump(ctx, block, retry=True)
        if not progress:
            ctx.jt_pending = []
        return progress

    # -- deferred call fall-throughs --------------------------------------------

    def _spawn_traversal(self, func: Function, seeds: list[Block]) -> None:
        if self.opts.task_parallel:
            self._group.spawn(self._traverse_task, func, seeds)
        else:
            self._round_discovered.append((func, seeds))

    def _spawn_resume(self, site: DeferredCallSite) -> None:
        if self.opts.task_parallel:
            self._group.spawn(self._resume_call_ft, site)
        else:
            self._resume_call_ft(site)

    def _resume_call_ft(self, site: DeferredCallSite) -> None:
        """Create a released call fall-through edge and keep traversing.

        The call block may have been split since the site was recorded;
        the current owner of the call's end address is looked up under the
        block-ends accessor, which also excludes concurrent splits while
        the edge is attached (invariants 3/4).
        """
        if self._foreign(site.fallthrough):
            self._defer_frontier(None, "resume", site=site)
            return
        if self.op_trace is not None:
            status = self.noreturn.status_of(site.callee_addr)
            self.op_trace.append(
                ("OCFEC", site.block.start, site.callee_addr, status.value))
        # The call instruction ends exactly at the fall-through address,
        # and that end was recorded immutably at deferral time.  Reading
        # ``site.block.insns`` here instead would race block splits: a
        # split truncates the recorded block's instruction list, so its
        # last end would name the *split point*, attaching the edge to
        # the stale lower half (a schedule-dependent CFG, found by
        # ``repro fuzz``).
        call_end = site.fallthrough
        fb, created = self._ensure_block(site.fallthrough)
        owner = None
        with self.block_ends.accessor(call_end, create=False) as acc:
            if acc is not None:
                owner = acc.value
                self._link(owner, fb, EdgeType.CALL_FT)
        if owner is None:
            self._link(site.block, fb, EdgeType.CALL_FT)
        if created:
            func = self.functions.get(site.caller_addr)
            ctx = _TaskCtx(func=func if func is not None else
                           Function(site.caller_addr, "?", fb, False))
            ctx.work.append(fb)
            self._drain(ctx)

    # -- wave-level noreturn fixed point ------------------------------------------

    def noreturn_waves(self) -> None:
        """Resolve return statuses and release deferred fall-throughs
        until nothing changes; then resolve cycles to NORETURN (not in
        fragment mode — the coordinator runs it on the merged parser)."""
        rt = self.rt
        for _ in range(MAX_WAVES):
            self.stats.n_waves += 1
            rt.metrics.inc("parser.noreturn_waves")
            funcs = [f for _, f in self.functions.sorted_items()]
            memo: dict[int, tuple[bool, frozenset[int]]] = {}

            # Closure walks are the expensive part of a wave; do them in
            # parallel, then run the (cheap) status fixed point serially.
            # Only UNSET functions are summarized, and statuses never
            # return to UNSET, so the memo covers every lookup.
            def precompute(f: Function) -> None:
                memo[f.addr] = return_summary(
                    _function_closure(rt, f).values())

            rt.parallel_for(
                [f for f in funcs
                 if self.noreturn.status_of(f.addr) is ReturnStatus.UNSET],
                precompute)
            released = self.noreturn.resolve_wave(
                funcs, lambda f: memo[f.addr])
            if not released:
                if self.owned_range is None:
                    # Fragment mode skips the cycle rule: concluding
                    # UNSET→NORETURN from a shard-local closure is
                    # unsound (a RET may live in another shard).  The
                    # coordinator runs it after the structural merge.
                    self.noreturn.resolve_cycles(funcs)
                return

            # Resumed parsing may eagerly release more sites or discover
            # functions; those must run inside this quiesce, or they
            # could still be queued when the cycle rule runs (a real bug:
            # a late resume racing resolve_cycles made statuses
            # schedule-dependent).
            def release() -> None:
                if self.opts.task_parallel:
                    for site in released:
                        self._group.spawn(self._resume_call_ft, site)
                else:
                    rt.parallel_for(released, self._resume_call_ft)

            self._quiesce(release)
        raise RuntimeError("noreturn wave fixed point did not converge")


def parse(binary: LoadedBinary, rt: Runtime,
          options: ParseOptions | None = None) -> ParsedCFG:
    """Build ``binary``'s CFG inside ``rt.run``: the one parse call of
    every application.  A backend with sharded construction (``procs``)
    exposes ``sharded_parse``; every other runs the parser in place."""
    sharded = getattr(rt, "sharded_parse", None)
    if sharded is not None:
        return sharded(binary, options)
    return ParallelParser(binary, rt, options).execute()


def parse_binary(binary: LoadedBinary, rt: Runtime,
                 options: ParseOptions | None = None) -> ParsedCFG:
    """Run :func:`parse` as ``rt``'s one run: a parse and nothing else."""
    return rt.run(parse, binary, rt, options)
