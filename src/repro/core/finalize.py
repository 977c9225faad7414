"""CFG finalization (Section 5.4): the correction phase ``Gm ≽ … ≽ Gn``.

No new CFG elements are added here.  Four steps:

1. **Jump-table overlap cleanup** — over-approximated (unbounded-scan)
   tables that overflow into another discovered table are trimmed using
   the observation that compilers do not emit overlapping jump tables;
   the trimmed edges are removed with ``O_ER`` semantics (cascading
   removal of blocks no longer reachable from any entry).  Edge removals
   commute (Section 4.1), so tables are processed in parallel.
2. **Tail-call correction** — the three rules of the paper, applied
   iteratively with function boundaries recomputed between rounds; each
   edge's verdict is flipped at most once, ensuring convergence.
3. **Function boundary assignment** — parallel reachability over
   intra-procedural edges from every entry (blocks may belong to several
   functions: shared code).
4. **Dead function removal** — functions discovered during analysis that
   ended with no incoming inter-procedural edges are dropped (symbol-table
   entries are roots and always stay).

Finalization is deliberately agnostic to how the parser state was built:
it reads only the parser's maps, noreturn table and stats, so the procs
backend's structural merge (``repro.core.shard_merge``) can run it
unchanged as the last phase over coordinator-stitched fragments.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.cfg import (
    INTER_EDGES,
    INTRA_EDGES,
    Block,
    EdgeType,
    Function,
    JumpTableInfo,
    ParsedCFG,
    release_blocks,
)
from repro.isa.instructions import ControlFlowKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.parallel_parser import ParallelParser


def finalize(parser: "ParallelParser") -> ParsedCFG:
    """Run the correction phase over a quiesced parser."""
    rt = parser.rt
    sanitize = getattr(parser, "op_trace", None) is not None
    if sanitize:
        # Debug hook: validate the quiesced expansion-phase graph and
        # the recorded operation trace before correction mutates it.
        from repro.sanity.cfgsan import run_cfgsan
        run_cfgsan(parser, "finalize-entry")
    blocks = {start: b for start, b in parser.blocks_by_start.sorted_items()}
    functions = {addr: f for addr, f in parser.functions.sorted_items()}
    tables = [info for _, info in parser.jump_tables.sorted_items()]

    _trim_overlapping_tables(parser, tables, blocks, functions)
    closures = _correct_tail_calls(parser, blocks, functions)
    _assign_boundaries(parser, functions, closures)
    functions = _remove_dead_functions(parser, functions)

    live_blocks = [b for b in blocks.values() if b.end is not None]
    stats = parser.stats
    stats.n_functions = len(functions)
    stats.n_blocks = len(live_blocks)
    stats.n_edges = sum(len(b.out_edges) for b in live_blocks)
    stats.n_jt_resolved = sum(1 for t in tables if t.bounded)
    stats.n_jt_unresolved = sum(1 for t in tables if t.table_addr is None)
    stats.n_jt_overapprox = sum(
        1 for t in tables if t.table_addr is not None and not t.bounded)
    cfg = ParsedCFG(functions=list(functions.values()),
                    blocks=live_blocks, jump_tables=tables, stats=stats)
    if sanitize:
        from repro.sanity.cfgsan import run_cfgsan_cfg
        run_cfgsan_cfg(cfg, rt.metrics, "finalize-exit")
    return cfg


# --------------------------------------------------------------- step 1

def _trim_overlapping_tables(parser: "ParallelParser",
                             tables: list[JumpTableInfo],
                             blocks: dict[int, Block],
                             functions: dict[int, Function]) -> None:
    """Trim unbounded table scans at the next discovered table's base."""
    rt = parser.rt
    starts = sorted(t.table_addr for t in tables if t.table_addr is not None)
    removed_any = []

    def trim(info: JumpTableInfo) -> None:
        if info.table_addr is None or info.bounded:
            return
        rt.charge(rt.cost.map_op)
        idx = bisect.bisect_right(starts, info.table_addr)
        next_base = starts[idx] if idx < len(starts) else None
        if next_base is None:
            return
        allowed = max(0, (next_base - info.table_addr) // 8)
        if info.n_entries <= allowed:
            return
        keep = info.targets[:allowed]
        drop = info.targets[allowed:]
        info.trimmed = len(drop)
        info.targets = keep
        info.n_entries = allowed
        block = blocks.get(info.block_start)
        if block is None:
            return
        drop_set = set(drop) - set(keep)
        doomed = [e for e in block.out_edges
                  if e.etype is EdgeType.INDIRECT and e.dst.start in drop_set]
        for e in doomed:
            rt.charge(rt.cost.edge_create)
            block.out_edges.remove(e)
            e.dst.in_edges.remove(e)
            parser.stats.n_edges_trimmed += 1
        if doomed:
            rt.metrics.inc("finalize.edges_trimmed", len(doomed))
            removed_any.append(True)

    rt.parallel_for(tables, trim)
    if removed_any:
        _sweep_unreachable(parser, blocks, functions)


def _sweep_unreachable(parser: "ParallelParser", blocks: dict[int, Block],
                       functions: dict[int, Function]) -> None:
    """O_ER cascade: drop blocks unreachable from any function entry."""
    rt = parser.rt
    reached: set[int] = set()
    stack = [f.entry for f in functions.values()]
    while stack:
        b = stack.pop()
        if b.start in reached:
            continue
        reached.add(b.start)
        rt.charge(rt.cost.sweep_per_block)
        for e in b.out_edges:
            if e.dst.start not in reached:
                stack.append(e.dst)
    dead = [s for s in blocks if s not in reached]
    if dead:
        rt.metrics.inc("finalize.blocks_swept", len(dead))
    for s in dead:
        b = blocks.pop(s)
        for e in b.out_edges:
            if e in e.dst.in_edges:
                e.dst.in_edges.remove(e)
        for e in b.in_edges:
            if e in e.src.out_edges:
                e.src.out_edges.remove(e)
        parser.blocks_by_start.remove(s)
        # Out of the graph now, but still in a cycle with its own edges.
        release_blocks((b,))


# --------------------------------------------------------------- steps 2+3

def _function_closure(rt, func: Function) -> dict[int, Block]:
    """The blocks reachable from the entry via intra-procedural edges,
    keyed by start: the one closure walk of the noreturn waves (Section
    5.3) and of finalization."""
    seen: dict[int, Block] = {}
    stack = [func.entry]
    while stack:
        b = stack.pop()
        if b.start in seen:
            continue
        seen[b.start] = b
        rt.charge(rt.cost.closure_per_block)
        for e in b.out_edges:
            if e.etype in INTRA_EDGES and e.dst.start not in seen:
                stack.append(e.dst)
    return seen


def return_summary(blocks: Iterable[Block]) -> tuple[bool, frozenset[int]]:
    """``(has_ret, tail_targets)`` over a function's closure: whether a
    return instruction is reachable, and the starts its tail calls reach.
    A function returns if it has a return or a tail-callee returns."""
    has_ret = False
    tails: set[int] = set()
    for b in blocks:
        if b.last_kind is ControlFlowKind.RETURN:
            has_ret = True
        for e in b.out_edges:
            if e.etype is EdgeType.TAILCALL:
                tails.add(e.dst.start)
    return has_ret, frozenset(tails)


def _refresh_closures(rt, functions: dict[int, Function],
                      closures: dict[int, dict[int, Block]],
                      dirty: set[int]) -> None:
    """One correction round's closure pass: one task per function.

    A function whose closure is memoized and not ``dirty`` charges the
    walk it would have made instead of making it — a TAILCALL↔DIRECT
    flip at block ``s`` moves edges in or out of the intra-procedural
    set only for functions containing ``s`` — so clocks and schedules
    are exactly those of a full recomputation.
    """
    def compute(fa):
        addr, func = fa
        memo = closures.get(addr)
        if memo is None or addr in dirty:
            closures[addr] = _function_closure(rt, func)
        else:
            rt.charge(rt.cost.closure_per_block * len(memo))

    rt.parallel_for(sorted(functions.items()), compute)


def _correct_tail_calls(parser: "ParallelParser", blocks: dict[int, Block],
                        functions: dict[int, Function]
                        ) -> dict[int, dict[int, Block]] | None:
    """Iterative application of the three correction rules.

    Returns the closures of the converged round (every function, fresh)
    so :func:`_assign_boundaries` can reuse them instead of recomputing —
    or None if the round cap was hit without convergence.  Rounds 2+
    re-walk only the closures of functions containing a flipped edge's
    source block.

    No function is created here.  Every CALL and TAILCALL edge came from
    the parser's callee-entry step, which makes the target's function
    first (invariant 5), and rule 1 flips only toward a symbol-table
    entry (in ``F0``, so a function) or a block with an interprocedural
    in-edge (so a function again).  cfgsan's ``interproc-target`` rule
    checks this.
    """
    rt = parser.rt

    symtab_entries = {s.offset for s in parser.binary.symtab.functions()}
    symtab_entries.update(s.offset
                          for s in parser.binary.dynsym.functions())

    closures: dict[int, dict[int, Block]] = {}
    dirty: set[int] = set()
    for _round in range(8):
        # The O_IEC fixed point of Section 5.4: each round recomputes
        # boundaries and may flip edge verdicts.
        rt.metrics.inc("finalize.tailcall_rounds")
        _refresh_closures(rt, functions, closures, dirty)

        # Block start -> functions containing it.
        containing: dict[int, set[int]] = {}
        for faddr, cl in closures.items():
            for bstart in cl:
                containing.setdefault(bstart, set()).add(faddr)

        def entry_like(dst: Block) -> bool:
            return (dst.start in symtab_entries
                    or any(ie.etype in INTER_EDGES for ie in dst.in_edges))

        flips = 0
        flip_srcs: list[int] = []
        for b in (blocks[s] for s in sorted(blocks)):
            for e in list(b.out_edges):
                if e.flipped:
                    continue
                if e.etype is EdgeType.DIRECT:
                    # Rule 1: not a tail call, but the target has CALL-like
                    # incoming edges (it is a function entry).
                    if entry_like(e.dst):
                        e.etype = EdgeType.TAILCALL
                        e.flipped = True
                        flips += 1
                        flip_srcs.append(e.src.start)
                elif e.etype is EdgeType.TAILCALL:
                    target = e.dst.start
                    src_funcs = containing.get(e.src.start, set())
                    # Rule 2: marked tail call but the target lies inside
                    # the current function's own boundary.
                    inside = any(
                        target in closures[fa] and target != fa
                        for fa in src_funcs
                        if fa != target
                    )
                    # Rule 3: sole incoming edge and not a symbol-table
                    # entry: an outlined block, not a function.
                    sole = (len(e.dst.in_edges) == 1
                            and target not in symtab_entries
                            and functions[target].discovered_via
                            == "tailcall")
                    if inside or sole:
                        e.etype = EdgeType.DIRECT
                        e.flipped = True
                        flips += 1
                        flip_srcs.append(e.src.start)
        parser.stats.n_tailcall_flips += flips
        if flips:
            rt.metrics.inc("finalize.tailcall_flips", flips)
        if flips == 0:
            # Converged: every closure in the memo is fresh (nothing
            # mutated edges since this round's compute pass).
            return closures

        # Rule-2/3 flips may orphan a function (step 4 drops it).
        dirty = set()
        for s in flip_srcs:
            dirty.update(containing.get(s, ()))
    return None


def _assign_boundaries(parser: "ParallelParser",
                       functions: dict[int, Function],
                       closures: dict[int, dict[int, Block]] | None = None
                       ) -> None:
    """Step 3 — with ``closures`` (the converged round's memo from
    :func:`_correct_tail_calls`) the reachability walk is skipped: no
    edge mutated between that round's compute pass and here, so the
    closure values are already exact (same total charge either way)."""
    rt = parser.rt
    by_start = parser.blocks_by_start

    def assign(fa):
        addr, func = fa
        if closures is not None and addr in closures:
            closure = closures[addr]
            rt.charge(rt.cost.closure_per_block * len(closure))
        else:
            closure = _function_closure(rt, func)
        func.blocks = [by_start.get(s) for s in sorted(closure)
                       if by_start.get(s) is not None]

    rt.parallel_for(sorted(functions.items()), assign)


# --------------------------------------------------------------- step 4

def _remove_dead_functions(parser: "ParallelParser",
                           functions: dict[int, Function]
                           ) -> dict[int, Function]:
    """Drop discovered functions with no incoming inter-procedural edges."""
    incoming: set[int] = set()
    for addr, func in functions.items():
        for b in func.blocks:
            for e in b.out_edges:
                if e.etype in INTER_EDGES:
                    incoming.add(e.dst.start)
    kept: dict[int, Function] = {}
    for addr, func in sorted(functions.items()):
        if func.from_symtab or addr in incoming:
            kept[addr] = func
        else:
            parser.stats.n_funcs_removed += 1
            parser.rt.metrics.inc("finalize.dead_functions_removed")
    return kept

