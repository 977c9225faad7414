"""CFG and operation-trace sanitizer (the paper's five invariants).

``check_parser_state`` validates a parser's shared maps at a quiesced
point (finalize entry, after a shard merge) against the structural
invariants of Section 5.2:

1. one block per start address (the blocks map key is the identity);
2. one block per end address (the ends map key is the identity, and no
   block is registered at two ends);
3. edges are symmetric, connect blocks that exist in the maps, and are
   each created once (no block has two out-edges with the same target
   and type);
4. registered blocks partition the parsed bytes (no overlap) — losers
   of an end collision re-register at strictly smaller ends until this
   holds;
5. one function per entry address, anchored at an existing block, and
   made before any edge into it: every CALL and TAILCALL edge targets a
   function entry (``interproc-target``).

``check_cfg`` checks the same on a finalized CFG, plus that the wave's
cycle rule left no function UNSET (``status-unset``).

``check_op_trace`` validates a recorded operation trace (Section 4)
for ordering legality: O_IEC target sets grow monotonically per block,
O_CFEC call-fallthrough edges are only created once the callee's
status is RETURN (no reordering past the O_FEI / noreturn resolution
that feeds them), one O_FEI per entry address, and every
``_split_collision`` re-registration strictly decreases the losing
block's end.

``run_cfgsan`` bundles both, records ``sanity.cfgsan.*`` metrics and
raises :class:`~repro.errors.SanityCheckError` on violations.  It is
hooked into ``finalize`` and ``shard_merge`` behind
``ParseOptions.sanitize`` (``repro check --cfgsan`` sets it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cfg import ReturnStatus
from repro.errors import SanityCheckError


@dataclass(frozen=True)
class SanityFinding:
    """One invariant violation."""

    rule: str
    message: str
    addr: int | None = None

    def __str__(self) -> str:
        at = f" @{self.addr:#x}" if self.addr is not None else ""
        return f"[{self.rule}]{at} {self.message}"


# ----------------------------------------------------------------- structural


def check_parser_state(parser: Any) -> list[SanityFinding]:
    """Validate the five structural invariants on a quiesced parser."""
    out: list[SanityFinding] = []
    blocks = dict(parser.blocks_by_start.items_snapshot())
    ends = dict(parser.block_ends.items_snapshot())

    # Invariant 1: the blocks map key is the block's start address.
    for start, b in blocks.items():
        if b.start != start:
            out.append(SanityFinding(
                "block-start", f"blocks[{start:#x}] holds {b!r}", start))

    # Invariant 2: the ends map key is the registrant's end address, and
    # no block is registered under two end addresses.
    seen_ends: dict[int, int] = {}
    for end, b in ends.items():
        if b.end != end:
            out.append(SanityFinding(
                "block-end", f"ends[{end:#x}] holds {b!r}", end))
        prior = seen_ends.get(id(b))
        if prior is not None:
            out.append(SanityFinding(
                "block-end",
                f"{b!r} registered at both {prior:#x} and {end:#x}", end))
        seen_ends[id(b)] = end
        if b.start not in blocks:
            out.append(SanityFinding(
                "block-end",
                f"ends[{end:#x}] registrant {b!r} not in blocks map", end))

    # Invariant 3: edge symmetry over blocks that exist in the map, and
    # each edge created once.
    for start, b in blocks.items():
        for e in b.out_edges:
            if e.src is not b:
                out.append(SanityFinding(
                    "edge-symmetry",
                    f"out-edge {e!r} of {b!r} has src {e.src!r}", start))
            elif e not in e.dst.in_edges:
                out.append(SanityFinding(
                    "edge-symmetry",
                    f"{e!r} missing from dst in-edges", start))
            if e.dst.start not in blocks:
                out.append(SanityFinding(
                    "edge-symmetry",
                    f"{e!r} dst not in blocks map", e.dst.start))
        for e in b.in_edges:
            if e.dst is not b:
                out.append(SanityFinding(
                    "edge-symmetry",
                    f"in-edge {e!r} of {b!r} has dst {e.dst!r}", start))
            elif e not in e.src.out_edges:
                out.append(SanityFinding(
                    "edge-symmetry",
                    f"{e!r} missing from src out-edges", start))
    out.extend(_check_duplicate_edges(blocks.values()))

    # Invariant 4: registered blocks do not overlap.
    out.extend(_check_overlap(
        b for b in blocks.values() if b.end is not None))

    # Invariant 5: one function per entry address, anchored at a block,
    # and one behind every interprocedural edge.
    functions = dict(parser.functions.items_snapshot())
    out.extend(_check_interproc_targets(blocks.values(), functions))
    for addr, f in functions.items():
        if f.addr != addr:
            out.append(SanityFinding(
                "function-entry", f"functions[{addr:#x}] holds {f!r}", addr))
        if f.entry.start != addr:
            out.append(SanityFinding(
                "function-entry",
                f"{f!r} entry block starts at {f.entry.start:#x}", addr))
        if addr not in blocks:
            out.append(SanityFinding(
                "function-entry",
                f"{f!r} entry block not in blocks map", addr))
    return out


def _check_overlap(blocks: Any) -> list[SanityFinding]:
    out: list[SanityFinding] = []
    live = sorted((b for b in blocks if not b.is_empty),
                  key=lambda b: (b.start, b.end))
    for prev, nxt in zip(live, live[1:]):
        if nxt.start < prev.end:
            out.append(SanityFinding(
                "block-overlap",
                f"{prev!r} overlaps {nxt!r}", nxt.start))
    return out


def _check_interproc_targets(blocks: Any, entries: Any
                             ) -> list[SanityFinding]:
    out: list[SanityFinding] = []
    for b in blocks:
        for e in b.out_edges:
            if e.etype.interprocedural and e.dst.start not in entries:
                out.append(SanityFinding(
                    "interproc-target",
                    f"{e!r} targets no function entry", e.dst.start))
    return out


def _check_duplicate_edges(blocks: Any) -> list[SanityFinding]:
    out: list[SanityFinding] = []
    for b in blocks:
        seen: set[tuple] = set()
        for e in b.out_edges:
            key = (e.dst.start, e.etype)
            if key in seen:
                out.append(SanityFinding(
                    "edge-duplicate",
                    f"{b!r} has two {e.etype.value} edges to {e.dst!r}",
                    b.start))
            seen.add(key)
    return out


def check_cfg(cfg: Any) -> list[SanityFinding]:
    """Validate a finalized :class:`~repro.core.cfg.ParsedCFG`."""
    out: list[SanityFinding] = []
    blocks = cfg.blocks()
    block_set = {id(b) for b in blocks}
    out.extend(_check_overlap(blocks))
    for b in blocks:
        for e in b.out_edges:
            if e.src is not b or e not in e.dst.in_edges:
                out.append(SanityFinding(
                    "edge-symmetry", f"broken out-edge {e!r}", b.start))
        for e in b.in_edges:
            if e.dst is not b or e not in e.src.out_edges:
                out.append(SanityFinding(
                    "edge-symmetry", f"broken in-edge {e!r}", b.start))
    out.extend(_check_duplicate_edges(blocks))
    functions = cfg.functions()
    out.extend(_check_interproc_targets(blocks,
                                        {f.addr for f in functions}))
    for f in functions:
        if f.status is ReturnStatus.UNSET:
            out.append(SanityFinding(
                "status-unset", f"{f!r} left UNSET", f.addr))
        if f.entry.start != f.addr:
            out.append(SanityFinding(
                "function-entry",
                f"{f!r} entry starts at {f.entry.start:#x}", f.addr))
        if f.blocks and id(f.entry) not in {id(b) for b in f.blocks}:
            out.append(SanityFinding(
                "function-entry",
                f"{f!r} entry not among its blocks", f.addr))
        if id(f.entry) not in block_set:
            out.append(SanityFinding(
                "function-entry",
                f"{f!r} entry block not in CFG", f.addr))
    return out


# -------------------------------------------------------------------- traces


def check_op_trace(trace: list[tuple] | None) -> list[SanityFinding]:
    """Validate operation-ordering legality on a recorded trace."""
    out: list[SanityFinding] = []
    if not trace:
        return out
    jt_targets: dict[int, set[int]] = {}
    fei_seen: dict[int, str] = {}
    for rec in trace:
        op = rec[0]
        if op == "OIEC":
            _, block_start, targets = rec
            tset = set(targets)
            prev = jt_targets.get(block_start)
            if prev is not None and not tset >= prev:
                out.append(SanityFinding(
                    "oiec-monotone",
                    f"jump-table targets of block {block_start:#x} shrank: "
                    f"{sorted(prev - tset)} disappeared", block_start))
            jt_targets[block_start] = tset
        elif op == "OCFEC":
            _, block_start, callee, status = rec
            if status != "return":
                out.append(SanityFinding(
                    "ocfec-order",
                    f"call fall-through at {block_start:#x} created while "
                    f"callee {callee:#x} status is {status!r}", block_start))
        elif op == "OFEI":
            _, addr, via = rec
            if addr in fei_seen:
                out.append(SanityFinding(
                    "ofei-unique",
                    f"function at {addr:#x} created twice "
                    f"(via {fei_seen[addr]} then {via})", addr))
            fei_seen[addr] = via
        elif op == "SPLIT":
            _, loser_start, old_end, new_end = rec
            if new_end >= old_end:
                out.append(SanityFinding(
                    "split-decreasing",
                    f"split of block {loser_start:#x} re-registered end "
                    f"{old_end:#x} -> {new_end:#x} (must strictly "
                    f"decrease)", loser_start))
    return out


# -------------------------------------------------------------------- driver


def run_cfgsan(parser: Any, where: str, *,
               raise_on_violation: bool = True) -> list[SanityFinding]:
    """Run both checks against a quiesced parser; record metrics."""
    m = parser.rt.metrics
    findings = check_parser_state(parser)
    findings.extend(check_op_trace(getattr(parser, "op_trace", None)))
    m.inc("sanity.cfgsan.checks")
    m.observe("sanity.cfgsan.blocks", len(parser.blocks_by_start))
    if findings:
        m.inc("sanity.cfgsan.violations", len(findings))
        if raise_on_violation:
            raise SanityCheckError(where, findings)
    return findings


def run_cfgsan_cfg(cfg: Any, metrics: Any, where: str, *,
                   raise_on_violation: bool = True) -> list[SanityFinding]:
    """Validate a finalized CFG; record metrics (final-graph hook)."""
    findings = check_cfg(cfg)
    metrics.inc("sanity.cfgsan.checks")
    metrics.observe("sanity.cfgsan.blocks", len(cfg.blocks()))
    if findings:
        metrics.inc("sanity.cfgsan.violations", len(findings))
        if raise_on_violation:
            raise SanityCheckError(where, findings)
    return findings
