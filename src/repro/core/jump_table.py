"""Jump-table analysis: backward slicing + symbolic evaluation.

Mirrors the paper's pipeline (Sections 2.1/2.2/5.3): collect the backward
slice of the indirect jump, lift it to symbolic expressions (Dyninst
lifts slices to ROSE IR — our analog is :mod:`repro.analyses.symexpr`),
and match the jump-target expression against the bounded-table idiom
``Load(base + idx*8)``:

- a **constant** target expression is a statically-resolved indirect jump
  (one edge, no table);
- a table whose **base** is constant needs an index **bound**: a
  ``CMP idx, k`` + ``JA`` guard dominating the load gives ``k+1``
  entries.  A bound obscured through memory is unrecoverable, and then:

  - in **union mode** (the paper's fix) the analysis scans entries while
    they look like text addresses, up to :data:`MAX_SCAN` — the deliberate
    over-approximation that finalization trims with the "compilers do
    not emit overlapping jump tables" observation;
  - in **strict mode** (pre-fix Dyninst, kept for the ablation) it gives
    up and returns no targets, violating monotonic ordering;

- a table base that itself comes out of memory (``STORE``/``LOAD``
  through the stack) leaves the expression unresolvable — difference
  category 3 of Section 8.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyses.symexpr import (
    Const,
    TablePattern,
    lift_slice,
    match_table_pattern,
)
from repro.binary.format import BinaryImage
from repro.core.cfg import Block, EdgeType, JumpTableInfo
from repro.errors import ImageFormatError
from repro.isa.instructions import Cond, Instruction, Opcode
from repro.isa.registers import Reg
from repro.runtime.api import Runtime


#: Over-approximation cap: union mode scans at most this many entries.
MAX_SCAN = 64

#: Backward-slice depth across predecessors.
MAX_PRED_DEPTH = 4


@dataclass(frozen=True)
class JumpTableOptions:
    union_mode: bool = True  #: scan on unknown bound instead of failing


def analyze_jump_table(
    rt: Runtime,
    image: BinaryImage,
    block: Block,
    options: JumpTableOptions = JumpTableOptions(),
) -> JumpTableInfo:
    """Analyze the indirect jump terminating ``block``."""
    rt.charge(rt.cost.jump_table_base)
    info = JumpTableInfo(block_start=block.start, table_addr=None,
                         n_entries=0, bounded=False)

    ijmp = block.insns[-1] if block.insns else None
    if ijmp is None or ijmp.opcode is not Opcode.IJMP:
        return info
    target_reg = Reg(ijmp.operands[0])

    # 1. Backward slice of the target register.
    slice_insns = _collect_slice(block, target_reg)
    rt.charge(rt.cost.jump_table_per_insn * max(1, len(slice_insns)))

    # 2. Lift to a symbolic expression of the jump target.
    expr = lift_slice(slice_insns, target_reg)
    pattern = match_table_pattern(expr)
    text = image.section_containing(block.start)

    if isinstance(pattern, Const):
        # Statically resolved single target (constant-folded ijmp).
        if text is not None and text.contains(pattern.value):
            info.targets = [pattern.value]
            info.n_entries = 1
            info.bounded = True
        return info
    if pattern is None or pattern.scale != 8:
        return info  # unresolvable (e.g. table base spilled to the stack)

    info.table_addr = pattern.base
    if pattern.index.const_value is not None:
        # Constant index: one statically known entry.
        try:
            word = image.read_word(pattern.base
                                   + 8 * pattern.index.const_value)
        except ImageFormatError:
            return info
        if text is not None and text.contains(word):
            info.targets = [word]
            info.n_entries = 1
            info.bounded = True
        return info

    # 3. Recover the index bound from the dominating CMP/JA guard.
    idx_reg = _index_register(slice_insns)
    bound = _find_bound(block, idx_reg) if idx_reg is not None \
        else None

    if bound is not None:
        info.bounded = True
        n = bound + 1
    elif options.union_mode:
        n = MAX_SCAN  # scan until entries stop looking like code
    else:
        return info  # strict mode: give up (pre-fix Dyninst behaviour)

    targets: list[int] = []
    for i in range(n):
        try:
            word = image.read_word(pattern.base + 8 * i)
        except ImageFormatError:
            break
        if text is None or not text.contains(word):
            if info.bounded:
                continue  # bounded tables keep their declared size
            break         # unbounded scan stops at the first non-code word
        targets.append(word)
    info.targets = targets
    info.n_entries = n if info.bounded else len(targets)
    rt.charge(rt.cost.jump_table_per_target * max(1, len(targets)))
    return info


# ------------------------------------------------------------ slice collection

def _intra_preds(block: Block) -> list[Block]:
    return [e.src for e in block.in_edges
            if e.etype in (EdgeType.COND_FALLTHROUGH, EdgeType.FALLTHROUGH,
                           EdgeType.DIRECT)]

#: Registers never chased by the slice (frame/stack plumbing and flags).
_SLICE_STOPS = frozenset({Reg.FLAGS, Reg.SP, Reg.FP})


def _collect_slice(block: Block, target: Reg) -> list[Instruction]:
    """Collect the backward slice of ``target``, in execution order.

    Scans the block backwards, then single predecessor chains (first
    predecessor in address order wins at joins — the same single-path
    heuristic Dyninst's slices use), depth-limited.
    """

    def walk(b: Block, upto: int, wanted: set[Reg], depth: int
             ) -> list[Instruction]:
        collected: list[Instruction] = []  # reverse execution order
        remaining = set(wanted)
        for i in range(upto - 1, -1, -1):
            insn = b.insns[i]
            written = insn.regs_written() & remaining
            if written:
                collected.append(insn)
                remaining -= written
                remaining |= insn.regs_read() - _SLICE_STOPS
            if not remaining:
                return collected
        if depth < MAX_PRED_DEPTH and remaining:
            for pred in sorted(_intra_preds(b), key=lambda x: x.start):
                if pred is b or pred.end is None:
                    continue
                more = walk(pred, len(pred.insns), remaining, depth + 1)
                if more:
                    collected.extend(more)
                    break
        return collected

    rev = walk(block, len(block.insns) - 1, {target}, 0)
    del walk  # it refers to itself: leave no cycle for the collector
    rev.reverse()
    return rev


def _index_register(slice_insns: list[Instruction]) -> Reg | None:
    """The index register of the last table load in the slice."""
    for insn in reversed(slice_insns):
        if insn.opcode is Opcode.LOADIDX:
            return Reg(insn.operands[2])
    return None


# ------------------------------------------------------------- bound recovery

def _find_bound(load_block: Block, idx_reg: Reg) -> int | None:
    """Recover the index bound from a dominating CMP/JA guard.

    Looks in the block containing the table load and then through intra
    predecessors that branch around it with ``JA`` (the guard's
    fall-through path is the bounded one): ``CMP_RI idx, k`` + ``JA``
    ⇒ at most k+1 entries.
    """

    def scan_block(b: Block, upto: int) -> int | None:
        for i in range(upto - 1, -1, -1):
            insn = b.insns[i]
            if insn.opcode is Opcode.JCC and insn.cond is Cond.A:
                # Find the comparison feeding this guard.
                for j in range(i - 1, -1, -1):
                    prev = b.insns[j]
                    if Reg.FLAGS in prev.regs_written():
                        if (prev.opcode is Opcode.CMP_RI
                                and Reg(prev.operands[0]) == idx_reg):
                            return prev.operands[1]
                        return None  # CMP_RR or unrelated: bound unknown
                return None
            if idx_reg in insn.regs_written():
                return None  # index redefined after any earlier guard
        return None

    found = scan_block(load_block, len(load_block.insns))
    if found is not None:
        return found
    seen: set[int] = set()
    frontier = [load_block]
    for _ in range(MAX_PRED_DEPTH):
        nxt: list[Block] = []
        for b in frontier:
            for pred in sorted(_intra_preds(b), key=lambda x: x.start):
                if pred.start in seen or pred.end is None:
                    continue
                seen.add(pred.start)
                found = scan_block(pred, len(pred.insns))
                if found is not None:
                    return found
                nxt.append(pred)
        frontier = nxt
        if not frontier:
            break
    return None
