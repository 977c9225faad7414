"""Interprocedural checkers: summary-based clients of the dataflow core.

Each checker is a small bottom-up interprocedural analysis driven by
:mod:`repro.analyses.interproc`: it computes a per-function *summary*
(what a caller needs to know about a callee) and raw findings; the
scheduler keeps the findings of the round in which the summaries
stopped changing.  A function reaches a checker as a :class:`FuncPlan`
— compiled once per run — and a block as the *effect*
:meth:`Checker.compile_block` distilled from its instructions, so a
fixpoint visit costs O(1)–O(calls), not O(instructions).  A checker
keeps no state between calls, so one instance serves every SCC of a
run, on any thread.

The synthetic ABI the checkers assume (documented in
``docs/ANALYSES.md``):

- ``R0`` is the return value, ``R1``–``R3`` are arguments (defined at
  entry);
- ``R0``–``R7`` are caller-saved (``CALL``/``ICALL`` clobber them —
  the ISA's def/use table says so);
- ``R8``–``R15`` are scratch (no cross-call contract);
- ``FP`` is callee-saved, preserved via ``ENTER``/``LEAVE``;
- functions return with zero net stack displacement.

Four checkers:

- ``callee-saved`` — forward may-analysis of callee-saved registers
  clobbered without a save/restore pair, with transitive may-clobber
  call summaries;
- ``uninit-reg``   — forward must-defined analysis; a read of
  ``R0``–``R7`` that is not definitely assigned (entry args, local
  writes, or the callee's must-defined-at-return summary) is flagged;
- ``stack-balance`` — interprocedural stack-height analysis (callee
  net-delta summaries); a return at definite nonzero height is flagged;
- ``jt-bounds``    — verification of decoded jump tables: unresolved
  bases, unrecoverable bound checks, out-of-function targets, entries
  trimmed by overlap finalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.analyses.dataflow import (
    DataflowProblem,
    Direction,
    run_worklist,
)
from repro.core.cfg import JumpTableInfo
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import Reg, mask_of, regs_in

#: Unknown / conflicting stack height (also stack_height's).
TOP = "top"

_GP_MASK = (1 << 16) - 1                       # R0..R15
_CALLER_SAVED = (1 << 8) - 1                   # R0..R7
_ARG_MASK = (1 << Reg.R1) | (1 << Reg.R2) | (1 << Reg.R3)
_R0_BIT = 1 << Reg.R0
_FP_BIT = 1 << Reg.FP


@dataclass(frozen=True)
class FuncPlan:
    """One function compiled for the checkers (schedule-independent).

    Everything that is constant per function is worked out once per
    run: ``interproc.snapshot_function`` builds the structure straight
    from the parsed graph (blocks are indices into address-sorted
    parallel tuples, edges are index lists) with ``effects`` empty, and
    ``run_checkers`` adds the run's checkers' (:meth:`with_effects`).
    """

    entry: int
    name: str
    #: per block, address-sorted: start address and instructions.
    starts: tuple[int, ...]
    insns: tuple[tuple[Instruction, ...], ...]
    #: intra-procedural predecessor / successor block indices.
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: True at the entry block (the forward boundary).
    at_entry: tuple[bool, ...]
    #: ``(block index, "ret" | "tailcall", address of the leaving
    #: instruction, tail-call target or None)`` per block that leaves
    #: the function, in address order.
    exits: tuple[tuple[int, str, int, int | None], ...]
    jump_tables: tuple[JumpTableInfo, ...]
    #: checker name -> that checker's effect per block.
    effects: dict[str, tuple[Any, ...]]

    def with_effects(self, checkers: list[Checker]) -> FuncPlan:
        """This plan with, per checker, the *effect* its
        :meth:`Checker.compile_block` distilled from each block's
        instructions — a dataflow checker's whole transfer over it."""
        return replace(self, effects={
            c.name: tuple(map(c.compile_block, self.insns))
            for c in checkers})


#: ``getsumm(callee_entry_or_None) -> summary`` — resolves a call
#: target to the current summary, falling back to the checker's
#: conservative ABI default for unknown targets.
SummaryLookup = Callable[[int | None], Any]


def _meet_must(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _meet_height(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a == b else TOP


class Checker:
    """One interprocedural analysis client."""

    #: stable identifier; also the finding rule name.
    name: str = "?"

    def bottom(self) -> Any:
        """Optimistic initial summary for the SCC fixpoint."""
        raise NotImplementedError

    def unknown(self) -> Any:
        """Conservative summary for an unresolvable callee (ABI)."""
        raise NotImplementedError

    def compile_block(self, insns: tuple[Instruction, ...]) -> Any:
        """Distill one block into this checker's transfer *effect*.

        The effect is everything :meth:`apply` needs and nothing that
        depends on the incoming fact or on a summary: a direct call
        stays a lookup of its target at its position (``None`` stands
        for an indirect call, which takes :meth:`unknown`).  Checkers
        without a dataflow fact keep this default.
        """
        return None

    def apply(self, effect: Any, fact: Any, getsumm: SummaryLookup) -> Any:
        """The block transfer: ``fact`` through a compiled ``effect``.

        Equal to folding the block's instructions one by one
        (``tests/analyses/test_block_effects.py`` keeps that fold as
        the oracle).
        """
        raise NotImplementedError

    def analyze(self, plan: FuncPlan, getsumm: SummaryLookup
                ) -> tuple[Any, list[dict]]:
        """Analyze one function; return (summary, raw findings).

        Raw findings are ``{"rule", "address", "detail"}`` — the
        scheduler adds binary/function attribution.
        """
        raise NotImplementedError

    def _solve(self, plan: FuncPlan, getsumm: SummaryLookup, boundary: Any,
               meet: Callable[[Any, Any], Any]) -> tuple[list, list]:
        """Forward fixpoint of :meth:`apply` over the plan (entry fact
        ``boundary``, ``None`` = unreached): in/out facts per block."""
        effects = plan.effects[self.name]
        problem = DataflowProblem(
            direction=Direction.FORWARD, boundary=boundary, init=None,
            meet=meet,
            transfer=functools.partial(self.apply, getsumm=getsumm))
        in_facts, out_facts, _ = run_worklist(
            problem, effects, plan.preds, plan.succs, plan.at_entry,
            range(len(effects)))
        return in_facts, out_facts


# Op kinds of a callee-saved block effect.
_SAVE, _RESTORE, _CLOBBER, _CALL = range(4)


class CalleeSavedChecker(Checker):
    """Callee-saved-register discipline (default set: ``{FP}``).

    Forward analysis of the *dirty* set — checked registers written
    without a prior save on some path — paired with the *saved* set
    (must-saved on all paths).  ``ENTER`` saves FP, ``LEAVE`` restores
    it; ``PUSH r``/``POP r`` save/restore any checked register.  A call
    adds the callee's may-clobber summary minus the saved set; the
    summary is the union of dirty sets over all exits, so clobbers
    propagate transitively up the call graph.

    Block effect: the ``(kind, mask-or-target)`` ops that touch a
    checked register, adjacent ops of one kind merged — empty for most
    blocks.
    """

    name = "callee-saved"

    def __init__(self, checked=(Reg.FP,)):
        self.checked = mask_of(checked)

    def bottom(self) -> int:
        return 0

    def unknown(self) -> int:
        return 0  # ABI: unknown callees preserve callee-saved registers

    @staticmethod
    def _meet(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (a[0] | b[0], a[1] & b[1])

    def compile_block(self, insns):
        checked = self.checked
        ops: list[tuple[int, int]] = []
        for insn in insns:
            op = insn.opcode
            if op is Opcode.ENTER:
                kind, arg = _SAVE, _FP_BIT
            elif op is Opcode.LEAVE:
                kind, arg = _RESTORE, _FP_BIT
            elif op is Opcode.PUSH:
                kind, arg = _SAVE, (1 << insn.operands[0]) & checked
            elif op is Opcode.POP:
                kind, arg = _RESTORE, (1 << insn.operands[0]) & checked
            elif op is Opcode.CALL:
                ops.append((_CALL, insn.direct_target))
                continue
            elif op is Opcode.ICALL:
                kind, arg = _CLOBBER, self.unknown() & checked
            else:
                kind, arg = _CLOBBER, insn.written_mask() & checked
            if not arg:
                continue
            if ops and ops[-1][0] == kind:
                ops[-1] = (kind, ops[-1][1] | arg)
            else:
                ops.append((kind, arg))
        return tuple(ops)

    def apply(self, effect, fact, getsumm):
        if fact is None or not effect:
            return fact
        dirty, saved = fact
        for kind, arg in effect:
            if kind == _SAVE:
                saved |= arg
            elif kind == _RESTORE:
                dirty &= ~arg
            elif kind == _CLOBBER:
                dirty |= arg & ~saved
            else:
                dirty |= getsumm(arg) & self.checked & ~saved
        return (dirty, saved)

    def analyze(self, plan: FuncPlan, getsumm: SummaryLookup
                ) -> tuple[int, list[dict]]:
        _, out_facts = self._solve(plan, getsumm, (0, 0), self._meet)
        summary = 0
        findings: list[dict] = []
        for i, kind, addr, target in plan.exits:
            fact = out_facts[i]
            if fact is None:
                continue  # unreachable exit
            dirty, saved = fact
            if kind == "tailcall":
                dirty |= getsumm(target) & self.checked & ~saved
            summary |= dirty
            for reg in regs_in(dirty):
                findings.append({
                    "rule": self.name, "address": addr,
                    "detail": f"callee-saved {reg.name} clobbered "
                              f"without restore on a {kind} path"})
        return summary, findings


class UninitRegChecker(Checker):
    """Use of a maybe-uninitialized register (``R0``–``R7``).

    Forward must-defined analysis over bit vectors: entry defines the
    argument registers ``R1``–``R3``; a call replaces the caller-saved
    half with the callee's must-defined-at-return summary (unknown
    callees define only ``R0``); scratch registers ``R8``–``R15``
    survive calls but are never assumed defined at entry — reads of
    them are not checked (no ABI contract).  A read of a checked
    register outside the must-defined set is flagged.

    Block effect ``(calls, gen, exposed, late)``: ``calls`` holds
    ``(general-purpose writes since the previous call, target)`` per
    call, ``gen`` the writes after the last one; ``exposed`` are the
    checked reads that see the block's incoming fact (no write, no
    call before them) and ``late`` those that see a callee's summary
    instead — the reporting walk enters a block only for these.
    """

    name = "uninit-reg"

    _FULL = _GP_MASK
    _CHECKED_READS = _CALLER_SAVED

    def bottom(self) -> int:
        return self._FULL  # optimistic top of the must-lattice

    def unknown(self) -> int:
        return _R0_BIT  # ABI: an unknown callee defines its return value

    def compile_block(self, insns):
        calls: list[tuple[int, int | None]] = []
        gen = local = exposed = late = 0
        for insn in insns:
            op = insn.opcode
            if op is not Opcode.RET:  # RET's R0/SP reads: ABI formalities
                reads = insn.read_mask() & self._CHECKED_READS & ~local
                if calls:
                    late |= reads
                else:
                    exposed |= reads
            if op is Opcode.CALL or op is Opcode.ICALL:
                calls.append((gen, insn.direct_target))
                gen = 0
                local &= ~_CALLER_SAVED
            else:
                written = insn.written_mask() & _GP_MASK
                gen |= written
                local |= written
        return tuple(calls), gen, exposed, late

    def apply(self, effect, fact, getsumm):
        if fact is None:
            return None
        calls, gen, _, _ = effect
        for before, target in calls:
            summ = self.unknown() if target is None else getsumm(target)
            fact = ((fact | before) & ~_CALLER_SAVED) \
                | (summ & _CALLER_SAVED)
        return fact | gen

    def _step(self, insn, defined: int, getsumm: SummaryLookup) -> int:
        op = insn.opcode
        if op is Opcode.CALL:
            summ = getsumm(insn.direct_target)
            return (defined & ~_CALLER_SAVED) | (summ & _CALLER_SAVED)
        if op is Opcode.ICALL:
            return (defined & ~_CALLER_SAVED) | _R0_BIT
        return defined | (insn.written_mask() & _GP_MASK)

    def analyze(self, plan: FuncPlan, getsumm: SummaryLookup
                ) -> tuple[int, list[dict]]:
        in_facts, out_facts = self._solve(plan, getsumm, _ARG_MASK,
                                          _meet_must)
        findings: list[dict] = []
        for (_, _, exposed, late), defined, insns in zip(
                plan.effects[self.name], in_facts, plan.insns):
            if defined is None or not (late or exposed & ~defined):
                continue  # unreachable, or nothing here can be undefined
            for insn in insns:
                if not insn.is_ret:
                    undef = (insn.read_mask() & self._CHECKED_READS
                             & ~defined)
                    for reg in regs_in(undef):
                        findings.append({
                            "rule": self.name, "address": insn.address,
                            "detail": f"read of maybe-uninitialized "
                                      f"{reg.name}"})
                defined = self._step(insn, defined, getsumm)

        summary = self._FULL
        have_ret = False
        for i, kind, _, _ in plan.exits:
            if kind == "ret" and out_facts[i] is not None:
                summary &= out_facts[i]
                have_ret = True
        if not have_ret:
            summary = self.bottom()  # no returns: summary never consumed
        return summary, findings


class StackBalanceChecker(Checker):
    """Interprocedural stack-height balance.

    Forward height analysis (entry height 0) where a call site adds the
    callee's net stack delta summary; ``LEAVE`` re-anchors the height
    to 0 (frame restore), conflicting heights meet to ``TOP``.  A
    return — or a tail call — at a *definite* nonzero height is
    flagged; ``TOP`` heights stay silent (unknown is not a finding).
    The summary is the join of heights at return exits.

    Block effect ``(anchored, delta, calls)``: whether a ``LEAVE``
    re-anchors the height, then the net static displacement (``TOP``
    if an instruction's is unknown) and the call targets *after* the
    last ``LEAVE`` — what precedes it cannot reach the block's end.
    """

    name = "stack-balance"

    def bottom(self):
        return None  # join identity: no return path seen yet

    def unknown(self):
        return 0  # ABI: unknown callees are balanced

    def join(self, a, b):
        return _meet_height(a, b)

    def compile_block(self, insns):
        anchored = False
        delta: Any = 0
        calls: list[int | None] = []
        for insn in insns:
            op = insn.opcode
            if op is Opcode.LEAVE:
                anchored, delta, calls = True, 0, []
            elif op is Opcode.CALL or op is Opcode.ICALL:
                calls.append(insn.direct_target)
            elif delta != TOP:
                d = insn.sp_delta()
                delta = TOP if d is None else delta + d
        return anchored, delta, tuple(calls)

    def apply(self, effect, h, getsumm):
        if h is None:
            return None
        anchored, delta, calls = effect
        if anchored:
            h = 0
        # Equality, not identity: a summary equal to TOP need not be
        # the module constant itself.
        if h == TOP or delta == TOP:
            return TOP
        h += delta
        for target in calls:
            d = self.unknown() if target is None else getsumm(target)
            if d == TOP:
                return TOP
            if d is not None:
                h += d
        return h

    def analyze(self, plan: FuncPlan, getsumm: SummaryLookup
                ) -> tuple[Any, list[dict]]:
        _, out_facts = self._solve(plan, getsumm, 0, _meet_height)
        summary = self.bottom()
        findings: list[dict] = []
        for i, kind, addr, _ in plan.exits:
            h = out_facts[i]
            if h is None:
                continue  # unreachable exit
            if kind == "ret":
                summary = self.join(summary, h)
            if h != TOP and h != 0:
                what = ("returns" if kind == "ret" else "tail-calls")
                findings.append({
                    "rule": self.name, "address": addr,
                    "detail": f"{what} at stack height {h:+d} "
                              f"(expected 0)"})
        return summary, findings


class JumpTableBoundsChecker(Checker):
    """Verification of decoded jump tables against the function body.

    No dataflow: the parser already attached a
    :class:`~repro.core.cfg.JumpTableInfo` per indirect jump.  Flags
    unresolved table bases, dispatches with no recoverable bound check
    (the over-approximation trap), targets that land outside the
    owning function, and entries trimmed by overlap finalization.
    """

    name = "jt-bounds"

    def bottom(self):
        return None

    def unknown(self):
        return None

    def analyze(self, plan: FuncPlan, getsumm: SummaryLookup
                ) -> tuple[None, list[dict]]:
        member = set(plan.starts)
        findings: list[dict] = []
        for jt in plan.jump_tables:
            if jt.table_addr is None:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": "indirect jump with unresolved table "
                              "base"})
                continue
            where = f"table@{jt.table_addr:#x}"
            if not jt.bounded:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: no recoverable bound check "
                              f"({jt.n_entries} entries scanned)"})
            outside = sorted(t for t in jt.targets if t not in member)
            if outside:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: {len(outside)} target(s) "
                              f"outside the function (first "
                              f"{outside[0]:#x})"})
            if jt.trimmed:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: {jt.trimmed} entries trimmed "
                              f"by overlap finalization"})
        return None, findings


#: Checker registry (sorted names = canonical check order).
_CHECKER_FACTORIES: dict[str, Callable[[], Checker]] = {
    CalleeSavedChecker.name: CalleeSavedChecker,
    JumpTableBoundsChecker.name: JumpTableBoundsChecker,
    StackBalanceChecker.name: StackBalanceChecker,
    UninitRegChecker.name: UninitRegChecker,
}

ALL_CHECKS: tuple[str, ...] = tuple(sorted(_CHECKER_FACTORIES))


def make_checker(name: str) -> Checker:
    """Instantiate a registered checker by name."""
    name, = resolve_checks((name,))  # ValueError names the choices
    return _CHECKER_FACTORIES[name]()


def resolve_checks(spec: str | list[str] | tuple[str, ...] | None
                   ) -> tuple[str, ...]:
    """Normalize a check selection ('all', comma list, or sequence)."""
    if spec is None or spec == "all":
        return ALL_CHECKS
    names = ([s.strip() for s in spec.split(",") if s.strip()]
             if isinstance(spec, str) else list(spec))
    if not names:
        raise ValueError(f"no check selected; choose from "
                         f"{', '.join(ALL_CHECKS)}")
    for n in names:
        if n not in _CHECKER_FACTORIES:
            raise ValueError(
                f"unknown check {n!r}; choose from "
                f"{', '.join(ALL_CHECKS)}")
    return tuple(sorted(set(names)))
