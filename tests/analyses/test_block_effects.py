"""Block effects compose like instructions.

Each dataflow checker compiles a block into an *effect* once and
applies it in the fixpoint.  The oracle here is the transfer the
checkers ran before the plans existed — one fold over the block's
instructions per visit — kept verbatim; the property is that
``apply(compile_block(insns), fact, getsumm)`` equals that fold for
any instruction sequence (calls in the middle of it included, which
the parser never produces today), any incoming fact and any summaries.

Runs on a fixed seed grid always (the no-hypothesis CI job executes
exactly this) and under Hypothesis, with the seed as the fuzzed input,
where it is installed.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analyses.checkers import (
    TOP,
    CalleeSavedChecker,
    StackBalanceChecker,
    UninitRegChecker,
)
from repro.isa import Instruction, Opcode, Reg
from repro.isa.encoding import _LAYOUT, instruction_length
from repro.isa.registers import mask_of

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # minimal install: seeded grid only
    HAVE_HYPOTHESIS = False

SEEDS = range(60)
CASES_PER_SEED = 40

#: An equal-but-not-identical TOP, as a summary that crossed a process
#: boundary arrives.
TOP_COPY = pickle.loads(pickle.dumps(TOP))
if TOP_COPY is TOP:  # in case unpickling ever interns
    TOP_COPY = "".join(TOP)
assert TOP_COPY == TOP and TOP_COPY is not TOP

_CALLER_SAVED = (1 << 8) - 1
_GP_MASK = (1 << 16) - 1
_FP_BIT = 1 << Reg.FP
_R0_BIT = 1 << Reg.R0


# -- the oracles: the pre-plan transfers, one instruction at a time ---------

def oracle_callee_saved(checker, insns, fact, getsumm):
    if fact is None:
        return None
    dirty, saved = fact
    for insn in insns:
        op = insn.opcode
        if op is Opcode.ENTER:
            saved |= _FP_BIT
        elif op is Opcode.LEAVE:
            dirty &= ~_FP_BIT
        elif op is Opcode.PUSH:
            saved |= (1 << insn.operands[0]) & checker.checked
        elif op is Opcode.POP:
            dirty &= ~((1 << insn.operands[0]) & checker.checked)
        elif op is Opcode.CALL:
            clobber = getsumm(insn.direct_target) & checker.checked
            dirty |= clobber & ~saved
        elif op is Opcode.ICALL:
            clobber = checker.unknown() & checker.checked
            dirty |= clobber & ~saved
        else:
            w = mask_of(insn.regs_written()) & checker.checked
            dirty |= w & ~saved
    return (dirty, saved)


def oracle_uninit_reg(checker, insns, fact, getsumm):
    if fact is None:
        return None
    defined = fact
    for insn in insns:
        op = insn.opcode
        if op is Opcode.CALL:
            summ = getsumm(insn.direct_target)
            defined = (defined & ~_CALLER_SAVED) | (summ & _CALLER_SAVED)
        elif op is Opcode.ICALL:
            defined = (defined & ~_CALLER_SAVED) | _R0_BIT
        else:
            defined |= mask_of(insn.regs_written()) & _GP_MASK
    return defined


def oracle_stack_balance(checker, insns, h, getsumm):
    if h is None:
        return None
    for insn in insns:
        op = insn.opcode
        if op is Opcode.LEAVE:
            h = 0  # frame restored to call-time height
            continue
        if h == TOP:
            continue
        if op is Opcode.CALL:
            d = getsumm(insn.direct_target)
            h = TOP if d == TOP else (h if d is None else h + d)
            continue
        if op is Opcode.ICALL:
            d = checker.unknown()
            h = TOP if d == TOP else h + d
            continue
        d = insn.sp_delta()
        h = TOP if d is None else h + d
    return h


def oracle_exposed_reads(insns, defined, getsumm):
    """Checked reads the pre-plan reporting walk would have flagged."""
    checker = UninitRegChecker()
    flagged = []
    for insn in insns:
        if not insn.is_ret:
            undef = (mask_of(insn.regs_read()) & _CALLER_SAVED & ~defined)
            if undef:
                flagged.append((insn.address, undef))
        defined = oracle_uninit_reg(checker, (insn,), defined, getsumm)
    return flagged


# -- generators --------------------------------------------------------------

#: Block-ending opcodes other than calls never sit inside a block.
_BODY_OPS = [op for op in Opcode
             if op not in (Opcode.JMP, Opcode.JCC, Opcode.IJMP,
                           Opcode.RET, Opcode.HALT)]
#: Drawn more often than their share of the opcode list.
_STACK_OPS = [Opcode.PUSH, Opcode.POP, Opcode.ENTER, Opcode.LEAVE,
              Opcode.CALL, Opcode.ICALL, Opcode.ADDI]
#: Checked by some checker (FP, R0–R7), unchecked (R8–R15), and SP.
_REGS = [int(r) for r in Reg if r is not Reg.FLAGS]
_TARGETS = (0x4000, 0x4100, 0x4200, 0x4300)


def random_insn(rng: random.Random, address: int) -> Instruction:
    op = rng.choice(_STACK_OPS if rng.random() < 0.5 else _BODY_OPS)
    operands = []
    for kind in _LAYOUT[op]:
        if kind == "r":
            operands.append(rng.choice(_REGS))
        elif op is Opcode.CALL:
            operands.append(rng.choice(_TARGETS))
        elif kind == "i16":
            operands.append(rng.choice((0, 8, 16, 0xFFFF)))
        else:
            operands.append(rng.choice((0, 8, 16, (1 << 32) - 8,
                                        (1 << 32) - 1)))
    return Instruction(address=address, opcode=op, operands=tuple(operands),
                       length=instruction_length(op))


def random_block(rng: random.Random) -> tuple[Instruction, ...]:
    insns = [random_insn(rng, 0x1000 + 16 * i)
             for i in range(rng.randint(0, 10))]
    if insns and rng.random() < 0.3:
        insns.append(Instruction(0x2000, Opcode.RET, (),
                                 instruction_length(Opcode.RET)))
    return tuple(insns)


def random_lookup(rng: random.Random, values):
    table = {t: rng.choice(values) for t in _TARGETS}
    return table.__getitem__


def check_callee_saved(rng: random.Random):
    checked = rng.choice(((Reg.FP,), (Reg.FP, Reg.R9, Reg.R4), ()))
    checker = CalleeSavedChecker(checked)
    universe = checker.checked | _FP_BIT
    insns = random_block(rng)
    fact = rng.choice((None, (0, 0), (rng.getrandbits(19) & universe,
                                      rng.getrandbits(19) & universe)))
    getsumm = random_lookup(
        rng, (0, checker.checked, rng.getrandbits(19)))
    got = checker.apply(checker.compile_block(insns), fact, getsumm)
    assert got == oracle_callee_saved(checker, insns, fact, getsumm), insns


def check_uninit_reg(rng: random.Random):
    checker = UninitRegChecker()
    insns = random_block(rng)
    fact = rng.choice((None, 0, rng.getrandbits(16), _GP_MASK))
    getsumm = random_lookup(rng, (0, _R0_BIT, rng.getrandbits(16),
                                  _GP_MASK))
    effect = checker.compile_block(insns)
    got = checker.apply(effect, fact, getsumm)
    assert got == oracle_uninit_reg(checker, insns, fact, getsumm), insns
    # The walk may skip a block only if nothing in it would be flagged.
    if fact is not None:
        _, _, exposed, late = effect
        if not (late or exposed & ~fact):
            assert oracle_exposed_reads(insns, fact, getsumm) == [], insns


def check_stack_balance(rng: random.Random):
    checker = StackBalanceChecker()
    insns = random_block(rng)
    fact = rng.choice((None, 0, -8, rng.randrange(-64, 64), TOP, TOP_COPY))
    getsumm = random_lookup(rng, (None, 0, 8, -16, TOP, TOP_COPY))
    got = checker.apply(checker.compile_block(insns), fact, getsumm)
    assert got == oracle_stack_balance(checker, insns, fact, getsumm), insns


ALL_CHECKS = (check_callee_saved, check_uninit_reg, check_stack_balance)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_effect_equals_instruction_fold(check, seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        check(rng)


def test_leave_after_top_reanchors():
    """The case the effect's ``anchored`` flag exists for."""
    checker = StackBalanceChecker()
    leave = Instruction(0x10, Opcode.LEAVE, (), 1)
    push = Instruction(0x11, Opcode.PUSH, (int(Reg.R9),), 2)
    call = Instruction(0x13, Opcode.CALL, (0x4000,), 5)
    effect = checker.compile_block((call, leave, push))
    for fact in (TOP, TOP_COPY, 24):
        assert checker.apply(effect, fact, lambda t: TOP_COPY) == -8
    assert checker.apply(effect, None, lambda t: 0) is None
    # A call after the LEAVE still reaches the end of the block.
    effect = checker.compile_block((leave, push, call))
    assert checker.apply(effect, TOP, lambda t: TOP_COPY) == TOP
    assert checker.apply(effect, TOP, lambda t: None) == -8


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("check", ALL_CHECKS,
                             ids=lambda c: c.__name__)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_effect_equals_instruction_fold_fuzzed(check, seed):
        check(random.Random(seed))

else:

    def test_hypothesis_fallback_active():
        """Makes visible in -v output that this run exercised only the
        seeded grid."""
        assert not HAVE_HYPOTHESIS
