"""The def/use table against an independent oracle.

``ref_read`` / ``ref_written`` are the two ``if`` chains that were
``Instruction.regs_read`` / ``regs_written`` before the table in
:mod:`repro.isa.instructions` replaced them, kept verbatim.  The sweep
iterates :class:`Opcode` — not the table — so an opcode added without a
table row fails here by construction.
"""

from __future__ import annotations

import itertools

import pytest

from repro.isa import Cond, Instruction, Opcode, Reg
from repro.isa.encoding import _LAYOUT, instruction_length
from repro.isa.registers import mask_of, regs_in


def ref_read(op, o) -> frozenset[Reg]:
    if op is Opcode.MOV_RR:
        return frozenset({Reg(o[1])})
    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.XOR,
              Opcode.AND, Opcode.OR):
        return frozenset({Reg(o[0]), Reg(o[1])})
    if op is Opcode.ADDI:
        return frozenset({Reg(o[0])})
    if op is Opcode.CMP_RI:
        return frozenset({Reg(o[0])})
    if op is Opcode.CMP_RR:
        return frozenset({Reg(o[0]), Reg(o[1])})
    if op is Opcode.LOAD:
        return frozenset({Reg(o[1])})
    if op is Opcode.STORE:
        return frozenset({Reg(o[0]), Reg(o[2])})
    if op is Opcode.LOADIDX:
        return frozenset({Reg(o[1]), Reg(o[2])})
    if op is Opcode.PUSH:
        return frozenset({Reg(o[0]), Reg.SP})
    if op is Opcode.POP:
        return frozenset({Reg.SP})
    if op is Opcode.ENTER:
        return frozenset({Reg.SP, Reg.FP})
    if op is Opcode.LEAVE:
        return frozenset({Reg.FP})
    if op is Opcode.JCC:
        return frozenset({Reg.FLAGS})
    if op in (Opcode.ICALL, Opcode.IJMP):
        return frozenset({Reg(o[0])})
    if op is Opcode.RET:
        return frozenset({Reg.SP, Reg.R0})
    return frozenset()


def ref_written(op, o) -> frozenset[Reg]:
    if op in (Opcode.MOV_RI, Opcode.MOV_RR, Opcode.ADD, Opcode.SUB,
              Opcode.MUL, Opcode.XOR, Opcode.AND, Opcode.OR,
              Opcode.ADDI, Opcode.LOAD, Opcode.LOADIDX, Opcode.LEA):
        return frozenset({Reg(o[0])})
    if op in (Opcode.CMP_RI, Opcode.CMP_RR):
        return frozenset({Reg.FLAGS})
    if op is Opcode.PUSH:
        return frozenset({Reg.SP})
    if op is Opcode.POP:
        return frozenset({Reg(o[0]), Reg.SP})
    if op is Opcode.ENTER:
        return frozenset({Reg.SP, Reg.FP})
    if op is Opcode.LEAVE:
        return frozenset({Reg.SP, Reg.FP})
    if op in (Opcode.CALL, Opcode.ICALL):
        # Calls clobber the caller-saved half of the register file.
        return frozenset({Reg.R0, Reg.R1, Reg.R2, Reg.R3,
                          Reg.R4, Reg.R5, Reg.R6, Reg.R7})
    return frozenset()


#: Every value a field of each kind is swept over.
_FIELD_VALUES = {
    "r": [int(r) for r in Reg],
    "c": [int(c) for c in Cond],
    # both sides of the signed boundary: test_teardown.py sweeps these too
    "i32": [0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1],
    "i16": [0, (1 << 16) - 1],
}


def _every_operand_tuple(op):
    return itertools.product(*(_FIELD_VALUES[k] for k in _LAYOUT[op]))


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_masks_and_sets_equal_the_reference(op):
    for operands in _every_operand_tuple(op):
        insn = Instruction(address=0x1000, opcode=op, operands=operands,
                           length=instruction_length(op))
        want_r, want_w = ref_read(op, operands), ref_written(op, operands)
        assert insn.read_mask() == sum(1 << r for r in want_r), insn
        assert insn.written_mask() == sum(1 << r for r in want_w), insn
        got_r, got_w = insn.regs_read(), insn.regs_written()
        assert got_r == want_r and got_w == want_w, insn
        assert isinstance(got_r, frozenset) and isinstance(got_w, frozenset)
        assert all(type(r) is Reg for r in got_r | got_w), insn


def test_sets_are_interned_per_mask():
    a = Instruction(0x10, Opcode.ADD, (Reg.R1, Reg.R2), 3)
    b = Instruction(0x20, Opcode.CMP_RR, (Reg.R2, Reg.R1), 3)
    assert a.regs_read() is b.regs_read()


def test_mask_helpers_round_trip():
    for regs in ((), (Reg.R0,), (Reg.FLAGS, Reg.R3, Reg.SP), tuple(Reg)):
        assert regs_in(mask_of(regs)) == tuple(sorted(regs))
    assert all(type(r) is Reg for r in regs_in((1 << len(Reg)) - 1))
    with pytest.raises(ValueError):
        regs_in(1 << len(Reg))
