"""The frame-teardown predicate against ``sp_delta()``.

``has_teardown`` states once what ``ParallelParser._parse_block`` and
``Block.truncate`` each spelled as ``opcode is LEAVE or (sp_delta() or
0) > 0``; that expression is the oracle here.  The sweep iterates
:class:`Opcode`, so a new opcode with a stack effect and no entry in
the predicate's table fails by construction.
"""

from __future__ import annotations

import pytest

from repro.isa import Instruction, Opcode, Reg, has_teardown
from repro.isa.encoding import instruction_length
from tests.isa.test_defuse import _every_operand_tuple


def _every_instruction(op: Opcode):
    for operands in _every_operand_tuple(op):
        yield Instruction(0x1000, op, operands, instruction_length(op))


def ref_teardown(insn: Instruction) -> bool:
    return insn.opcode is Opcode.LEAVE or (insn.sp_delta() or 0) > 0


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_predicate_equals_sp_delta(op):
    for insn in _every_instruction(op):
        assert has_teardown([insn]) is ref_teardown(insn), insn


def test_any_instruction_of_a_block_counts():
    quiet = Instruction(0x10, Opcode.PUSH, (Reg.R1,), 2)
    loud = Instruction(0x12, Opcode.ADDI, (Reg.SP, 16), 6)
    assert not has_teardown([])
    assert not has_teardown([quiet, quiet])
    assert has_teardown([quiet, loud]) and has_teardown([loud, quiet])
    assert has_teardown(iter([quiet, loud]))
