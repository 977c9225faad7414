"""Unit tests for instruction classification and def/use sets."""

import pickle

import pytest

from repro.isa import Cond, ControlFlowKind, Instruction, Opcode, Reg
from repro.isa.columns import pack_instructions, unpack_instructions
from repro.isa.decoder import Decoder
from repro.isa.encoding import decode, instruction_length
from repro.synth import tiny_binary


def make(op, *operands, address=0x1000):
    return Instruction(address=address, opcode=op, operands=tuple(operands),
                       length=instruction_length(op))


class TestClassification:
    def test_nop_is_not_control_flow(self):
        i = make(Opcode.NOP)
        assert not i.is_control_flow
        assert i.cf_kind is ControlFlowKind.NONE
        assert i.falls_through

    def test_jmp_is_direct_jump(self):
        i = make(Opcode.JMP, 0x2000)
        assert i.is_control_flow
        assert i.cf_kind is ControlFlowKind.DIRECT_JUMP
        assert i.is_branch and not i.is_call and not i.is_cond
        assert not i.falls_through
        assert i.direct_target == 0x2000

    def test_jcc_falls_through_and_targets(self):
        i = make(Opcode.JCC, Cond.EQ, 0x2000)
        assert i.cf_kind is ControlFlowKind.COND_JUMP
        assert i.falls_through
        assert i.is_cond
        assert i.direct_target == 0x2000
        assert i.cond is Cond.EQ

    def test_call_classification(self):
        i = make(Opcode.CALL, 0x3000)
        assert i.is_call
        assert i.cf_kind is ControlFlowKind.CALL
        assert i.falls_through  # architectural fall-through
        assert i.direct_target == 0x3000

    def test_icall_has_no_direct_target(self):
        i = make(Opcode.ICALL, Reg.R3)
        assert i.is_call
        assert i.direct_target is None
        assert i.cf_kind is ControlFlowKind.INDIRECT_CALL

    def test_ijmp(self):
        i = make(Opcode.IJMP, Reg.R5)
        assert i.cf_kind is ControlFlowKind.INDIRECT_JUMP
        assert not i.falls_through
        assert i.direct_target is None

    def test_ret(self):
        i = make(Opcode.RET)
        assert i.is_ret
        assert not i.falls_through

    def test_halt(self):
        i = make(Opcode.HALT)
        assert i.is_control_flow
        assert not i.falls_through
        assert i.cf_kind is ControlFlowKind.HALT

    def test_end_address(self):
        i = make(Opcode.MOV_RI, Reg.R1, 42, address=0x100)
        assert i.end == 0x100 + instruction_length(Opcode.MOV_RI)

    @pytest.mark.parametrize("op", [Opcode.NOP, Opcode.ADD, Opcode.LOAD,
                                    Opcode.PUSH, Opcode.LEAVE])
    def test_non_cf_opcodes(self, op):
        operands = {
            Opcode.NOP: (), Opcode.ADD: (Reg.R1, Reg.R2),
            Opcode.LOAD: (Reg.R1, Reg.R2, 8), Opcode.PUSH: (Reg.R1,),
            Opcode.LEAVE: (),
        }[op]
        assert not make(op, *operands).is_control_flow


class TestDefUse:
    def test_mov_ri_defs(self):
        i = make(Opcode.MOV_RI, Reg.R4, 7)
        assert i.regs_written() == {Reg.R4}
        assert i.regs_read() == frozenset()

    def test_add_reads_both(self):
        i = make(Opcode.ADD, Reg.R1, Reg.R2)
        assert i.regs_read() == {Reg.R1, Reg.R2}
        assert i.regs_written() == {Reg.R1}

    def test_cmp_writes_flags(self):
        i = make(Opcode.CMP_RI, Reg.R1, 10)
        assert Reg.FLAGS in i.regs_written()
        assert i.regs_read() == {Reg.R1}

    def test_jcc_reads_flags(self):
        i = make(Opcode.JCC, Cond.A, 0x2000)
        assert Reg.FLAGS in i.regs_read()

    def test_loadidx_reads_base_and_index(self):
        i = make(Opcode.LOADIDX, Reg.R1, Reg.R2, Reg.R3)
        assert i.regs_read() == {Reg.R2, Reg.R3}
        assert i.regs_written() == {Reg.R1}

    def test_store_reads_base_and_value(self):
        i = make(Opcode.STORE, Reg.R2, 16, Reg.R1)
        assert i.regs_read() == {Reg.R1, Reg.R2}
        assert i.regs_written() == frozenset()

    def test_call_clobbers_caller_saved(self):
        i = make(Opcode.CALL, 0x1000)
        written = i.regs_written()
        assert Reg.R0 in written and Reg.R7 in written
        assert Reg.R8 not in written  # callee-saved preserved

    def test_push_pop_touch_sp(self):
        push = make(Opcode.PUSH, Reg.R1)
        pop = make(Opcode.POP, Reg.R1)
        assert Reg.SP in push.regs_written() and Reg.SP in push.regs_read()
        assert Reg.SP in pop.regs_written()
        assert Reg.R1 in pop.regs_written()


class TestStackEffects:
    def test_push_delta(self):
        assert make(Opcode.PUSH, Reg.R1).sp_delta() == -8

    def test_pop_delta(self):
        assert make(Opcode.POP, Reg.R1).sp_delta() == 8

    def test_enter_delta(self):
        assert make(Opcode.ENTER, 32).sp_delta() == -40  # push fp + frame

    def test_leave_delta_unknown(self):
        assert make(Opcode.LEAVE).sp_delta() is None

    def test_addi_sp_signed(self):
        neg16 = (1 << 32) - 16
        assert make(Opcode.ADDI, Reg.SP, neg16).sp_delta() == -16
        assert make(Opcode.ADDI, Reg.SP, 16).sp_delta() == 16

    def test_addi_non_sp_is_neutral(self):
        assert make(Opcode.ADDI, Reg.R1, 16).sp_delta() == 0


class TestRegisters:
    def test_gp_classification(self):
        assert Reg.R0.is_gp and Reg.R15.is_gp
        assert not Reg.SP.is_gp and not Reg.FLAGS.is_gp

    def test_named_accessors_raise_on_mismatch(self):
        with pytest.raises(AttributeError):
            _ = make(Opcode.NOP).dst
        with pytest.raises(AttributeError):
            _ = make(Opcode.RET).imm
        with pytest.raises(AttributeError):
            _ = make(Opcode.JMP, 0x10).cond


class TestInstructionContract:
    """What sharing decoded instructions between threads and shipping
    them between processes relies on: value hashing, pickling,
    immutability, and one type from every place that builds one."""

    SAMPLES = [
        (0x1000, Opcode.NOP, ()),
        (0x1001, Opcode.JCC, (int(Cond.A), 0x2000)),
        (0x4000_0000_0000, Opcode.LOAD, (3, 4, 0xFFFF_FFF0)),
        (0x2000, Opcode.ENTER, (0x40,)),
    ]

    def instructions(self):
        return [make(op, *ops, address=addr)
                for addr, op, ops in self.SAMPLES]

    def test_hash_is_the_field_tuple_hash(self):
        for i in self.instructions():
            assert hash(i) == hash((i.address, i.opcode, i.operands,
                                    i.length))

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_round_trips(self, protocol):
        for i in self.instructions():
            back = pickle.loads(pickle.dumps(i, protocol))
            assert back == i and type(back) is Instruction
            assert back.operands == i.operands

    def test_attributes_cannot_be_set(self):
        i = make(Opcode.ADD, 1, 2)
        for name in ("address", "opcode", "operands", "length", "other"):
            with pytest.raises(AttributeError):
                setattr(i, name, 0)
        assert (i.address, i.operands) == (0x1000, (1, 2))

    def test_repr_names_the_fields(self):
        assert repr(make(Opcode.PUSH, 3)) == (
            "Instruction(address=4096, opcode=<Opcode.PUSH: 18>, "
            "operands=(3,), length=2)")

    def test_every_builder_yields_equal_instructions(self):
        text = tiny_binary(seed=5, n_functions=12).binary.image.text
        dec = Decoder(text.data, text.addr)
        scanned, addr = {}, dec.base
        while addr < dec.limit:
            insns, _cf, _misses = dec.scan_run(addr, scanned)
            addr = insns[-1].end if insns else addr + 1
        assert len(scanned) > 100
        shipped = unpack_instructions(pack_instructions(scanned))
        for a, i in scanned.items():
            decoded = decode(text.data, a - text.addr, a)
            for built in (i, decoded, shipped[a]):
                assert type(built) is Instruction
                assert built == i and hash(built) == hash(i)
