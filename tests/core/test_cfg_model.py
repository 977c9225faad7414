"""Unit tests for the mutable CFG data model and the read-only view."""

import pytest

from repro.core.cfg import (
    Block,
    Edge,
    EdgeType,
    Function,
    JumpTableInfo,
    ParseStats,
    ParsedCFG,
    ReturnStatus,
)
from repro.isa import Instruction, Opcode, Reg
from repro.isa.encoding import instruction_length


def mk_insn(op, *operands, address=0):
    return Instruction(address, op, tuple(operands),
                       instruction_length(op))


def block_with(start, ops):
    b = Block(start)
    addr = start
    insns = []
    for op, *operands in ops:
        i = mk_insn(op, *operands, address=addr)
        insns.append(i)
        addr = i.end
    b.insns = insns
    b.end = addr
    if insns and insns[-1].is_control_flow:
        b.last_kind = insns[-1].cf_kind
    return b


class TestBlock:
    def test_candidate_state(self):
        b = Block(0x100)
        assert b.is_candidate
        assert not b.is_empty

    def test_empty_block(self):
        b = Block(0x100)
        b.end = 0x100
        assert b.is_empty
        assert not b.is_candidate

    def test_range(self):
        b = block_with(0x100, [(Opcode.NOP,), (Opcode.RET,)])
        assert b.range == (0x100, 0x102)

    def test_truncate_partitions_insns(self):
        b = block_with(0x100, [(Opcode.NOP,), (Opcode.NOP,),
                               (Opcode.RET,)])
        dropped = b.truncate(0x101)
        assert b.end == 0x101
        assert len(b.insns) == 1
        assert len(dropped) == 2
        assert b.last_kind is None

    def test_truncate_recomputes_teardown(self):
        b = block_with(0x100, [(Opcode.LEAVE,), (Opcode.NOP,),
                               (Opcode.RET,)])
        b.has_teardown = True
        b.truncate(0x101)   # keeps only LEAVE
        assert b.has_teardown
        b2 = block_with(0x200, [(Opcode.NOP,), (Opcode.LEAVE,),
                                (Opcode.RET,)])
        b2.truncate(0x201)  # drops the LEAVE
        assert not b2.has_teardown


class TestEdgeTypes:
    def test_interprocedural_classification(self):
        assert EdgeType.CALL.interprocedural
        assert EdgeType.TAILCALL.interprocedural
        for et in (EdgeType.DIRECT, EdgeType.COND_TAKEN,
                   EdgeType.COND_FALLTHROUGH, EdgeType.FALLTHROUGH,
                   EdgeType.CALL_FT, EdgeType.INDIRECT):
            assert et.intraprocedural

    def test_edge_flip_flag(self):
        a, b = Block(0x1), Block(0x2)
        e = Edge(a, b, EdgeType.DIRECT)
        assert not e.flipped


class TestFunction:
    def test_ranges_merge_adjacent(self):
        f = Function(0x100, "f", Block(0x100), True)
        f.blocks = [block_with(0x100, [(Opcode.NOP,)]),
                    block_with(0x101, [(Opcode.NOP,)]),
                    block_with(0x200, [(Opcode.RET,)])]
        assert f.ranges() == [(0x100, 0x102), (0x200, 0x201)]

    def test_ranges_skip_empty_blocks(self):
        f = Function(0x100, "f", Block(0x100), True)
        empty = Block(0x150)
        empty.end = 0x150
        f.blocks = [block_with(0x100, [(Opcode.RET,)]), empty]
        assert f.ranges() == [(0x100, 0x101)]

    def test_initial_status(self):
        f = Function(0x100, "f", Block(0x100), True)
        assert f.status is ReturnStatus.UNSET
        assert f.from_symtab


class TestParsedCFG:
    def build(self):
        b1 = block_with(0x100, [(Opcode.CALL, 0x200)])
        b2 = block_with(0x200, [(Opcode.RET,)])
        e = Edge(b1, b2, EdgeType.CALL)
        b1.out_edges.append(e)
        b2.in_edges.append(e)
        ft = block_with(0x105, [(Opcode.RET,)])
        e2 = Edge(b1, ft, EdgeType.CALL_FT)
        b1.out_edges.append(e2)
        ft.in_edges.append(e2)
        f1 = Function(0x100, "caller", b1, True)
        f1.blocks = [b1, ft]
        f2 = Function(0x200, "callee", b2, True)
        f2.blocks = [b2]
        return ParsedCFG([f2, f1], [b2, b1, ft], [], ParseStats())

    def test_functions_sorted(self):
        cfg = self.build()
        assert [f.addr for f in cfg.functions()] == [0x100, 0x200]
        assert cfg.function_at(0x200).name == "callee"
        assert cfg.function_at(0xDEAD) is None

    def test_blocks_sorted(self):
        cfg = self.build()
        assert [b.start for b in cfg.blocks()] == [0x100, 0x105, 0x200]
        assert cfg.block_at(0x105) is not None
        assert cfg.block_at(0x999) is None

    def test_call_sites(self):
        cfg = self.build()
        assert cfg.call_sites() == {0x100}
        assert cfg.call_ft_sites() == {0x100}

    def test_signature_is_stable(self):
        assert self.build().signature() == self.build().signature()

    def test_to_networkx(self):
        pytest.importorskip("networkx")
        g = self.build().to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2
        assert g.edges[0x100, 0x200]["etype"] is EdgeType.CALL

    def test_edges_collects_all(self):
        assert len(self.build().edges()) == 2


class TestJumpTableInfo:
    def test_defaults(self):
        jt = JumpTableInfo(block_start=0x100, table_addr=None,
                           n_entries=0, bounded=False)
        assert jt.targets == []
        assert jt.trimmed == 0
