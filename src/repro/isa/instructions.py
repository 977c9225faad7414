"""Instruction definitions for the synthetic ISA.

An :class:`Instruction` is an immutable record of a decoded machine
instruction: its address, opcode, operands and byte length.  Classification
helpers (``is_control_flow``, ``falls_through``, ``direct_target`` …) are what
CFG construction consumes; register def/use sets are what liveness analysis
and backward slicing (jump-table analysis) consume.

Control-flow relevant opcodes mirror the constructs discussed in the paper:

- ``JMP``/``JCC`` — direct and conditional branches (``O_DEC``),
- ``CALL``/``ICALL`` — function calls (``O_DEC``, ``O_FEI``, ``O_CFEC``),
- ``IJMP`` — indirect jumps through jump tables (``O_IEC``),
- ``RET`` — returns (drives the non-returning function analysis),
- ``ENTER``/``LEAVE`` — stack frame setup/teardown (tail-call heuristics).
"""

from __future__ import annotations

import enum
import functools
from collections import _tuplegetter
from collections.abc import Iterable

from repro.isa.registers import Reg, mask_of, regs_in


class Opcode(enum.IntEnum):
    """Opcodes of the synthetic ISA.

    The numeric values are the first byte of the encoded instruction.
    Byte values outside this enum do not decode (``InvalidInstructionError``),
    so stray data in ``.text`` terminates linear parsing as on real ISAs.
    """

    NOP = 0x01
    HALT = 0x02
    MOV_RI = 0x03   # rd <- imm32
    MOV_RR = 0x04   # rd <- rs
    ADD = 0x05      # rd <- rd + rs
    SUB = 0x06      # rd <- rd - rs
    MUL = 0x07      # rd <- rd * rs
    XOR = 0x08      # rd <- rd ^ rs
    AND = 0x09      # rd <- rd & rs
    OR = 0x0A       # rd <- rd | rs
    ADDI = 0x0B     # rd <- rd + simm32
    CMP_RI = 0x0C   # FLAGS <- compare(rs, imm32)
    CMP_RR = 0x0D   # FLAGS <- compare(rs1, rs2)
    LOAD = 0x0E     # rd <- mem[base + simm32]
    STORE = 0x0F    # mem[base + simm32] <- rs
    LOADIDX = 0x10  # rd <- mem[base + idx*8]   (jump-table load idiom)
    LEA = 0x11      # rd <- imm32               (materialize an address)
    PUSH = 0x12     # mem[--sp] <- rs
    POP = 0x13      # rd <- mem[sp++]
    ENTER = 0x14    # push fp; fp <- sp; sp -= imm16
    LEAVE = 0x15    # sp <- fp; pop fp
    JMP = 0x20      # goto addr32
    JCC = 0x21      # if cond(FLAGS) goto addr32, else fall through
    CALL = 0x22     # call addr32
    ICALL = 0x23    # call [rs]
    IJMP = 0x24     # goto [rs]
    RET = 0x25      # return


class Cond(enum.IntEnum):
    """Condition codes for ``JCC``."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5
    A = 6   # unsigned above — the jump-table bound check idiom
    BE = 7  # unsigned below-or-equal


class ControlFlowKind(enum.Enum):
    """Coarse control-flow classification used by the CFG parsers."""

    NONE = "none"              # ordinary computation, falls through
    DIRECT_JUMP = "jump"       # unconditional direct branch
    COND_JUMP = "cond"         # conditional direct branch
    CALL = "call"              # direct call
    INDIRECT_CALL = "icall"    # indirect call
    INDIRECT_JUMP = "ijmp"     # indirect jump (jump tables)
    RETURN = "ret"             # function return
    HALT = "halt"              # program termination


_CF_KIND: dict[Opcode, ControlFlowKind] = {
    Opcode.JMP: ControlFlowKind.DIRECT_JUMP,
    Opcode.JCC: ControlFlowKind.COND_JUMP,
    Opcode.CALL: ControlFlowKind.CALL,
    Opcode.ICALL: ControlFlowKind.INDIRECT_CALL,
    Opcode.IJMP: ControlFlowKind.INDIRECT_JUMP,
    Opcode.RET: ControlFlowKind.RETURN,
    Opcode.HALT: ControlFlowKind.HALT,
}


_SP = 1 << Reg.SP
_FP = 1 << Reg.FP
_FLAGS = 1 << Reg.FLAGS
#: Calls clobber the caller-saved half of the register file.
_CALL_CLOBBER = mask_of(Reg(i) for i in range(8))

_ALU_RR = (0, (0, 1), 0, (0,))

#: The ISA's def/use facts, stated once: per opcode ``(fixed read mask,
#: operand positions read as registers, fixed written mask, operand
#: positions written as registers)``.  Every opcode has a row
#: (``tests/isa/test_defuse.py`` iterates :class:`Opcode`).
_DEFUSE: dict[Opcode, tuple[int, tuple[int, ...], int, tuple[int, ...]]] = {
    Opcode.NOP: (0, (), 0, ()),
    Opcode.HALT: (0, (), 0, ()),
    Opcode.MOV_RI: (0, (), 0, (0,)),
    Opcode.MOV_RR: (0, (1,), 0, (0,)),
    Opcode.ADD: _ALU_RR,
    Opcode.SUB: _ALU_RR,
    Opcode.MUL: _ALU_RR,
    Opcode.XOR: _ALU_RR,
    Opcode.AND: _ALU_RR,
    Opcode.OR: _ALU_RR,
    Opcode.ADDI: (0, (0,), 0, (0,)),
    Opcode.CMP_RI: (0, (0,), _FLAGS, ()),
    Opcode.CMP_RR: (0, (0, 1), _FLAGS, ()),
    Opcode.LOAD: (0, (1,), 0, (0,)),
    Opcode.STORE: (0, (0, 2), 0, ()),
    Opcode.LOADIDX: (0, (1, 2), 0, (0,)),
    Opcode.LEA: (0, (), 0, (0,)),
    Opcode.PUSH: (_SP, (0,), _SP, ()),
    Opcode.POP: (_SP, (), _SP, (0,)),
    Opcode.ENTER: (_SP | _FP, (), _SP | _FP, ()),
    Opcode.LEAVE: (_FP, (), _SP | _FP, ()),
    Opcode.JMP: (0, (), 0, ()),
    Opcode.JCC: (_FLAGS, (), 0, ()),
    Opcode.CALL: (0, (), _CALL_CLOBBER, ()),
    Opcode.ICALL: (0, (0,), _CALL_CLOBBER, ()),
    Opcode.IJMP: (0, (0,), 0, ()),
    Opcode.RET: (_SP | 1 << Reg.R0, (), 0, ()),
}

_READS = {op: row[:2] for op, row in _DEFUSE.items()}
_WRITES = {op: row[2:] for op, row in _DEFUSE.items()}


@functools.lru_cache(maxsize=None)
def _reg_set(mask: int) -> frozenset[Reg]:
    """The interned register set of a def/use mask.

    Unbounded but small: masks come from the table above, i.e. a fixed
    part plus at most two operand registers.
    """
    return frozenset(regs_in(mask))


class Instruction(tuple):
    """A decoded machine instruction.

    ``operands`` is an opcode-specific tuple; accessor properties below give
    named access (``dst``, ``src``, ``target`` …).  Instances are immutable
    and hence safe to share between threads without synchronization.

    It is a ``tuple`` of ``(address, opcode, operands, length)``, read
    through the C field descriptors ``namedtuple`` uses, so the decode
    loop builds one with a single ``tuple.__new__(Instruction, fields)``
    call and no Python frame (a frozen dataclass's constructor costs
    four ``object.__setattr__`` calls, about half of a cold decode).
    The hash is ``hash((address, opcode, operands, length))``, setting
    any attribute raises ``AttributeError``, and an instance compares
    equal to the plain 4-tuple of its fields.
    """

    __slots__ = ()

    address = _tuplegetter(0, "Virtual address of the first byte (int).")
    opcode = _tuplegetter(1, "The decoded :class:`Opcode`.")
    operands = _tuplegetter(
        2, "Opcode-specific operand values, in encoding order (ints).")
    length = _tuplegetter(3, "Encoded length in bytes (int).")

    def __new__(cls, address: int, opcode: Opcode,
                operands: tuple[int, ...], length: int) -> Instruction:
        return tuple.__new__(cls, (address, opcode, operands, length))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (f"Instruction(address={self[0]!r}, opcode={self[1]!r}, "
                f"operands={self[2]!r}, length={self[3]!r})")

    # -- classification ----------------------------------------------------

    @property
    def cf_kind(self) -> ControlFlowKind:
        """Control-flow classification of this instruction."""
        return _CF_KIND.get(self.opcode, ControlFlowKind.NONE)

    @property
    def is_control_flow(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.opcode in _CF_KIND

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.ICALL)

    @property
    def is_branch(self) -> bool:
        return self.opcode in (Opcode.JMP, Opcode.JCC, Opcode.IJMP)

    @property
    def is_ret(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_cond(self) -> bool:
        return self.opcode is Opcode.JCC

    @property
    def falls_through(self) -> bool:
        """True if control may continue at ``end`` (the next instruction).

        Calls architecturally fall through; whether the CFG gets a
        call fall-through edge is decided by the non-returning analysis
        (``O_CFEC``), not here.
        """
        return self.opcode not in (
            Opcode.JMP,
            Opcode.IJMP,
            Opcode.RET,
            Opcode.HALT,
        )

    @property
    def end(self) -> int:
        """Address one past this instruction (start of its successor)."""
        return self.address + self.length

    @property
    def direct_target(self) -> int | None:
        """Branch/call target for direct control flow, else None."""
        if self.opcode is Opcode.JMP or self.opcode is Opcode.CALL:
            return self.operands[0]
        if self.opcode is Opcode.JCC:
            return self.operands[1]
        return None

    # -- named operand access ----------------------------------------------

    @property
    def dst(self) -> Reg:
        """Destination register for register-writing opcodes."""
        op = self.opcode
        if op in (
            Opcode.MOV_RI, Opcode.MOV_RR, Opcode.ADD, Opcode.SUB,
            Opcode.MUL, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.ADDI,
            Opcode.LOAD, Opcode.LOADIDX, Opcode.LEA, Opcode.POP,
        ):
            return Reg(self.operands[0])
        raise AttributeError(f"{op.name} has no destination register")

    @property
    def src(self) -> Reg:
        """Source register for single-source opcodes."""
        op = self.opcode
        if op in (Opcode.MOV_RR, Opcode.ADD, Opcode.SUB, Opcode.MUL,
                  Opcode.XOR, Opcode.AND, Opcode.OR):
            return Reg(self.operands[1])
        if op in (Opcode.PUSH, Opcode.ICALL, Opcode.IJMP):
            return Reg(self.operands[0])
        raise AttributeError(f"{op.name} has no single source register")

    @property
    def imm(self) -> int:
        """Immediate operand where present."""
        op = self.opcode
        if op in (Opcode.MOV_RI, Opcode.ADDI, Opcode.LEA):
            return self.operands[1]
        if op is Opcode.CMP_RI:
            return self.operands[1]
        if op is Opcode.ENTER:
            return self.operands[0]
        if op in (Opcode.JMP, Opcode.CALL):
            return self.operands[0]
        if op is Opcode.JCC:
            return self.operands[1]
        raise AttributeError(f"{op.name} has no immediate")

    @property
    def cond(self) -> Cond:
        if self.opcode is not Opcode.JCC:
            raise AttributeError("cond only valid for JCC")
        return Cond(self.operands[0])

    # -- def/use sets for dataflow ------------------------------------------

    def read_mask(self) -> int:
        """Registers read, as a bit vector (bit *i* = ``Reg(i)``)."""
        mask, positions = _READS[self.opcode]
        for p in positions:
            mask |= 1 << self.operands[p]
        return mask

    def written_mask(self) -> int:
        """Registers written, as a bit vector (bit *i* = ``Reg(i)``)."""
        mask, positions = _WRITES[self.opcode]
        for p in positions:
            mask |= 1 << self.operands[p]
        return mask

    # The two set forms repeat the mask loop instead of calling
    # read_mask()/written_mask(): they are the jump-table slicer's
    # per-instruction calls, and a second Python frame each is the
    # larger part of their cost.

    def regs_read(self) -> frozenset[Reg]:
        """Registers read by this instruction (for liveness/slicing)."""
        mask, positions = _READS[self.opcode]
        for p in positions:
            mask |= 1 << self.operands[p]
        return _reg_set(mask)

    def regs_written(self) -> frozenset[Reg]:
        """Registers written by this instruction."""
        mask, positions = _WRITES[self.opcode]
        for p in positions:
            mask |= 1 << self.operands[p]
        return _reg_set(mask)

    # -- stack effect --------------------------------------------------------

    def sp_delta(self) -> int | None:
        """Static stack-pointer adjustment in bytes, or None if unknown.

        Used by the stack-height analysis backing tail-call heuristic (3):
        a branch preceded by frame teardown is a tail call.
        """
        op = self.opcode
        if op is Opcode.PUSH:
            return -8
        if op is Opcode.POP:
            return 8
        if op is Opcode.ENTER:
            return -8 - self.operands[0]
        if op is Opcode.LEAVE:
            return None  # restores from FP: resolved by the analysis
        if op is Opcode.ADDI and self.operands[0] == Reg.SP:
            return _as_signed32(self.operands[1])
        return 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(self._operand_strs())
        return f"{self.address:#08x}: {self.opcode.name.lower():8s} {ops}"

    def _operand_strs(self) -> list[str]:
        out: list[str] = []
        if self.opcode is Opcode.JCC:
            out.append(Cond(self.operands[0]).name.lower())
            out.append(f"{self.operands[1]:#x}")
            return out
        for v in self.operands:
            out.append(str(v))
        return out


#: Opcodes that always undo part of a frame (``sp_delta()`` is positive,
#: or, for LEAVE, SP is restored from FP).  ``ADDI SP, +imm`` is the one
#: opcode whose answer depends on its operands.
_TEARDOWN = frozenset({Opcode.LEAVE, Opcode.POP})
# Enum members bound once: a class-attribute read per instruction costs
# more than the rest of the loop body.
_ADDI, _SP_OPERAND = Opcode.ADDI, int(Reg.SP)


def has_teardown(insns: Iterable[Instruction]) -> bool:
    """True if any instruction tears a frame down: ``LEAVE``, or a
    positive static SP adjustment (tail-call heuristic 3)."""
    for i in insns:
        op = i.opcode
        if op in _TEARDOWN:
            return True
        if op is _ADDI and i.operands[0] == _SP_OPERAND \
                and 0 < i.operands[1] < 1 << 31:
            return True
    return False


def _as_signed32(v: int) -> int:
    """Interpret an unsigned 32-bit value as signed."""
    return v - (1 << 32) if v >= (1 << 31) else v
