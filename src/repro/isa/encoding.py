"""Byte-level encoding and decoding of synthetic ISA instructions.

The encoding is variable length (1–10 bytes): one opcode byte followed by an
opcode-specific operand layout.  Variable length matters for the fidelity of
the reproduction: linear parsing, block splitting and the "at most one block
ends at a given address" invariant all interact with instruction boundaries
exactly as they do on x86-64.
"""

from __future__ import annotations

import struct

from repro.errors import EncodingError, InvalidInstructionError
from repro.isa.instructions import Cond, Instruction, Opcode
from repro.isa.registers import Reg

# Field kinds: 'r' = register byte, 'c' = condition byte,
# 'i32' = 32-bit little-endian immediate, 'i16' = 16-bit immediate.
_LAYOUT: dict[Opcode, tuple[str, ...]] = {
    Opcode.NOP: (),
    Opcode.HALT: (),
    Opcode.MOV_RI: ("r", "i32"),
    Opcode.MOV_RR: ("r", "r"),
    Opcode.ADD: ("r", "r"),
    Opcode.SUB: ("r", "r"),
    Opcode.MUL: ("r", "r"),
    Opcode.XOR: ("r", "r"),
    Opcode.AND: ("r", "r"),
    Opcode.OR: ("r", "r"),
    Opcode.ADDI: ("r", "i32"),
    Opcode.CMP_RI: ("r", "i32"),
    Opcode.CMP_RR: ("r", "r"),
    Opcode.LOAD: ("r", "r", "i32"),
    Opcode.STORE: ("r", "i32", "r"),
    Opcode.LOADIDX: ("r", "r", "r"),
    Opcode.LEA: ("r", "i32"),
    Opcode.PUSH: ("r",),
    Opcode.POP: ("r",),
    Opcode.ENTER: ("i16",),
    Opcode.LEAVE: (),
    Opcode.JMP: ("i32",),
    Opcode.JCC: ("c", "i32"),
    Opcode.CALL: ("i32",),
    Opcode.ICALL: ("r",),
    Opcode.IJMP: ("r",),
    Opcode.RET: (),
}

#: ``struct`` code of each field kind (little-endian, unaligned).
_FIELD_CODE = {"r": "B", "c": "B", "i32": "I", "i16": "H"}
#: Range-checked field kinds: exclusive bound, name in the error message.
_FIELD_RANGE = {"r": (len(Reg), "register"), "c": (len(Cond), "condition")}

_OPERANDS: dict[Opcode, struct.Struct] = {
    op: struct.Struct("<" + "".join(_FIELD_CODE[f] for f in fields))
    for op, fields in _LAYOUT.items()
}

_LENGTHS: dict[Opcode, int] = {
    op: 1 + operands.size for op, operands in _OPERANDS.items()
}


def _decode_row(opcode: Opcode) -> tuple:
    checks = tuple((pos, *_FIELD_RANGE[f])
                   for pos, f in enumerate(_LAYOUT[opcode])
                   if f in _FIELD_RANGE)
    return (opcode, _LENGTHS[opcode], _OPERANDS[opcode].unpack_from,
            checks)


#: ``_LAYOUT`` compiled for decoding, indexed by opcode byte: ``None``
#: for a byte that is no opcode, else ``(opcode, encoded length,
#: unpack_from of the whole operand layout, ((operand position,
#: exclusive bound, name), ...) of its range-checked fields)``.
DECODE_ROWS: tuple[tuple | None, ...] = tuple(map(
    {int(op): _decode_row(op) for op in Opcode}.get, range(256)))

#: Longest encoded instruction, in bytes.
MAX_INSTRUCTION_LENGTH = max(_LENGTHS.values())


def instruction_length(opcode: Opcode) -> int:
    """Encoded length in bytes of instructions with the given opcode."""
    return _LENGTHS[opcode]


def encode(instr: Instruction) -> bytes:
    """Encode an instruction to bytes.

    Raises :class:`EncodingError` on operand/layout mismatch or
    out-of-range values.
    """
    fields = _LAYOUT.get(instr.opcode)
    if fields is None:
        raise EncodingError(f"unknown opcode {instr.opcode!r}")
    if len(fields) != len(instr.operands):
        raise EncodingError(
            f"{instr.opcode.name}: expected {len(fields)} operands, "
            f"got {len(instr.operands)}"
        )
    out = bytearray([int(instr.opcode)])
    for kind, value in zip(fields, instr.operands):
        if kind == "r":
            if not 0 <= value < len(Reg):
                raise EncodingError(f"register out of range: {value}")
            out.append(value)
        elif kind == "c":
            if not 0 <= value < len(Cond):
                raise EncodingError(f"condition out of range: {value}")
            out.append(value)
        elif kind == "i32":
            if not 0 <= value < (1 << 32):
                raise EncodingError(f"imm32 out of range: {value:#x}")
            out += struct.pack("<I", value)
        elif kind == "i16":
            if not 0 <= value < (1 << 16):
                raise EncodingError(f"imm16 out of range: {value:#x}")
            out += struct.pack("<H", value)
        else:  # pragma: no cover - layout table is static
            raise EncodingError(f"bad field kind {kind}")
    return bytes(out)


def decode(buf: bytes | memoryview, offset: int, address: int) -> Instruction:
    """Decode one instruction from ``buf`` at ``offset``.

    ``address`` is the virtual address the instruction lives at (recorded in
    the returned :class:`Instruction`).  Raises
    :class:`InvalidInstructionError` if the bytes do not form a valid
    instruction (unknown opcode, truncated operands, bad register).
    """
    if offset >= len(buf):
        raise InvalidInstructionError(address, "past end of code")
    row = DECODE_ROWS[buf[offset]]
    if row is None:
        raise InvalidInstructionError(
            address, f"invalid opcode {buf[offset]:#04x}")
    opcode, length, unpack, checks = row
    if offset + length > len(buf):
        raise InvalidInstructionError(address, "truncated instruction")
    operands = unpack(buf, offset + 1)
    for pos, bound, name in checks:
        if operands[pos] >= bound:
            raise InvalidInstructionError(
                address, f"bad {name} {operands[pos]}")
    return Instruction(address, opcode, operands, length)
