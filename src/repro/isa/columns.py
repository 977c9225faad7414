"""Columnar wire form of a decode cache.

The procs backend ships every shard's decode cache home.  Pickled as a
``dict`` of frozen :class:`Instruction` objects it is half a shard's
delta and costs about as much to load as the instructions cost to
decode.  The ISA's layout table already fixes each opcode's operand
count and encoded length, so a cache travels as three flat columns —
addresses, opcode bytes, operand words — and is rebuilt with one
constructor call per entry.
"""

from __future__ import annotations

from array import array

from repro.isa.encoding import _LAYOUT, instruction_length
from repro.isa.instructions import Instruction, Opcode

#: (addresses ``Q``, opcode bytes, operand words ``I``) — plain picklable.
InstructionColumns = tuple[array, bytes, array]

#: opcode byte -> (opcode, operand count, encoded length)
_SHAPE = {int(op): (op, len(_LAYOUT[op]), instruction_length(op))
          for op in Opcode}


def pack_instructions(cache: dict[int, Instruction]) -> InstructionColumns:
    """Flatten a decode cache (keyed by instruction address) to columns.

    Every operand is a register, a condition code or an immediate of at
    most 32 bits, so one unsigned 32-bit word column holds them all.
    """
    insns = cache.values()
    return (array("Q", cache),
            bytes([i.opcode for i in insns]),
            array("I", [v for i in insns for v in i.operands]))


def unpack_instructions(columns: InstructionColumns
                        ) -> dict[int, Instruction]:
    """Rebuild the decode cache :func:`pack_instructions` flattened."""
    addrs, opcodes, words = columns
    operands = words.tolist()
    cache: dict[int, Instruction] = {}
    pos = 0
    for addr, byte in zip(addrs, opcodes):
        opcode, n, length = _SHAPE[byte]
        cache[addr] = Instruction(addr, opcode,
                                  tuple(operands[pos:pos + n]), length)
        pos += n
    return cache
