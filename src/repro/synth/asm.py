"""A small two-pass assembler for the synthetic ISA.

Used by the code generator and — importantly — by tests that need precise
control over machine-code layout (the Listing 1 tail-call scenario, shared
blocks, overlapping parses).  Instructions may reference labels wherever an
``i32`` immediate is expected; label addresses are resolved in a second
pass (all opcodes have fixed lengths, so one sizing pass suffices).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError
from repro.isa.encoding import encode, instruction_length
from repro.isa.instructions import Cond, Instruction, Opcode
from repro.isa.registers import Reg


@dataclass(frozen=True, slots=True)
class Label:
    """Symbolic reference to a position in the assembled stream."""

    name: str


@dataclass(slots=True)
class _Item:
    opcode: Opcode | None   # None for raw data bytes
    operands: tuple
    raw: bytes = b""


class Assembler:
    """Two-pass assembler emitting machine code at a base address."""

    def __init__(self, base: int):
        self.base = base
        self._items: list[_Item] = []
        self._labels: dict[str, int] = {}   # label -> item index

    # -- building ---------------------------------------------------------

    def label(self, name: str) -> None:
        """Define a label at the current position."""
        if name in self._labels:
            raise SynthesisError(f"duplicate label {name!r}")
        self._labels[name] = len(self._items)

    def insn(self, opcode: Opcode, *operands: int | Reg | Cond | Label) -> None:
        """Append an instruction; operands may include :class:`Label`."""
        self._items.append(_Item(opcode, tuple(operands)))

    def raw(self, data: bytes) -> None:
        """Append raw bytes (padding / junk to exercise decode failure)."""
        self._items.append(_Item(None, (), data))

    # Convenience mnemonics used heavily by tests and codegen.

    def nop(self) -> None:
        self.insn(Opcode.NOP)

    def mov_ri(self, rd: Reg, imm: int) -> None:
        self.insn(Opcode.MOV_RI, rd, imm)

    def enter(self, frame: int = 16) -> None:
        self.insn(Opcode.ENTER, frame)

    def leave(self) -> None:
        self.insn(Opcode.LEAVE)

    def jmp(self, target: Label | int) -> None:
        self.insn(Opcode.JMP, target)

    def jcc(self, cond: Cond, target: Label | int) -> None:
        self.insn(Opcode.JCC, cond, target)

    def call(self, target: Label | int) -> None:
        self.insn(Opcode.CALL, target)

    def ret(self) -> None:
        self.insn(Opcode.RET)

    def halt(self) -> None:
        self.insn(Opcode.HALT)

    def cmp_ri(self, rs: Reg, imm: int) -> None:
        self.insn(Opcode.CMP_RI, rs, imm)

    # -- resolution -----------------------------------------------------------

    def _item_length(self, item: _Item) -> int:
        if item.opcode is None:
            return len(item.raw)
        return instruction_length(item.opcode)

    def assemble(self) -> tuple[bytes, dict[str, int]]:
        """Emit machine code; returns (code, label addresses)."""
        # Pass 1: lay out addresses.
        addrs: list[int] = []
        addr = self.base
        for item in self._items:
            addrs.append(addr)
            addr += self._item_length(item)
        label_addrs = {name: addrs[idx] if idx < len(addrs) else addr
                       for name, idx in self._labels.items()}
        # Pass 2: emit with labels resolved.
        out = bytearray()
        for item, iaddr in zip(self._items, addrs):
            if item.opcode is None:
                out += item.raw
                continue
            ops = []
            for op in item.operands:
                if isinstance(op, Label):
                    if op.name not in label_addrs:
                        raise SynthesisError(f"undefined label {op.name!r}")
                    ops.append(label_addrs[op.name])
                else:
                    ops.append(int(op))
            out += encode(Instruction(iaddr, item.opcode, tuple(ops),
                                      instruction_length(item.opcode)))
        return bytes(out), label_addrs

    @property
    def size(self) -> int:
        """Current size in bytes of the assembled stream."""
        return sum(self._item_length(i) for i in self._items)

    @property
    def current_address(self) -> int:
        return self.base + self.size


def L(name: str) -> Label:
    """Shorthand label reference."""
    return Label(name)
