"""Synthetic instruction set architecture (ISA) substrate.

The paper analyzes x86-64 and Power machine code through Dyninst's
InstructionAPI.  This package provides the analogous substrate: a compact
RISC-ish instruction set with the code constructs that matter for CFG
construction — direct, conditional and indirect control flow, calls and
returns, stack frame manipulation (used by tail-call heuristics), and the
bounded-index jump-table idiom used to compile ``switch`` statements.

Public surface:

- :mod:`repro.isa.registers` — register file definition.
- :mod:`repro.isa.instructions` — :class:`Instruction`, :class:`Opcode`,
  and control-flow classification helpers.
- :mod:`repro.isa.encoding` — byte-level encode/decode.
- :mod:`repro.isa.decoder` — a thread-safe streaming decoder over a code
  buffer (the InstructionAPI analog used by the parsers).
- :mod:`repro.isa.columns` — the columnar wire form of a decode cache
  (what a procs shard ships home instead of pickled instructions).
"""

from repro.isa.registers import Reg, NUM_GP_REGS, gp_registers
from repro.isa.instructions import (
    Opcode,
    Cond,
    Instruction,
    ControlFlowKind,
    has_teardown,
)
from repro.isa.encoding import encode, decode, instruction_length
from repro.isa.decoder import Decoder

__all__ = [
    "Reg",
    "NUM_GP_REGS",
    "gp_registers",
    "Opcode",
    "Cond",
    "Instruction",
    "ControlFlowKind",
    "has_teardown",
    "encode",
    "decode",
    "instruction_length",
    "Decoder",
]
