"""Register file for the synthetic ISA.

Sixteen general-purpose registers plus a dedicated stack pointer, frame
pointer and flags register.  Liveness analysis (BinFeat's data-flow
features) tracks all of them; the stack-height analysis used by tail-call
heuristics tracks SP/FP effects.
"""

from __future__ import annotations

import enum


class Reg(enum.IntEnum):
    """Architectural registers.

    ``R0``–``R15`` are general purpose.  ``SP`` is the stack pointer,
    ``FP`` the frame pointer, and ``FLAGS`` holds comparison results
    consumed by conditional branches.
    """

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15
    SP = 16
    FP = 17
    FLAGS = 18

    @property
    def is_gp(self) -> bool:
        """True for the sixteen general-purpose registers."""
        return self <= Reg.R15


#: Number of general-purpose registers (``R0``..``R15``).
NUM_GP_REGS = 16

#: Total number of architectural registers (including SP/FP/FLAGS).
NUM_REGS = len(Reg)

#: Conventional return-value register.
RET_REG = Reg.R0

#: Conventional first-argument register (used by the ``error``-style
#: conditionally non-returning function in the synthesizer).
ARG0_REG = Reg.R1


def gp_registers() -> list[Reg]:
    """Return the general-purpose registers in numeric order."""
    return [r for r in Reg if r.is_gp]


def mask_of(regs) -> int:
    """Bit vector of a register collection (bit *i* = ``Reg(i)``)."""
    mask = 0
    for r in regs:
        mask |= 1 << r
    return mask


def regs_in(mask: int) -> tuple[Reg, ...]:
    """The registers of a bit vector, in numeric order.

    Raises ``ValueError`` for a bit that names no register.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(Reg(low.bit_length() - 1))
        mask ^= low
    return tuple(out)
