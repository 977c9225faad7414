"""Register liveness analysis (the paper's AC6).

Classic backward may-analysis over the register file, with Python ints as
bit vectors.  BinFeat's data-flow features are live-register counts; the
paper notes this analysis has higher complexity than instruction or
control-flow feature extraction, which is why the DF stage of Table 3
plateaus on load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyses.dataflow import (
    DataflowProblem,
    Direction,
    solve_dataflow,
)
from repro.core.cfg import Block, Function
from repro.isa.registers import Reg, mask_of, regs_in
from repro.runtime.api import Runtime


def _popcount(v: int) -> int:
    return bin(v).count("1")


@dataclass
class LivenessResult:
    """Live-register bit vectors at block boundaries."""

    live_in: dict[int, int]    #: block start -> bit vector
    live_out: dict[int, int]
    iterations: int

    def live_in_regs(self, block_start: int) -> set[Reg]:
        return set(regs_in(self.live_in.get(block_start, 0)))

    def max_live(self) -> int:
        """Maximum simultaneously-live register count (a DF feature)."""
        return max((_popcount(v) for v in self.live_in.values()), default=0)

    def avg_live(self) -> float:
        if not self.live_in:
            return 0.0
        return sum(_popcount(v) for v in self.live_in.values()) \
            / len(self.live_in)


def block_transfer(block: Block, live_out: int) -> int:
    """Backward transfer: live_in = gen ∪ (live_out − kill), per insn."""
    live = live_out
    for insn in reversed(block.insns):
        live &= ~insn.written_mask()
        live |= insn.read_mask()
    return live


def liveness(func: Function, rt: Runtime | None = None,
             order_key=None) -> LivenessResult:
    """Solve liveness over one function.

    ``order_key`` reorders the initial worklist (the worklist-order
    property battery uses seeded shuffles; the fixpoint is identical).
    """
    # At function exits the ABI return register and SP are live.
    boundary = mask_of({Reg.R0, Reg.SP})
    cost = rt.cost.liveness_per_insn if rt is not None else 0
    problem = DataflowProblem(
        direction=Direction.BACKWARD,
        boundary=boundary,
        init=0,
        meet=lambda a, b: a | b,
        transfer=block_transfer,
        cost_per_transfer=cost,
    )
    res = solve_dataflow(func, problem, rt, order_key=order_key)
    # For a backward problem the solver's "in" facts are what flows into
    # the transfer — i.e. live-out — and its "out" facts are live-in.
    return LivenessResult(live_in=res.out_facts, live_out=res.in_facts,
                          iterations=res.iterations)
