"""Stack-height analysis: abstract interpretation of SP adjustments.

Tracks the net stack-pointer displacement (bytes, negative = grown) at
block boundaries.  ``LEAVE`` restores the frame (height returns to the
value at frame setup); conflicting heights meet to ``TOP`` (unknown).
This is the analysis behind tail-call heuristic (3): a branch taken at
height 0 after a teardown is a tail call.  (The parser itself uses the
cheaper block-local teardown flag, as Dyninst does; this analysis is the
"DataflowAPI StackAnalysis" counterpart used by applications.)

The transfer and meet are the ``stack-balance`` checker's
(:class:`~repro.analyses.checkers.StackBalanceChecker`), run
intra-procedurally: every callee is taken as balanced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyses.checkers import StackBalanceChecker
from repro.analyses.dataflow import (
    DataflowProblem,
    Direction,
    solve_dataflow,
)
from repro.core.cfg import Function
from repro.runtime.api import Runtime


@dataclass
class StackHeightResult:
    """Stack heights at block boundaries (None = unreachable)."""

    height_in: dict[int, int | str | None]
    height_out: dict[int, int | str | None]

    def teardown_before(self, block_start: int) -> bool:
        """True if the block ends at call-time stack height (teardown
        happened): the tail-call heuristic's data-flow form."""
        h = self.height_out.get(block_start)
        return h == 0


def stack_heights(func: Function,
                  rt: Runtime | None = None) -> StackHeightResult:
    """Solve stack heights over one function (entry height 0)."""
    checker = StackBalanceChecker()

    def balanced(_target: int) -> int:
        return checker.unknown()

    problem = DataflowProblem(
        direction=Direction.FORWARD,
        boundary=0,
        init=None,          # unreached
        meet=checker.join,
        transfer=lambda b, h: checker.apply(
            checker.compile_block(b.insns), h, balanced),
        cost_per_transfer=(rt.cost.liveness_per_insn if rt else 0),
    )
    res = solve_dataflow(func, problem, rt)
    return StackHeightResult(height_in=res.in_facts,
                             height_out=res.out_facts)
