"""Generic iterative dataflow solver over a function's blocks.

Facts are arbitrary values combined with a caller-supplied meet; transfer
functions map a block's input fact to its output fact.  One worklist,
:func:`run_worklist`, runs to a fixed point over index-addressed
predecessor/successor arrays; :func:`solve_dataflow` is its adapter
for a parsed :class:`Function`, the interprocedural checkers feed it
their compiled plans directly.  Register-set problems use Python
integers as bit vectors (bit i = register i), which makes meet/transfer
cheap and hashable.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.analyses.common import (
    function_blocks,
    intra_predecessors,
    intra_successors,
    member_set,
)
from repro.core.cfg import Block, Function
from repro.runtime.api import Runtime


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass
class DataflowProblem:
    """Specification of an intra-procedural dataflow problem."""

    direction: Direction
    #: fact at the boundary (entry for forward, exits for backward).
    boundary: Any
    #: fact for blocks not yet visited.
    init: Any
    #: meet(a, b) -> combined fact.
    meet: Callable[[Any, Any], Any]
    #: transfer(node, in_fact) -> out_fact; a node is a :class:`Block`
    #: under :func:`solve_dataflow`, else what the caller handed
    #: :func:`run_worklist`.
    transfer: Callable[[Any, Any], Any]
    #: cost charged per transfer application (virtual time).
    cost_per_transfer: int = 0


@dataclass
class DataflowResult:
    """Facts at block boundaries, keyed by block start address."""

    in_facts: dict[int, Any]
    out_facts: dict[int, Any]
    iterations: int


def run_worklist(problem: DataflowProblem, nodes: Sequence[Any],
                 preds: Sequence[Sequence[int]],
                 succs: Sequence[Sequence[int]],
                 at_boundary: Sequence[bool], seed: Iterable[int],
                 visit: Callable[[int], None] | None = None
                 ) -> tuple[list[Any], list[Any], int]:
    """The one worklist, over node indices.

    ``preds[i]`` / ``succs[i]`` are node indices in *flow* direction
    (a backward problem passes them swapped), ``at_boundary[i]`` marks
    the nodes that also meet ``problem.boundary``, ``seed`` is the
    initial worklist (every index once) and ``problem.transfer`` is
    applied to ``nodes[i]`` — whatever the caller put there: a
    :class:`Block`, or a checker's compiled block effect.  ``visit(i)``
    runs before each transfer (cost accounting).  Returns the in/out
    facts as lists indexed like ``nodes``, and the visit count.
    """
    init, boundary = problem.init, problem.boundary
    meet, transfer = problem.meet, problem.transfer
    in_facts = [init] * len(nodes)
    out_facts = [init] * len(nodes)
    work = deque(seed)
    queued = [True] * len(nodes)
    iterations = 0
    while work:
        i = work.popleft()
        queued[i] = False
        iterations += 1
        fact = init
        for p in preds[i]:
            fact = meet(fact, out_facts[p])
        if at_boundary[i]:
            fact = meet(fact, boundary)
        in_facts[i] = fact
        if visit is not None:
            visit(i)
        new_out = transfer(nodes[i], fact)
        if new_out != out_facts[i]:
            out_facts[i] = new_out
            for s in succs[i]:
                if not queued[s]:
                    queued[s] = True
                    work.append(s)
    return in_facts, out_facts, iterations


def solve_dataflow(func: Function, problem: DataflowProblem,
                   rt: Runtime | None = None,
                   order_key: Callable[[Block], Any] | None = None
                   ) -> DataflowResult:
    """Solve ``problem`` over ``func``'s intra-procedural CFG.

    Builds the index arrays :func:`run_worklist` wants once per solve.

    ``order_key`` reorders the *initial* worklist (default: address
    order, reversed for backward problems).  For a monotone framework
    over a lattice of finite height the worklist converges to the same
    unique least fixpoint whatever the visit order — only
    ``iterations`` may differ — which the worklist-order property
    battery pins by solving under seeded shuffles.
    """
    blocks = function_blocks(func)
    member = member_set(func)
    index = {b.start: i for i, b in enumerate(blocks)}
    down = [[index[s.start] for s in intra_successors(b, member)]
            for b in blocks]
    up = [[index[p.start] for p in intra_predecessors(b, member)]
          for b in blocks]
    if problem.direction is Direction.FORWARD:
        preds, succs = up, down
        at_boundary = [b.start == func.addr for b in blocks]
        seed = range(len(blocks))
    else:
        preds, succs = down, up
        at_boundary = [not out for out in down]
        seed = range(len(blocks) - 1, -1, -1)
    if order_key is not None:
        seed = sorted(range(len(blocks)),
                      key=lambda i: order_key(blocks[i]))

    visit = None
    if rt is not None and problem.cost_per_transfer:
        costs = [problem.cost_per_transfer * max(1, len(b.insns))
                 for b in blocks]

        def visit(i):
            rt.charge(costs[i])

    in_facts, out_facts, iterations = run_worklist(
        problem, blocks, preds, succs, at_boundary, seed, visit)
    starts = [b.start for b in blocks]
    return DataflowResult(in_facts=dict(zip(starts, in_facts)),
                          out_facts=dict(zip(starts, out_facts)),
                          iterations=iterations)
