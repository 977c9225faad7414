"""The paper's primary contribution: parallel CFG construction.

Two layers:

- a **formal layer** (:mod:`graphstate`, :mod:`operations`,
  :mod:`partial_order`, :mod:`properties`) encoding Section 3's
  ``G = ⟨B,C,E,F⟩`` abstraction, the six core operations, the partial
  order ``≼`` and the Section 4 property checkers — small, pure, and
  property-tested;
- an **execution layer** (:mod:`cfg`, :mod:`parallel_parser`,
  :mod:`serial_parser`, :mod:`noreturn`, :mod:`jump_table`,
  :mod:`finalize`) implementing Section 5's parallel
  algorithm with the five invariants on real data structures, plus the
  legacy order-sensitive serial parser used for the Section 4.2
  assessment.
"""

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
from repro.core.graphstate import CodeSpace, EdgeKind, FEdge, GraphState
from repro.core.jump_table import JumpTableOptions, analyze_jump_table
from repro.core.parallel_parser import (
    ParallelParser,
    ParseOptions,
    parse_binary,
)
from repro.core.partial_order import precedes
from repro.core.serial_parser import LegacySerialParser

__all__ = [
    "Block",
    "Edge",
    "EdgeType",
    "Function",
    "JumpTableInfo",
    "ParseStats",
    "ParsedCFG",
    "ReturnStatus",
    "CodeSpace",
    "EdgeKind",
    "FEdge",
    "GraphState",
    "JumpTableOptions",
    "analyze_jump_table",
    "ParallelParser",
    "ParseOptions",
    "parse_binary",
    "precedes",
    "LegacySerialParser",
]
