"""A hardware-independent guard for the serial hot loop.

Wall-clock gates do not survive a shared 2-vCPU host; cProfile call
totals repeat exactly (``benchmarks/e2e/README.md``).  So the loop is
pinned as *calls per decoded instruction* for one serial parse of one
small TF-like binary: everything the profiler counts, and the part
made inside ``repro.isa``.  A per-instruction frame put back on the
decode path (the parent of the compiled table paid six: ``contains``,
``decode_at``, ``decode``, ``is_control_flow``, ``end``, ``sp_delta``)
moves the second number by +1.0 and fails here on any machine.
"""

from __future__ import annotations

import cProfile
import os

import repro
from repro.core.parallel_parser import ParallelParser
from repro.runtime import SerialRuntime
from repro.synth import tensorflow_like

_ISA = os.path.join(os.path.dirname(repro.__file__), "isa") + os.sep

#: Measured on ``tensorflow_like(seed=104, scale=0.1)`` (4 612 decoded
#: instructions, warm process): 43.50 calls per instruction, 1.873 of
#: them inside ``repro.isa`` — all per *block*: one ``scan_run``, one
#: ``has_teardown``, and the ``end`` / ``cf_kind`` / ``direct_target``
#: reads of its last instruction.  Budgets are those + 5 %; the commit
#: before the table measured 61.24 and 8.47.
CALLS_PER_INSN = 45.7
ISA_CALLS_PER_INSN = 1.97


def _parse(binary) -> ParallelParser:
    rt = SerialRuntime()
    parser = ParallelParser(binary, rt, None)
    rt.run(parser.execute)
    return parser


def test_calls_per_decoded_instruction_stay_in_budget():
    binary = tensorflow_like(seed=104, scale=0.1).binary
    _parse(binary)                   # fill lru caches and lazy imports
    profile = cProfile.Profile()
    profile.enable()
    try:
        parser = _parse(binary)
    finally:
        profile.disable()
    rows = profile.getstats()
    decoded = len(parser.local_decode_cache())
    assert decoded == 4612
    total = sum(r.callcount for r in rows)
    in_isa = sum(r.callcount for r in rows
                 if not isinstance(r.code, str)
                 and r.code.co_filename.startswith(_ISA))
    assert total / decoded <= CALLS_PER_INSN, total
    assert in_isa / decoded <= ISA_CALLS_PER_INSN, in_isa
