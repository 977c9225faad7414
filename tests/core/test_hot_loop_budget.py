"""A hardware-independent guard for the serial hot loop.

Wall-clock gates do not survive a shared 2-vCPU host; cProfile call
totals repeat exactly (``benchmarks/e2e/README.md``).  So the loop is
pinned as calls per decoded instruction and per block for one serial
parse of one small TF-like binary: everything the profiler counts, the
part made inside ``repro.isa``, and the part made while ``finalize``
runs.  A per-instruction frame put back on the decode path (the parent
of the compiled table paid six: ``contains``, ``decode_at``,
``decode``, ``is_control_flow``, ``end``, ``sp_delta``) moves the
``repro.isa`` number by +1.0, and a per-edge property call put back in
finalize moves its number by about +6; either fails here on any
machine.
"""

from __future__ import annotations

import cProfile
import os

import pytest

import repro
import repro.core.parallel_parser as parallel_parser
from repro.core.parallel_parser import ParallelParser
from repro.runtime import SerialRuntime
from repro.synth import tensorflow_like

_ISA = os.path.join(os.path.dirname(repro.__file__), "isa") + os.sep

#: Measured on ``tensorflow_like(seed=104, scale=0.1)`` (4 612 decoded
#: instructions, 1 285 blocks, warm process): 39.01 calls per
#: instruction, 1.698 of them inside ``repro.isa`` — all per *block*:
#: one ``scan_run``, one ``has_teardown``, and the ``end`` /
#: ``cf_kind`` / ``direct_target`` reads of its last instruction;
#: 140.0 calls per block, 35.6 of them while ``finalize`` runs.
#: Budgets are those + 5 %.  The frozen-dataclass ``Instruction`` and
#: finalize's ``EdgeType.interprocedural`` calls measured 41.48,
#: 148.9 and 41.6; the commit before the compiled decode table 61.24
#: and 8.47 per instruction.
CALLS_PER_INSN = 41.0
ISA_CALLS_PER_INSN = 1.78
CALLS_PER_BLOCK = 147.0
FINALIZE_CALLS_PER_BLOCK = 37.4


def _parse(binary):
    rt = SerialRuntime()
    parser = ParallelParser(binary, rt, None)
    return parser, rt.run(parser.execute)


def _calls(profile: cProfile.Profile, under: str = "") -> int:
    return sum(r.callcount for r in profile.getstats()
               if not under or (not isinstance(r.code, str)
                                and r.code.co_filename.startswith(under)))


@pytest.fixture(scope="module")
def counts() -> dict[str, int]:
    """Decoded instructions, blocks and call counts of one profiled
    parse, and the calls of a second one made inside ``finalize``."""
    binary = tensorflow_like(seed=104, scale=0.1).binary
    _parse(binary)                   # fill lru caches and lazy imports
    profile = cProfile.Profile()
    profile.enable()
    try:
        parser, cfg = _parse(binary)
    finally:
        profile.disable()
    out = {"decoded": len(parser.local_decode_cache()),
           "blocks": len(cfg.blocks()),
           "total": _calls(profile), "isa": _calls(profile, _ISA)}

    finalize = parallel_parser.finalize
    in_finalize = cProfile.Profile()

    def profiled(parser):
        in_finalize.enable()
        try:
            return finalize(parser)
        finally:
            in_finalize.disable()

    parallel_parser.finalize = profiled
    try:
        _parse(binary)
    finally:
        parallel_parser.finalize = finalize
    out["finalize"] = _calls(in_finalize)
    return out


def test_calls_per_decoded_instruction_stay_in_budget(counts):
    assert counts["decoded"] == 4612
    assert counts["total"] / counts["decoded"] <= CALLS_PER_INSN, counts
    assert counts["isa"] / counts["decoded"] <= ISA_CALLS_PER_INSN, counts


def test_calls_per_block_stay_in_budget(counts):
    assert counts["blocks"] == 1285
    assert counts["total"] / counts["blocks"] <= CALLS_PER_BLOCK, counts
    assert counts["finalize"] / counts["blocks"] \
        <= FINALIZE_CALLS_PER_BLOCK, counts
