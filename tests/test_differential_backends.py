"""Differential battery: all four backends produce the identical CFG.

The paper's headline correctness property — "the relative speed of
threads will not impact the final results" — generalizes across
execution substrates: serial, virtual-time, real threads and the
process-pool sharded backend must all reach the same fixed point.  For
every corpus program the battery parses once per backend and compares
``ParsedCFG.signature()`` byte-for-byte against the serial reference.

The corpus deliberately includes noreturn-heavy programs (call chains,
cycles, conditionally-noreturn error paths — the wave fixed point) and
jump-table-heavy programs (obscured and stack-spill switches — the
union-semantics refinement), the two places where schedule sensitivity
historically hides.

``REPRO_PROCS_WORKERS`` sets the procs pool size (CI runs the battery
at 2 workers); ``REPRO_PROCS_INLINE=1`` forces the in-process fallback
path so the battery can run where process pools are unavailable.
"""

from __future__ import annotations

import os

import pytest

from repro.core import parse_binary
from repro.runtime import (
    ProcsRuntime,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
)
from repro.synth import (
    camellia_like,
    coreutils_like_corpus,
    llnl1_like,
    tensorflow_like,
    tiny_binary,
)

PROCS_WORKERS = int(os.environ.get("REPRO_PROCS_WORKERS", "2"))
PROCS_INLINE = os.environ.get("REPRO_PROCS_INLINE") == "1"


def _corpus() -> dict[str, object]:
    """Every battery program, keyed by a stable id."""
    programs = {
        "tiny": tiny_binary(),
        # Noreturn-heavy: long chains, several cycles, dense
        # conditionally-noreturn error calls and shared error blocks.
        "noreturn-heavy": tiny_binary(
            seed=13, n_functions=40, noreturn_chain_len=5,
            n_noreturn_cycles=3, pct_error_call=0.20,
            n_shared_error_groups=3, shared_group_size=6),
        # Jump-table-heavy: every third function a switch, with the
        # obscured/stack-spill variants that force over-approximation
        # and the fixed-point retry path.
        "jumptable-heavy": tiny_binary(
            seed=29, n_functions=36, pct_switch=0.35,
            max_switch_cases=24, pct_obscured_switch=0.30,
            pct_stack_spill_switch=0.20),
        # Cross-shard-split bait for the procs merge: many small
        # functions dense with shared error blocks, tail calls and
        # switches, so any contiguous shard boundary lands inside a
        # branch/call cluster — shards overrun each other's claims and
        # the frontier replay must split the overrunning blocks through
        # the invariant-4 cascade rather than trusting either fragment.
        "cross-shard-splits": tiny_binary(
            seed=47, n_functions=44, n_shared_error_groups=6,
            shared_group_size=8, pct_error_call=0.25,
            pct_tail_call=0.20, pct_switch=0.20),
        # Cross-shard wave bait: the noreturn wrapper chain spans half the
        # function population, so any shard boundary cuts it — noreturn
        # status must flow *down* the address space (each wrapper's
        # callee sits at a higher address, often in another shard's
        # claim) and *up* (the last wrapper calls ``exit`` at the
        # lowest address).  Several mutual-recursion pairs land near the
        # middle so at least one cycle straddles the boundary and is
        # routed through ``resolve_cycles`` across claims.
        "wave-cross-shard": tiny_binary(
            seed=61, n_functions=24, noreturn_chain_len=12,
            n_noreturn_cycles=4, pct_error_call=0.30,
            n_shared_error_groups=2, shared_group_size=4),
        # Scaled-down evaluation presets (structure, not size).
        "llnl1": llnl1_like(scale=0.02),
        "camellia": camellia_like(scale=0.02),
        "tensorflow": tensorflow_like(scale=0.01),
    }
    for sb in coreutils_like_corpus(n_binaries=2):
        programs[sb.name] = sb
    return programs


_PROGRAMS = _corpus()


@pytest.fixture(scope="module")
def reference_signatures():
    """Serial-backend signature per program (the comparison baseline)."""
    return {
        name: parse_binary(sb.binary, SerialRuntime()).signature()
        for name, sb in _PROGRAMS.items()
    }


@pytest.mark.parametrize("name", sorted(_PROGRAMS), ids=str)
def test_vtime_matches_serial(name, reference_signatures):
    sb = _PROGRAMS[name]
    got = parse_binary(sb.binary, VirtualTimeRuntime(4)).signature()
    assert got == reference_signatures[name]


@pytest.mark.parametrize("name", sorted(_PROGRAMS), ids=str)
def test_threads_matches_serial(name, reference_signatures):
    sb = _PROGRAMS[name]
    got = parse_binary(sb.binary, ThreadRuntime(4)).signature()
    assert got == reference_signatures[name]


@pytest.mark.parametrize("name", sorted(_PROGRAMS), ids=str)
def test_procs_matches_serial(name, reference_signatures):
    sb = _PROGRAMS[name]
    rt = ProcsRuntime(PROCS_WORKERS, in_process=PROCS_INLINE)
    got = parse_binary(sb.binary, rt).signature()
    assert got == reference_signatures[name]
    # The shard fan-out actually ran (and is observable).
    assert rt.metrics.counter("procs.shards") >= 1
    assert rt.shard_deltas is not None
    # No silent degradation: a healthy run must prove the *sharded*
    # pipeline correct, not pass because the serial fallback kicked in.
    assert rt.degradation["level"] == "none"
    assert rt.fault_events == []


#: Fault-plan axis: every injected fault class, exercised on the
#: corpus programs with real cross-shard structure.  The parse must
#: survive the fault (whatever rung of the ladder it lands on) and
#: still reproduce the serial signature byte-for-byte.
_FAULT_PLANS = {
    "worker-exc": "exc@0x1",
    "second-shard-exc": "exc@1x1",
    "corrupt-delta": "corrupt@0x1",
    "truncated-delta": "truncate@1x1",
    "all-shards-exc-twice": "exc@*x2",
    "exhausted-to-serial": "excx99",
}


@pytest.mark.parametrize("name", ["cross-shard-splits", "noreturn-heavy",
                                  "wave-cross-shard"],
                         ids=str)
@pytest.mark.parametrize("plan", sorted(_FAULT_PLANS), ids=str)
def test_procs_degraded_matches_serial(name, plan, reference_signatures):
    from repro.runtime.faults import FaultPlan

    sb = _PROGRAMS[name]
    rt = ProcsRuntime(PROCS_WORKERS, in_process=PROCS_INLINE,
                      fault_plan=FaultPlan.from_spec(_FAULT_PLANS[plan]),
                      shard_deadline=30.0)
    got = parse_binary(sb.binary, rt).signature()
    assert got == reference_signatures[name]
    # The fault actually fired and was recorded.
    assert rt.fault_events, f"plan {plan} injected nothing"
    if plan == "exhausted-to-serial":
        assert rt.degradation["level"] == "serial"


def test_procs_shm_fallback_matches_serial(reference_signatures):
    """The ``shm`` fault site takes the serial rung, like a failed pool
    creation: the same signature, one recorded fault and no leaked
    segments."""
    if PROCS_INLINE:
        pytest.skip("image transport only exists on the pool path")
    import repro.runtime.shm as shm
    from repro.runtime.faults import FaultPlan

    sb = _PROGRAMS["cross-shard-splits"]
    rt = ProcsRuntime(PROCS_WORKERS,
                      fault_plan=FaultPlan.from_spec("shm"),
                      shard_deadline=30.0)
    got = parse_binary(sb.binary, rt).signature()
    assert got == reference_signatures["cross-shard-splits"]
    assert [e["kind"] for e in rt.fault_events] == ["shm_unavailable"]
    assert rt.fault_events[0]["action"] == "serial"
    assert rt.degradation["level"] == "serial"
    assert rt.metrics.counter("procs.pool_fallback") == 1
    assert rt.metrics.counter("procs.shm.segments") == 0
    assert shm.live_segments() == []


@pytest.mark.parametrize("name", ["jumptable-heavy", "wave-cross-shard"],
                         ids=str)
def test_procs_worker_counts_agree(name, reference_signatures):
    """Shard geometry must not leak into the result: 1, 2 and 3 worker
    pools (different region boundaries → different cross-shard splits
    and different frontier records) all reproduce the serial
    signature byte-for-byte."""
    sb = _PROGRAMS[name]
    for n in (1, 2, 3):
        got = parse_binary(sb.binary,
                           ProcsRuntime(n, in_process=True)).signature()
        assert got == reference_signatures[name], (name, n)


#: Programs for the findings-sidecar battery: the analysis-relevant
#: subset (jump tables for jt-bounds, shared error epilogues for
#: stack-balance, dense call structure for the summary fixpoint).
_FINDINGS_PROGRAMS = ("tiny", "jumptable-heavy", "noreturn-heavy")


def _findings_bytes(binary, rt):
    """Parse serially, analyze under ``rt``; canonical sidecar bytes."""
    from repro.analyses import canonical_bytes, findings_document
    from repro.analyses.interproc import run_checkers

    cfg = parse_binary(binary, SerialRuntime())
    res = run_checkers(cfg, "all", rt=rt, binary=binary.name)
    doc = findings_document("checkers", list(res.summaries), res.findings)
    return canonical_bytes(doc)


@pytest.fixture(scope="module")
def reference_findings():
    """Inline (no runtime) sidecar bytes per program — the baseline."""
    return {name: _findings_bytes(_PROGRAMS[name].binary, None)
            for name in _FINDINGS_PROGRAMS}


@pytest.mark.parametrize("name", _FINDINGS_PROGRAMS, ids=str)
def test_findings_sidecar_matches_across_backends(name,
                                                  reference_findings):
    """The analyze pipeline's own headline property: the findings
    sidecar is byte-identical on every backend."""
    sb = _PROGRAMS[name]
    for rt in (SerialRuntime(), VirtualTimeRuntime(4), ThreadRuntime(4),
               ProcsRuntime(PROCS_WORKERS, in_process=PROCS_INLINE)):
        got = _findings_bytes(sb.binary, rt)
        assert got == reference_findings[name], (name,
                                                 type(rt).__name__)


@pytest.mark.parametrize("name", ["jumptable-heavy"], ids=str)
def test_findings_sidecar_matches_across_worker_counts(
        name, reference_findings):
    """SCC-wave fan-out geometry must not leak into the sidecar: 1, 2
    and 4 workers reproduce the inline bytes exactly."""
    sb = _PROGRAMS[name]
    for n in (1, 2, 4):
        for rt in (ThreadRuntime(n), ProcsRuntime(n, in_process=True)):
            got = _findings_bytes(sb.binary, rt)
            assert got == reference_findings[name], (name, n,
                                                     type(rt).__name__)
