"""Real-parallelism column: sharded multiprocessing CFG construction.

The virtual-time sweeps (figure2/table2) report *simulated* cycles; the
paper's actual claim is wall-clock speedup on real hardware.  The procs
backend is the one substrate in this reproduction with true hardware
parallelism (no GIL), so this benchmark adds the wall-clock column: one
serial parse per Table 1 binary against a sweep of procs worker counts
(default 2/4/8/16, ``REPRO_PROCS_SWEEP``), plus the fan-out/merge split
the backend reports, the per-phase coordinator breakdown
(install/frontier/wave/finalize from the ``procs.phase.*`` histograms),
the shared-memory transport volume, the merge/fan-out overlap and the
cross-shard redundancy (``procs.duplicate_insns``).

Speedup is hardware-dependent (CI containers may expose one core, where
the shard fan-out can only add overhead), so the asserted property is
the paper's correctness claim — the procs CFG is byte-identical to the
serial fixed point at every worker count — while the timings are
recorded honestly as the tracked trajectory in the
``procs_parallelism.json`` sidecar (``repro.bench-procs/4``, validated
in-run; the top-level ``cores`` field records how many CPU cores the
harness machine actually exposed, so a flat speedup curve can be read
against the hardware that produced it).  Speed regressions are gated
where the numbers can be believed: ``benchmarks/e2e``.
"""

import os
import time

from repro.core import parse_binary
from repro.runtime import ProcsRuntime, SerialRuntime
from repro.schema import BENCH_PROCS_SCHEMA, validate_bench_procs

from conftest import HPC_SCALE, run_once, write_table

PROCS_WORKERS = os.environ.get("REPRO_PROCS_WORKERS")
#: Worker counts swept per binary.  ``REPRO_PROCS_SWEEP`` (comma list)
#: wins; else a single ``REPRO_PROCS_WORKERS`` count (the CI smoke job
#: pins 2); else the default 2/4/8/16 scaling curve.
if os.environ.get("REPRO_PROCS_SWEEP"):
    SWEEP = sorted({int(w) for w in
                    os.environ["REPRO_PROCS_SWEEP"].split(",")})
elif PROCS_WORKERS:
    SWEEP = [int(PROCS_WORKERS)]
else:
    SWEEP = [2, 4, 8, 16]


def _hist_s(rt, name):
    h = rt.metrics.histogram(name)
    return round((h.total if h else 0) / 1e9, 4)


#: The five coordinator phases every procs run must time (CI procs-smoke
#: asserts their presence via this list; keep docs/OBSERVABILITY.md in
#: sync).
PHASE_HISTOGRAMS = ("procs.phase.fanout_wall_ns",
                    "procs.phase.install_wall_ns",
                    "procs.phase.frontier_wall_ns",
                    "procs.phase.wave_wall_ns",
                    "procs.phase.finalize_wall_ns")


def _cores():
    """CPU cores the harness may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def test_procs_wall_clock_column(benchmark, hpc_binaries):
    # Untimed warm-up parse: brings up the shared worker pool (a
    # persistent process-wide resource) so every recorded row measures
    # steady-state dispatch rather than charging one-time pool creation
    # to whichever binary happens to run first.
    parse_binary(hpc_binaries[0].binary, ProcsRuntime(max(SWEEP)))

    rows = []
    for sb in hpc_binaries:
        t0 = time.perf_counter()
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        serial_wall = time.perf_counter() - t0

        for workers in SWEEP:
            rt = ProcsRuntime(workers)
            got = parse_binary(sb.binary, rt).signature()
            assert got == want, (sb.name, workers)  # Section 8.1 equality

            procs_wall = rt.makespan
            # Tentpole invariant: every coordinator phase was timed.
            for name in PHASE_HISTOGRAMS:
                assert rt.metrics.histogram(name) is not None, (
                    sb.name, workers, name)
            rows.append({
                "binary": sb.name,
                "workers": workers,
                "serial_wall_s": round(serial_wall, 4),
                "procs_wall_s": round(procs_wall, 4),
                "speedup": round(serial_wall / procs_wall, 4),
                "fanout_wall_s": _hist_s(rt, "procs.phase.fanout_wall_ns"),
                "shards": rt.metrics.counter("procs.shards"),
                "pool_fallback": rt.metrics.counter("procs.pool_fallback"),
                "merged_cache_insns":
                    rt.metrics.counter("procs.merged_cache_insns"),
                "duplicate_insns":
                    rt.metrics.counter("procs.duplicate_insns"),
                "frontier_records":
                    rt.metrics.counter("procs.frontier.records"),
                "shm_bytes": rt.metrics.counter("procs.shm.bytes"),
                "shm_fallback": rt.metrics.counter("procs.shm.fallback"),
                "overlap_fragments":
                    rt.metrics.counter("procs.overlap.fragments"),
                "overlap_install_wall_s":
                    _hist_s(rt, "procs.overlap.install_wall_ns"),
                "install_wall_s": _hist_s(rt, "procs.phase.install_wall_ns"),
                "frontier_wall_s":
                    _hist_s(rt, "procs.phase.frontier_wall_ns"),
                "wave_wall_s": _hist_s(rt, "procs.phase.wave_wall_ns"),
                "finalize_wall_s":
                    _hist_s(rt, "procs.phase.finalize_wall_ns"),
            })

    # The timed unit: one representative procs parse.
    rep = hpc_binaries[0]
    run_once(benchmark, parse_binary, rep.binary, ProcsRuntime(max(SWEEP)))

    cores = _cores()
    lines = [f"Real-parallelism column: serial vs procs wall seconds "
             f"(scale={HPC_SCALE}, sweep={SWEEP}, cores={cores}, "
             f"pool pre-warmed)",
             f"{'Binary':<18} {'wrk':>4} {'serial s':>10} {'procs s':>10} "
             f"{'speedup':>8} {'fanout s':>10} {'instl s':>8} "
             f"{'frntr s':>8} {'wave s':>8} {'final s':>8} "
             f"{'dup insn':>9}"]
    for r in rows:
        lines.append(
            f"{r['binary']:<18} {r['workers']:>4} "
            f"{r['serial_wall_s']:>10.4f} {r['procs_wall_s']:>10.4f} "
            f"{r['speedup']:>8.2f} {r['fanout_wall_s']:>10.4f} "
            f"{r['install_wall_s']:>8.4f} {r['frontier_wall_s']:>8.4f} "
            f"{r['wave_wall_s']:>8.4f} {r['finalize_wall_s']:>8.4f} "
            f"{r['duplicate_insns']:>9}")
    sidecar = {"schema": BENCH_PROCS_SCHEMA, "scale": HPC_SCALE,
               "workers": max(SWEEP), "cores": cores, "rows": rows}
    problems = validate_bench_procs(sidecar)
    assert not problems, problems
    write_table("procs_parallelism.txt", "\n".join(lines), data=sidecar)

    by_row = {(r["binary"], r["workers"]): r for r in rows}
    for sb in hpc_binaries:
        for workers in SWEEP:
            r = by_row[(sb.name, workers)]
            assert r["shards"] >= 1
            assert r["procs_wall_s"] > 0
