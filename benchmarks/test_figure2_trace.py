"""Figure 2: execution trace of hpcstruct on TensorFlow at 64 workers.

The paper's trace shows seven phases; phases 2 (parallel DWARF) and 4
(parallel CFG) fill the machine, while 1, 3, 5 are serial and 6/7 are
parallel queries/output.  The reproduction renders the same breakdown
from the virtual-time runtime's trace: per-phase durations plus worker
utilization within each phase.
"""

from repro.apps.hpcstruct import hpcstruct
from repro.runtime import VirtualTimeRuntime
from repro.synth import tensorflow_like

from conftest import HPC_SCALE, run_once, write_table

PHASE_LABELS = {
    "read": "(1) read binary           [serial]",
    "dwarf_types": "(2) parse DWARF types     [parallel]",
    "line_map": "(3) build line map        [serial]",
    "cfg": "(4) parse text regions    [parallel]",
    "skeleton": "(5) build skeletons       [serial]",
    "queries": "(6) fill from queries     [parallel]",
    "output": "(7) serialize + write     [parallel]",
}


def test_figure2_phase_trace(benchmark):
    sb = tensorflow_like(scale=HPC_SCALE)
    rt = VirtualTimeRuntime(64, enable_trace=True)
    res = run_once(benchmark, hpcstruct, sb.binary, rt)

    spans = {p.name: p for p in rt.trace.phases
             if p.name in PHASE_LABELS}
    lines = [
        "Figure 2 (reproduced): hpcstruct trace on TensorFlow-like, "
        "64 workers",
        f"{'phase':<42} {'start':>10} {'cycles':>10} {'util':>6}",
    ]
    for name, label in PHASE_LABELS.items():
        p = spans[name]
        util = rt.trace.utilization(p)
        lines.append(f"{label:<42} {p.start:>10,} {p.duration:>10,} "
                     f"{util:>5.0%}")
    lines.append(f"{'TOTAL':<42} {'':>10} {res.makespan:>10,}")
    from repro.runtime.tracefmt import render_trace, run_report
    from repro.schema import validate_report

    lines.append("")
    lines.append(render_trace(rt.trace, width=96))
    report = run_report(rt, workload="tensorflow")
    assert validate_report(report) == []
    write_table("figure2.txt", "\n".join(lines), data=report)

    # Phases appear in pipeline order and tile the run.
    starts = [spans[n].start for n in PHASE_LABELS]
    assert starts == sorted(starts)
    assert sum(p.duration for p in spans.values()) == res.makespan

    # The parallel phases actually use the machine; serial ones cannot.
    util = {n: rt.trace.utilization(spans[n]) for n in PHASE_LABELS}
    for par in ("dwarf_types", "cfg", "queries"):
        for ser in ("read", "line_map", "skeleton"):
            assert util[par] > util[ser], (par, ser, util)

    # DWARF parsing dominates TensorFlow's single-threaded profile
    # (paper: 703s DWARF vs 113s CFG at one thread) — at 64 workers both
    # have shrunk, but phase 2 still outweighs the serial phases.
    assert spans["dwarf_types"].duration + spans["cfg"].duration > \
        spans["skeleton"].duration


def test_figure2_parallel_phases_shrink_with_workers(benchmark):
    sb = tensorflow_like(scale=HPC_SCALE)

    def both():
        rt1 = VirtualTimeRuntime(1, enable_trace=True)
        r1 = hpcstruct(sb.binary, rt1)
        rt64 = VirtualTimeRuntime(64, enable_trace=True)
        r64 = hpcstruct(sb.binary, rt64)
        return r1, r64

    r1, r64 = run_once(benchmark, both)
    # Serial sections bound the end-to-end speedup (paper: ~13x ceiling).
    serial = sum(r64.phase_durations[p]
                 for p in ("read", "line_map", "skeleton"))
    speedup = r1.makespan / r64.makespan
    amdahl_ceiling = r1.makespan / serial
    assert speedup <= amdahl_ceiling
    assert speedup > 4
