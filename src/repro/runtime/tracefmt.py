"""Trace/metrics rendering and the run-report JSON export.

Two halves:

- ASCII rendering (Figure 2 style): :func:`render_trace` draws a
  :class:`~repro.runtime.api.Trace` as a worker-utilization timeline —
  one row per bucketed group of workers, one column per time bucket,
  density glyphs for busyness, phase boundaries on a header rail.
  :func:`render_metrics` prints a metrics snapshot as an aligned table.
- JSON export: :func:`run_report` assembles a complete machine-readable
  record of one run — backend, makespan, the trace, and the metrics
  snapshot — under the versioned ``repro.run-report/1`` schema that
  ``docs/OBSERVABILITY.md`` documents and :mod:`repro.schema` checks;
  :func:`trace_from_json` round-trips traces back into objects.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.api import PhaseSpan, Trace, TraceInterval
from repro.schema import RUN_REPORT_SCHEMA as REPORT_SCHEMA, to_json

_GLYPHS = " .:-=+*#%@"


def render_trace(trace: Trace, width: int = 100,
                 worker_rows: int = 8) -> str:
    """Render the trace as text; ``width`` columns over the full span."""
    if not trace.intervals and not trace.phases:
        return "(empty trace)"
    end = max([iv.end for iv in trace.intervals] +
              [p.end for p in trace.phases] + [1])
    bucket = max(1, end // width)
    n_cols = (end + bucket - 1) // bucket
    rows = min(worker_rows, trace.n_workers)
    per_row = (trace.n_workers + rows - 1) // rows

    # busy[row][col] = busy cycles of that worker group in that bucket.
    busy = [[0] * n_cols for _ in range(rows)]
    for iv in trace.intervals:
        row = min(iv.worker // per_row, rows - 1)
        c0 = iv.start // bucket
        c1 = max(c0, (iv.end - 1) // bucket)
        for c in range(c0, min(c1 + 1, n_cols)):
            lo = max(iv.start, c * bucket)
            hi = min(iv.end, (c + 1) * bucket)
            busy[row][c] += max(0, hi - lo)

    cap = per_row * bucket
    out: list[str] = []

    # Phase rail.
    rail = [" "] * n_cols
    for i, p in enumerate(trace.phases):
        c0 = min(p.start // bucket, n_cols - 1)
        label = str((i % 9) + 1)
        rail[c0] = "|"
        if c0 + 1 < n_cols:
            rail[c0 + 1] = label
    out.append("phases  " + "".join(rail))
    for r in range(rows):
        cells = []
        for c in range(n_cols):
            frac = busy[r][c] / cap if cap else 0
            idx = min(len(_GLYPHS) - 1, int(frac * (len(_GLYPHS) - 1)
                                            + 0.5))
            cells.append(_GLYPHS[idx])
        lo = r * per_row
        hi = min(trace.n_workers, lo + per_row) - 1
        out.append(f"w{lo:02d}-{hi:02d} " + "".join(cells))
    legend = ", ".join(f"{(i % 9) + 1}={p.name}"
                       for i, p in enumerate(trace.phases))
    out.append(f"phases: {legend}")
    return "\n".join(out)


def render_phase_table(trace: Trace) -> str:
    """Per-phase duration/utilization table (the numbers behind Figure 2)."""
    if not trace.phases:
        return "(no phases)"
    lines = [f"{'phase':<24} {'start':>12} {'cycles':>12} {'util':>6}"]
    for p in trace.phases:
        lines.append(f"{p.name:<24} {p.start:>12,} {p.duration:>12,} "
                     f"{trace.utilization(p):>5.0%}")
    return "\n".join(lines)


def render_metrics(snapshot: dict) -> str:
    """Aligned text table of a :meth:`MetricsRegistry.snapshot`."""
    counters = snapshot.get("counters", {})
    hists = snapshot.get("histograms", {})
    unit = snapshot.get("time_unit", "cycles")
    lines: list[str] = []
    if counters:
        lines.append(f"{'counter':<34} {'value':>12}")
        for name in sorted(counters):
            lines.append(f"{name:<34} {counters[name]:>12,}")
    if hists:
        if lines:
            lines.append("")
        lines.append(f"{'histogram (' + unit + ')':<34} {'count':>8} "
                     f"{'sum':>12} {'min':>8} {'max':>8} {'mean':>10}")
        for name in sorted(hists):
            h = hists[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"{name:<34} {h['count']:>8,} {h['sum']:>12,} "
                f"{(h['min'] if h['min'] is not None else 0):>8,} "
                f"{(h['max'] if h['max'] is not None else 0):>8,} "
                f"{mean:>10.1f}")
    return "\n".join(lines) if lines else "(no metrics)"


# ------------------------------------------------------------------ JSON

def trace_to_json(trace: Trace) -> dict:
    """JSON-ready dict for a trace (schema in docs/OBSERVABILITY.md)."""
    return to_json(trace)


def trace_from_json(obj: dict) -> Trace:
    """Rebuild a :class:`Trace` from its JSON form (export round-trip)."""
    return Trace(obj["n_workers"],
                 [TraceInterval(**iv) for iv in obj["intervals"]],
                 [PhaseSpan(**p) for p in obj["phases"]])


def run_report(rt: Any, workload: str | None = None,
               races: dict | None = None) -> dict:
    """Assemble the versioned run report for a finished runtime.

    Must be called after ``rt.run`` returned (``makespan`` is read).
    The backend and ``time_unit`` are the runtime's own: the makespan,
    the trace timestamps and the metric timings are all on its one
    clock.
    """
    report = {
        "schema": REPORT_SCHEMA,
        "backend": rt.backend,
        "workload": workload,
        "n_workers": rt.num_workers,
        "time_unit": rt.time_unit,
        "makespan": rt.makespan,
        "metrics": rt.metrics.snapshot() if rt.metrics.enabled else None,
        "trace": trace_to_json(rt.trace) if rt.trace is not None else None,
    }
    # Fault-tolerance record (procs backend): what failed and how far
    # down the degradation ladder the run went.  Optional sections —
    # only runtimes that track faults export them.
    fault_events = getattr(rt, "fault_events", None)
    if fault_events is not None:
        report["fault_events"] = [dict(ev) for ev in fault_events]
    degradation = getattr(rt, "degradation", None)
    if degradation is not None:
        report["degradation"] = {"level": degradation["level"],
                                 "steps": list(degradation["steps"])}
    # Optional race-sweep section: the ``repro.races/1`` document from
    # repro.sanity.races.run_race_sweep, attached verbatim.
    if races is not None:
        report["races"] = races
    return report
