"""Trace/metrics rendering and the versioned run-report JSON format.

Two halves:

- ASCII rendering (Figure 2 style): :func:`render_trace` draws a
  :class:`~repro.runtime.api.Trace` as a worker-utilization timeline —
  one row per bucketed group of workers, one column per time bucket,
  density glyphs for busyness, phase boundaries on a header rail.
  :func:`render_metrics` prints a metrics snapshot as an aligned table.
- JSON export: :func:`run_report` assembles a complete machine-readable
  record of one run — backend, makespan, the trace, and the metrics
  snapshot — under the versioned ``repro.run-report/1`` schema that
  ``docs/OBSERVABILITY.md`` documents.  :func:`validate_report` is the
  executable form of that schema (no external dependency);
  :func:`trace_from_json` round-trips traces back into objects.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.api import PhaseSpan, Trace, TraceInterval
from repro.runtime.metrics import METRICS_SCHEMA
from repro.sanity.races import RACES_SCHEMA

#: Version identifier of the exported run-report JSON document.
REPORT_SCHEMA = "repro.run-report/1"

#: Version identifier of the procs-parallelism benchmark sidecar: per
#: row the wall columns and their ``speedup`` (``serial_wall_s /
#: procs_wall_s``), the shared-memory-transport and merge-overlap
#: columns (``shm_bytes``, ``shm_fallback``, ``overlap_fragments``,
#: ``overlap_install_wall_s``) and the per-phase breakdown
#: (``install_wall_s``, ``frontier_wall_s``, ``wave_wall_s``,
#: ``finalize_wall_s``); at the top level ``cores``, how many CPU cores
#: the harness machine exposed.  :func:`validate_bench_procs` accepts
#: this revision only.
BENCH_PROCS_SCHEMA = "repro.bench-procs/4"

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
    return {
        "n_workers": trace.n_workers,
        "intervals": [
            {"worker": iv.worker, "start": iv.start, "end": iv.end,
             "tag": iv.tag}
            for iv in trace.intervals
        ],
        "phases": [
            {"name": p.name, "start": p.start, "end": p.end}
            for p in trace.phases
        ],
    }


def trace_from_json(obj: dict) -> Trace:
    """Rebuild a :class:`Trace` from its JSON form (export round-trip)."""
    trace = Trace(obj["n_workers"])
    trace.intervals = [
        TraceInterval(iv["worker"], iv["start"], iv["end"], iv["tag"])
        for iv in obj["intervals"]
    ]
    trace.phases = [
        PhaseSpan(p["name"], p["start"], p["end"]) for p in obj["phases"]
    ]
    return trace


_BACKEND_NAMES = {
    "VirtualTimeRuntime": "vtime",
    "ThreadRuntime": "threads",
    "SerialRuntime": "serial",
    "ProcsRuntime": "procs",
}

#: Backends whose ``makespan`` is wall-clock seconds (vs cycles).
_WALL_CLOCK_BACKENDS = ("threads", "procs")

#: Legal ``degradation.level`` values, least to most degraded (mirrors
#: ``repro.runtime.procs.DEGRADATION_LEVELS``; duplicated here so the
#: validator has no runtime import).
_DEGRADATION_LEVELS = ("none", "shard_inline", "inline", "serial")


def run_report(rt: Any, workload: str | None = None,
               races: dict | None = None) -> dict:
    """Assemble the versioned run report for a finished runtime.

    Must be called after ``rt.run`` returned (``makespan`` is read).
    ``time_unit`` describes the makespan and trace timestamps; the
    metrics snapshot carries its own unit (identical except on the
    wall-clock backends — threads and procs — where the makespan is
    wall seconds but metric timings are in the registry's own unit).
    """
    backend = _BACKEND_NAMES.get(type(rt).__name__, type(rt).__name__)
    report = {
        "schema": REPORT_SCHEMA,
        "backend": backend,
        "workload": workload,
        "n_workers": rt.num_workers,
        "time_unit": ("seconds" if backend in _WALL_CLOCK_BACKENDS
                      else "cycles"),
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


_RACE_KINDS = ("read-write", "write-read", "write-write")


def validate_races(obj: Any) -> list[str]:
    """Check a race-sweep report against the ``repro.races/1`` schema.

    Returns a list of human-readable problems; empty means valid.  The
    document is produced by :func:`repro.sanity.races.run_race_sweep`
    (also ``repro check --races``) and may appear embedded as the
    ``races`` section of a run report.
    """
    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    if not expect(isinstance(obj, dict), "races report is not an object"):
        return errs
    expect(obj.get("schema") == RACES_SCHEMA,
           f"schema is {obj.get('schema')!r}, want {RACES_SCHEMA!r}")
    expect(isinstance(obj.get("workload"), str),
           "workload must be a string")
    expect(isinstance(obj.get("n_workers"), int)
           and not isinstance(obj.get("n_workers"), bool)
           and obj.get("n_workers", -1) >= 0,
           "n_workers must be an int >= 0")
    seeds = obj.get("seeds")
    if expect(isinstance(seeds, list), "seeds must be a list"):
        for i, s in enumerate(seeds):
            expect(s is None or (isinstance(s, int)
                                 and not isinstance(s, bool)),
                   f"seeds[{i}] must be int|null")
        expect(obj.get("schedules") == len(seeds),
               f"schedules is {obj.get('schedules')!r}, want len(seeds) "
               f"= {len(seeds)}")
    expect(isinstance(obj.get("events"), int)
           and not isinstance(obj.get("events"), bool)
           and obj.get("events", -1) >= 0,
           "events must be an int >= 0")
    findings = obj.get("findings")
    if not expect(isinstance(findings, list), "findings must be a list"):
        return errs
    for i, f in enumerate(findings):
        if not expect(isinstance(f, dict),
                      f"findings[{i}] must be an object"):
            continue
        expect(isinstance(f.get("location"), str),
               f"findings[{i}]: location must be a string")
        expect(f.get("kind") in _RACE_KINDS,
               f"findings[{i}]: kind is {f.get('kind')!r}, want one of "
               f"{_RACE_KINDS!r}")
        sites = f.get("sites")
        if expect(isinstance(sites, list) and len(sites) == 2,
                  f"findings[{i}]: sites must be a 2-element list"):
            for j, s in enumerate(sites):
                expect(isinstance(s, str),
                       f"findings[{i}]: sites[{j}] must be a string")
        expect(isinstance(f.get("count"), int)
               and not isinstance(f.get("count"), bool)
               and f.get("count", 0) >= 1,
               f"findings[{i}]: count must be an int >= 1")
        fs = f.get("first_seed")
        expect(fs is None or (isinstance(fs, int)
                              and not isinstance(fs, bool)),
               f"findings[{i}]: first_seed must be int|null")
    return errs


def validate_bench_procs(obj: Any) -> list[str]:
    """Check a procs-parallelism benchmark sidecar against its schema.

    Accepts exactly ``repro.bench-procs/4``.  The per-row
    ``speedup`` column must agree with ``serial_wall_s / procs_wall_s``
    up to the 4-decimal rounding all three columns carry — anything
    beyond that bound is a recording error, not noise.  Returns a list
    of human-readable problems; empty means valid.
    """
    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    if not expect(isinstance(obj, dict), "sidecar is not an object"):
        return errs
    schema = obj.get("schema")
    if not expect(schema == BENCH_PROCS_SCHEMA,
                  f"schema is {schema!r}, want {BENCH_PROCS_SCHEMA!r}"):
        return errs
    expect(isinstance(obj.get("scale"), (int, float))
           and not isinstance(obj.get("scale"), bool)
           and obj.get("scale", 0) > 0, "scale must be a positive number")
    expect(isinstance(obj.get("workers"), int)
           and obj.get("workers", 0) >= 1, "workers must be an int >= 1")
    expect(isinstance(obj.get("cores"), int)
           and not isinstance(obj.get("cores"), bool)
           and obj.get("cores", 0) >= 1,
           "cores must be an int >= 1")
    rows = obj.get("rows")
    if not expect(isinstance(rows, list) and rows,
                  "rows must be a non-empty list"):
        return errs
    numeric = ["serial_wall_s", "procs_wall_s", "fanout_wall_s",
               "speedup", "overlap_install_wall_s", "install_wall_s",
               "frontier_wall_s", "wave_wall_s", "finalize_wall_s"]
    counters = ["shards", "pool_fallback", "merged_cache_insns",
                "duplicate_insns", "shm_bytes", "shm_fallback",
                "overlap_fragments"]
    for i, row in enumerate(rows):
        if not expect(isinstance(row, dict), f"row[{i}] must be an object"):
            continue
        expect(isinstance(row.get("binary"), str),
               f"row[{i}]: binary must be a string")
        expect(isinstance(row.get("workers"), int)
               and row.get("workers", 0) >= 1,
               f"row[{i}]: workers must be an int >= 1")
        for col in numeric:
            v = row.get(col)
            expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and v >= 0,
                   f"row[{i}]: {col} must be a non-negative number")
        for col in counters:
            v = row.get(col)
            expect(isinstance(v, int) and not isinstance(v, bool)
                   and v >= 0,
                   f"row[{i}]: {col} must be an int >= 0")
        s, p, spd = (row.get("serial_wall_s"), row.get("procs_wall_s"),
                     row.get("speedup"))
        if all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in (s, p, spd)) and p > 0 and spd >= 0:
            # All three columns are recorded rounded to 4 decimals,
            # so the stored speedup may differ from the ratio of the
            # stored wall times by at most the propagated half-ulp:
            # 5e-5 on speedup itself, plus (5e-5 / p) * (1 + s/p)
            # from the numerator and denominator.  Beyond that the
            # row is internally inconsistent.
            tol = 5e-5 * (1.0 + (1.0 + s / p) / p) + 1e-9
            expect(abs(spd - s / p) <= tol,
                   f"row[{i}]: speedup {spd} inconsistent with "
                   f"serial_wall_s/procs_wall_s = {s / p} "
                   f"(rounding tolerance {tol:.2e})")
    return errs


def validate_fuzz_report(obj: Any) -> list[str]:
    """Check a fuzz-campaign report against ``repro.fuzz-report/1``.

    The document is produced by :func:`repro.fuzz.driver.fuzz_run`
    (also ``repro fuzz --json``).  Returns a list of human-readable
    problems; empty means valid.
    """
    from repro.fuzz.driver import FUZZ_REPORT_SCHEMA
    from repro.fuzz.specio import CASE_SCHEMA

    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    def is_int(v: Any) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if not expect(isinstance(obj, dict), "fuzz report is not an object"):
        return errs
    expect(obj.get("schema") == FUZZ_REPORT_SCHEMA,
           f"schema is {obj.get('schema')!r}, want {FUZZ_REPORT_SCHEMA!r}")
    expect(is_int(obj.get("seed")), "seed must be an int")
    expect(is_int(obj.get("runs")) and obj.get("runs", 0) >= 1,
           "runs must be an int >= 1")
    expect(isinstance(obj.get("minimize"), bool),
           "minimize must be a bool")
    presets = obj.get("presets")
    if expect(isinstance(presets, list) and presets,
              "presets must be a non-empty list"):
        for i, p in enumerate(presets):
            expect(isinstance(p, str), f"presets[{i}] must be a string")
    axes = obj.get("axes")
    if expect(isinstance(axes, list) and axes,
              "axes must be a non-empty list"):
        for i, a in enumerate(axes):
            expect(isinstance(a, str), f"axes[{i}] must be a string")

    cases = obj.get("cases")
    if not expect(isinstance(cases, list), "cases must be a list"):
        return errs
    expect(len(cases) == obj.get("runs"),
           f"{len(cases)} case rows for runs={obj.get('runs')!r}")
    for i, c in enumerate(cases):
        if not expect(isinstance(c, dict), f"cases[{i}] must be an object"):
            continue
        expect(c.get("index") == i, f"cases[{i}]: index must be {i}")
        expect(isinstance(presets, list) and c.get("preset") in presets,
               f"cases[{i}]: preset {c.get('preset')!r} not in presets")
        expect(is_int(c.get("case_seed")),
               f"cases[{i}]: case_seed must be an int")
        expect(isinstance(c.get("binary"), str),
               f"cases[{i}]: binary must be a string")
        expect(isinstance(c.get("reference"), str),
               f"cases[{i}]: reference must be a string")
        expect(isinstance(c.get("reference_digest"), str),
               f"cases[{i}]: reference_digest must be a string")
        digests = c.get("digests")
        if expect(isinstance(digests, dict),
                  f"cases[{i}]: digests must be an object"):
            for k, v in digests.items():
                expect(isinstance(k, str) and isinstance(v, str),
                       f"cases[{i}]: digest {k!r} must map str to str")
            ref = c.get("reference")
            expect(digests.get(ref) == c.get("reference_digest"),
                   f"cases[{i}]: digests[{ref!r}] must equal "
                   f"reference_digest")
        failing = c.get("failing")
        if expect(isinstance(failing, list),
                  f"cases[{i}]: failing must be a list"):
            for a in failing:
                expect(isinstance(axes, list) and a in axes,
                       f"cases[{i}]: failing axis {a!r} not in axes")
        findings = c.get("findings")
        if expect(isinstance(findings, dict),
                  f"cases[{i}]: findings must be an object"):
            for k, v in findings.items():
                expect(isinstance(k, str) and isinstance(v, list)
                       and all(isinstance(f, dict) for f in v),
                       f"cases[{i}]: findings[{k!r}] must be a list of "
                       f"objects")

    divs = obj.get("divergences")
    if not expect(isinstance(divs, list), "divergences must be a list"):
        return errs
    for i, d in enumerate(divs):
        if not expect(isinstance(d, dict),
                      f"divergences[{i}] must be an object"):
            continue
        expect(is_int(d.get("index")) and 0 <= d.get("index", -1)
               < len(cases),
               f"divergences[{i}]: index out of range")
        failing = d.get("failing")
        expect(isinstance(failing, list) and failing
               and all(isinstance(a, str) for a in failing),
               f"divergences[{i}]: failing must be a non-empty string "
               f"list")
        mini = d.get("minimized")
        if mini is not None:
            if expect(isinstance(mini, dict),
                      f"divergences[{i}]: minimized must be object|null"):
                expect(mini.get("schema") == CASE_SCHEMA,
                       f"divergences[{i}]: minimized schema is "
                       f"{mini.get('schema')!r}, want {CASE_SCHEMA!r}")
                spec = mini.get("spec")
                expect(isinstance(spec, dict)
                       and isinstance(spec.get("functions"), list),
                       f"divergences[{i}]: minimized.spec must hold a "
                       f"functions list")
        red = d.get("reduce")
        if red is not None:
            if expect(isinstance(red, dict),
                      f"divergences[{i}]: reduce must be object|null"):
                for k in ("attempts", "accepted"):
                    expect(is_int(red.get(k)) and red.get(k, -1) >= 0,
                           f"divergences[{i}]: reduce.{k} must be an "
                           f"int >= 0")
                for k in ("size_before", "size_after"):
                    v = red.get(k)
                    expect(isinstance(v, list) and len(v) == 2
                           and all(is_int(x) and x >= 0 for x in v),
                           f"divergences[{i}]: reduce.{k} must be a "
                           f"2-element int list")

    summary = obj.get("summary")
    if expect(isinstance(summary, dict), "summary must be an object"):
        expect(summary.get("cases") == len(cases),
               f"summary.cases is {summary.get('cases')!r}, want "
               f"{len(cases)}")
        expect(summary.get("diverged") == len(divs),
               f"summary.diverged is {summary.get('diverged')!r}, want "
               f"{len(divs)}")
        fa = summary.get("failing_axes")
        expect(isinstance(fa, list)
               and all(isinstance(a, str) for a in fa),
               "summary.failing_axes must be a string list")
        expect(is_int(summary.get("sanity_findings"))
               and summary.get("sanity_findings", -1) >= 0,
               "summary.sanity_findings must be an int >= 0")
    return errs


def validate_corpus_report(obj: Any) -> list[str]:
    """Check a corpus report against ``repro.corpus-report/1``.

    The document is produced by :func:`repro.corpus.run_corpus` (also
    ``repro corpus``) and is a pure function of the run's journal —
    the chaos tests additionally pin its *byte* form across
    kill/resume.  Returns a list of human-readable problems; empty
    means valid.
    """
    from repro.corpus.report import REPORT_SCHEMA as CORPUS_SCHEMA

    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    def is_int(v: Any) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    def is_num(v: Any) -> bool:
        return is_int(v) or isinstance(v, float)

    if not expect(isinstance(obj, dict), "corpus report is not an object"):
        return errs
    expect(obj.get("schema") == CORPUS_SCHEMA,
           f"schema is {obj.get('schema')!r}, want {CORPUS_SCHEMA!r}")

    corpus = obj.get("corpus")
    count = 0
    if expect(isinstance(corpus, dict), "corpus must be an object"):
        expect(is_int(corpus.get("seed")), "corpus.seed must be an int")
        if expect(is_int(corpus.get("count"))
                  and corpus.get("count", 0) >= 1,
                  "corpus.count must be an int >= 1"):
            count = corpus["count"]
        presets = corpus.get("presets")
        expect(isinstance(presets, list) and presets
               and all(isinstance(p, str) for p in presets),
               "corpus.presets must be a non-empty string list")
        expect(is_int(corpus.get("attempts"))
               and corpus.get("attempts", 0) >= 1,
               "corpus.attempts must be an int >= 1")
        expect(isinstance(corpus.get("verify"), bool),
               "corpus.verify must be a bool")
        expect(corpus.get("backend") in ("procs", "serial"),
               f"corpus.backend {corpus.get('backend')!r} unknown")
        expect(is_int(corpus.get("window"))
               and corpus.get("window", 0) >= 1,
               "corpus.window must be an int >= 1")

    binaries = obj.get("binaries")
    n_ok = n_quarantined = 0
    if expect(isinstance(binaries, list), "binaries must be a list"):
        expect(len(binaries) == count,
               f"{len(binaries)} binary rows for count={count}")
        for i, b in enumerate(binaries):
            if not expect(isinstance(b, dict),
                          f"binaries[{i}] must be an object"):
                continue
            expect(b.get("index") == i,
                   f"binaries[{i}]: index must be {i}")
            expect(isinstance(b.get("name"), str),
                   f"binaries[{i}]: name must be a string")
            expect(isinstance(b.get("preset"), str),
                   f"binaries[{i}]: preset must be a string")
            status = b.get("status")
            if not expect(status in ("ok", "quarantined"),
                          f"binaries[{i}]: status {status!r} unknown"):
                continue
            expect(isinstance(b.get("failures"), list),
                   f"binaries[{i}]: failures must be a list")
            if status == "ok":
                n_ok += 1
                expect(isinstance(b.get("digest"), str),
                       f"binaries[{i}]: ok row needs a digest")
                expect(b.get("backend") in ("procs", "serial"),
                       f"binaries[{i}]: backend {b.get('backend')!r} "
                       f"unknown")
                expect(is_int(b.get("attempt"))
                       and b.get("attempt", 0) >= 1,
                       f"binaries[{i}]: attempt must be an int >= 1")
                expect(is_num(b.get("latency_s"))
                       and b.get("latency_s", -1) >= 0,
                       f"binaries[{i}]: latency_s must be >= 0")
                for k in ("functions", "blocks", "edges"):
                    expect(is_int(b.get(k)) and b.get(k, -1) >= 0,
                           f"binaries[{i}]: {k} must be an int >= 0")
            else:
                n_quarantined += 1
                expect(isinstance(b.get("reason"), str),
                       f"binaries[{i}]: quarantined row needs a reason")
                expect(b.get("digest") is None,
                       f"binaries[{i}]: quarantined row must not carry "
                       f"a digest")

    summary = obj.get("summary")
    if expect(isinstance(summary, dict), "summary must be an object"):
        expect(summary.get("count") == count,
               f"summary.count is {summary.get('count')!r}, want {count}")
        expect(summary.get("completed") == n_ok,
               f"summary.completed is {summary.get('completed')!r}, "
               f"want {n_ok}")
        expect(summary.get("quarantined") == n_quarantined,
               f"summary.quarantined is {summary.get('quarantined')!r}, "
               f"want {n_quarantined}")

    lat = obj.get("latency")
    if expect(isinstance(lat, dict), "latency must be an object"):
        expect(lat.get("count") == n_ok,
               f"latency.count is {lat.get('count')!r}, want {n_ok}")
        for k in ("mean_s", "p50_s", "p90_s", "p99_s", "max_s",
                  "total_s"):
            expect(is_num(lat.get(k)) and lat.get(k, -1) >= 0,
                   f"latency.{k} must be a number >= 0")

    thr = obj.get("throughput")
    if expect(isinstance(thr, dict), "throughput must be an object"):
        for k in ("total_analysis_s", "binaries_per_second"):
            expect(is_num(thr.get(k)) and thr.get(k, -1) >= 0,
                   f"throughput.{k} must be a number >= 0")

    deg = obj.get("degradation")
    if expect(isinstance(deg, dict), "degradation must be an object"):
        for k in ("initial_window", "final_window"):
            expect(is_int(deg.get(k)) and deg.get(k, 0) >= 1,
                   f"degradation.{k} must be an int >= 1")
        for k in ("window_shrinks", "serial_binaries"):
            expect(is_int(deg.get(k)) and deg.get(k, -1) >= 0,
                   f"degradation.{k} must be an int >= 0")

    quarantine = obj.get("quarantine")
    if expect(isinstance(quarantine, dict),
              "quarantine must be an object"):
        expect(quarantine.get("count") == n_quarantined,
               f"quarantine.count is {quarantine.get('count')!r}, "
               f"want {n_quarantined}")
        reasons = quarantine.get("reasons")
        if expect(isinstance(reasons, dict),
                  "quarantine.reasons must be an object"):
            expect(sum(reasons.values()) == n_quarantined
                   if all(is_int(v) for v in reasons.values()) else False,
                   "quarantine.reasons must be int counts summing to "
                   "the quarantined total")
        entries = quarantine.get("entries")
        if expect(isinstance(entries, list),
                  "quarantine.entries must be a list"):
            expect(len(entries) == n_quarantined,
                   f"{len(entries)} quarantine entries for "
                   f"{n_quarantined} quarantined rows")
            for i, e in enumerate(entries):
                if not expect(isinstance(e, dict),
                              f"quarantine.entries[{i}] must be an "
                              f"object"):
                    continue
                expect(is_int(e.get("index")),
                       f"quarantine.entries[{i}]: index must be an int")
                expect(isinstance(e.get("reason"), str),
                       f"quarantine.entries[{i}]: reason must be a "
                       f"string")
                expect(isinstance(e.get("path"), str),
                       f"quarantine.entries[{i}]: path must be a string")
    return errs


def validate_findings(obj: Any) -> list[str]:
    """Check a findings sidecar against ``repro.findings/1``.

    The document is produced by the interprocedural checkers
    (``repro analyze --json``), the ground-truth corpus checker
    (``repro check --json``) and the static lint (``repro lint
    --json``) — one shared format, one validator.  Beyond field
    shapes, this enforces the determinism contract: findings must be
    in canonical sort order and must carry no backend/worker metadata
    (the byte form is pinned across backends).  Returns a list of
    human-readable problems; empty means valid.
    """
    from repro.analyses.findings import (
        FINDING_FIELDS,
        FINDINGS_GENERATORS,
        FINDINGS_SCHEMA,
        finding_sort_key,
    )

    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    def is_int(v: Any) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if not expect(isinstance(obj, dict), "findings doc is not an object"):
        return errs
    expect(obj.get("schema") == FINDINGS_SCHEMA,
           f"schema is {obj.get('schema')!r}, want {FINDINGS_SCHEMA!r}")
    expect(obj.get("generator") in FINDINGS_GENERATORS,
           f"generator is {obj.get('generator')!r}, want one of "
           f"{FINDINGS_GENERATORS!r}")
    for banned in ("backend", "workers", "n_workers", "runtime"):
        expect(banned not in obj,
               f"{banned!r} must not appear in a findings doc (the "
               f"byte form is backend-independent)")
    checks = obj.get("checks")
    if expect(isinstance(checks, list) and checks
              and all(isinstance(c, str) for c in checks),
              "checks must be a non-empty string list"):
        expect(checks == sorted(checks), "checks must be sorted")
    else:
        checks = []
    expect(isinstance(obj.get("subject"), dict),
           "subject must be an object")

    findings = obj.get("findings")
    if not expect(isinstance(findings, list), "findings must be a list"):
        return errs
    by_rule: dict[str, int] = {}
    for i, f in enumerate(findings):
        if not expect(isinstance(f, dict),
                      f"findings[{i}] must be an object"):
            continue
        expect(sorted(f) == sorted(FINDING_FIELDS),
               f"findings[{i}]: fields must be exactly "
               f"{sorted(FINDING_FIELDS)}")
        rule = f.get("rule")
        if expect(isinstance(rule, str),
                  f"findings[{i}]: rule must be a string"):
            expect(rule in checks,
                   f"findings[{i}]: rule {rule!r} not in checks")
            by_rule[rule] = by_rule.get(rule, 0) + 1
        expect(isinstance(f.get("detail"), str),
               f"findings[{i}]: detail must be a string")
        for k in ("binary", "function", "path"):
            v = f.get(k)
            expect(v is None or isinstance(v, str),
                   f"findings[{i}]: {k} must be string|null")
        for k in ("address", "line"):
            v = f.get(k)
            expect(v is None or is_int(v),
                   f"findings[{i}]: {k} must be int|null")
    if all(isinstance(f, dict) for f in findings):
        try:
            ordered = all(
                finding_sort_key(findings[i]) <= finding_sort_key(
                    findings[i + 1])
                for i in range(len(findings) - 1))
        except TypeError:
            ordered = False
        expect(ordered, "findings must be in canonical sort order")

    summary = obj.get("summary")
    if expect(isinstance(summary, dict), "summary must be an object"):
        expect(summary.get("findings") == len(findings),
               f"summary.findings is {summary.get('findings')!r}, "
               f"want {len(findings)}")
        sbr = summary.get("by_rule")
        if expect(isinstance(sbr, dict),
                  "summary.by_rule must be an object"):
            expect(sbr == by_rule,
                   f"summary.by_rule {sbr!r} does not match the "
                   f"findings (want {by_rule!r})")
    return errs


def validate_report(obj: Any) -> list[str]:
    """Check a run report against the documented schema.

    Returns a list of human-readable problems; an empty list means the
    document is valid ``repro.run-report/1``.  This is the executable
    counterpart of the schema tables in ``docs/OBSERVABILITY.md`` — keep
    the two in sync.
    """
    errs: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errs.append(msg)
        return cond

    if not expect(isinstance(obj, dict), "report is not an object"):
        return errs
    expect(obj.get("schema") == REPORT_SCHEMA,
           f"schema is {obj.get('schema')!r}, want {REPORT_SCHEMA!r}")
    expect(obj.get("backend") in ("vtime", "threads", "serial", "procs"),
           f"unknown backend {obj.get('backend')!r}")
    expect(isinstance(obj.get("n_workers"), int)
           and obj.get("n_workers", 0) >= 1, "n_workers must be an int >= 1")
    expect(isinstance(obj.get("time_unit"), str), "time_unit must be a string")
    expect(isinstance(obj.get("makespan"), (int, float))
           and not isinstance(obj.get("makespan"), bool)
           and obj.get("makespan", -1) >= 0,
           "makespan must be a non-negative number")
    if "workload" in obj:
        expect(obj["workload"] is None or isinstance(obj["workload"], str),
               "workload must be a string or null")

    metrics = obj.get("metrics")
    if metrics is not None:
        if expect(isinstance(metrics, dict), "metrics must be an object"):
            expect(metrics.get("schema") == METRICS_SCHEMA,
                   f"metrics schema is {metrics.get('schema')!r}, "
                   f"want {METRICS_SCHEMA!r}")
            expect(isinstance(metrics.get("time_unit"), str),
                   "metrics.time_unit must be a string")
            counters = metrics.get("counters")
            if expect(isinstance(counters, dict),
                      "metrics.counters must be an object"):
                for k, v in counters.items():
                    expect(isinstance(k, str) and isinstance(v, int),
                           f"counter {k!r} must map a string to an int")
            hists = metrics.get("histograms")
            if expect(isinstance(hists, dict),
                      "metrics.histograms must be an object"):
                for k, h in hists.items():
                    if not expect(isinstance(h, dict),
                                  f"histogram {k!r} must be an object"):
                        continue
                    expect(isinstance(h.get("count"), int)
                           and h.get("count", -1) >= 0,
                           f"histogram {k!r}: count must be an int >= 0")
                    expect(isinstance(h.get("sum"), int),
                           f"histogram {k!r}: sum must be an int")
                    for bound in ("min", "max"):
                        expect(h.get(bound) is None
                               or isinstance(h.get(bound), int),
                               f"histogram {k!r}: {bound} must be int|null")
                    buckets = h.get("buckets")
                    if expect(isinstance(buckets, dict),
                              f"histogram {k!r}: buckets must be an object"):
                        expect(sum(buckets.values()) == h.get("count"),
                               f"histogram {k!r}: bucket counts must sum "
                               f"to count")
                        for bk in buckets:
                            expect(isinstance(bk, str) and bk.isdigit(),
                                   f"histogram {k!r}: bucket key {bk!r} "
                                   f"must be a decimal string")

    if "fault_events" in obj:
        events = obj["fault_events"]
        if expect(isinstance(events, list), "fault_events must be a list"):
            for i, ev in enumerate(events):
                if not expect(isinstance(ev, dict),
                              f"fault_events[{i}] must be an object"):
                    continue
                expect(isinstance(ev.get("kind"), str),
                       f"fault_events[{i}]: kind must be a string")
                shard = ev.get("shard")
                expect(shard is None or (isinstance(shard, int)
                                         and not isinstance(shard, bool)),
                       f"fault_events[{i}]: shard must be int|null")
                attempt = ev.get("attempt")
                expect(isinstance(attempt, int)
                       and not isinstance(attempt, bool) and attempt >= 0,
                       f"fault_events[{i}]: attempt must be an int >= 0")
                expect(isinstance(ev.get("action"), str),
                       f"fault_events[{i}]: action must be a string")
    if "degradation" in obj:
        deg = obj["degradation"]
        if expect(isinstance(deg, dict), "degradation must be an object"):
            expect(deg.get("level") in _DEGRADATION_LEVELS,
                   f"degradation.level is {deg.get('level')!r}, want one "
                   f"of {_DEGRADATION_LEVELS!r}")
            steps = deg.get("steps")
            if expect(isinstance(steps, list),
                      "degradation.steps must be a list"):
                for i, s in enumerate(steps):
                    expect(isinstance(s, str),
                           f"degradation.steps[{i}] must be a string")

    if "races" in obj and obj["races"] is not None:
        errs.extend(f"races: {e}" for e in validate_races(obj["races"]))

    trace = obj.get("trace")
    if trace is not None:
        if expect(isinstance(trace, dict), "trace must be an object"):
            n = trace.get("n_workers")
            expect(isinstance(n, int) and n >= 1,
                   "trace.n_workers must be an int >= 1")
            ivs = trace.get("intervals")
            if expect(isinstance(ivs, list), "trace.intervals must be a list"):
                for i, iv in enumerate(ivs):
                    if not expect(isinstance(iv, dict),
                                  f"interval[{i}] must be an object"):
                        continue
                    expect(isinstance(iv.get("worker"), int)
                           and isinstance(n, int)
                           and 0 <= iv.get("worker", -1) < n,
                           f"interval[{i}]: worker out of range")
                    expect(isinstance(iv.get("start"), int)
                           and isinstance(iv.get("end"), int)
                           and iv.get("start", 1) <= iv.get("end", 0),
                           f"interval[{i}]: need int start <= end")
                    expect(isinstance(iv.get("tag"), str),
                           f"interval[{i}]: tag must be a string")
            phases = trace.get("phases")
            if expect(isinstance(phases, list),
                      "trace.phases must be a list"):
                for i, p in enumerate(phases):
                    if not expect(isinstance(p, dict),
                                  f"phase[{i}] must be an object"):
                        continue
                    expect(isinstance(p.get("name"), str),
                           f"phase[{i}]: name must be a string")
                    expect(isinstance(p.get("start"), int)
                           and isinstance(p.get("end"), int)
                           and p.get("start", 1) <= p.get("end", 0),
                           f"phase[{i}]: need int start <= end")
    return errs
