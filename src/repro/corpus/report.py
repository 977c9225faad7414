"""The ``repro.corpus-report/1`` sidecar: a pure function of the journal.

Byte-identity across crash/resume is the contract the chaos tests pin:
an interrupted-and-resumed run must produce *exactly* the bytes an
uninterrupted run produces.  Everything here is therefore derived from
journal records only — never from in-memory counters of the current
invocation (a resume never saw the first invocation's counters) and
never from run wall-clock (two invocations can't share one clock):

- per-binary latencies come from the journal's ``latency_s`` fields
  (deterministic under ``REPRO_CORPUS_FAKE_CLOCK``, see driver);
- throughput is analysis-seconds-based, not run-wall-based;
- binaries are emitted in index order, floats rounded at the source,
  keys sorted by :func:`repro.schema.canonical_bytes`.

Checked by :func:`repro.schema.validate`.
"""

from __future__ import annotations

import math
from typing import Any

from repro.schema import CORPUS_REPORT_SCHEMA as REPORT_SCHEMA
from repro.schema import SCHEMAS, Nullable, Opt

#: Report filename inside a corpus run directory.
REPORT_NAME = "corpus_report.json"

_SCHEMA = SCHEMAS[REPORT_SCHEMA].fields

#: What an ``ok`` row holds where older journals lack the field.
_OK_ROW_DEFAULTS = {"serial_digest": None, "degraded": "none",
                    "failures": []}

#: The nullable columns of a row: a quarantined row holds them as null.
_OK_ONLY_FIELDS = tuple(
    k for k, v in _SCHEMA["binaries"].item.fields.items()
    if isinstance(v.spec if isinstance(v, Opt) else v, Nullable))


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation)."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def _latency_section(latencies: list[float]) -> dict:
    if not latencies:
        return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p90_s": 0.0,
                "p99_s": 0.0, "max_s": 0.0, "total_s": 0.0}
    vals = sorted(latencies)
    total = round(sum(vals), 6)
    return {
        "count": len(vals),
        "mean_s": round(total / len(vals), 6),
        "p50_s": _percentile(vals, 50),
        "p90_s": _percentile(vals, 90),
        "p99_s": _percentile(vals, 99),
        "max_s": vals[-1],
        "total_s": total,
    }


def build_report(header: dict, completed: dict[int, dict],
                 quarantined: dict[int, dict]) -> dict[str, Any]:
    """Assemble the report dict from replayed journal state."""
    count = header["count"]
    binaries: list[dict] = []
    latencies: list[float] = []
    reasons: dict[str, int] = {}
    q_entries: list[dict] = []
    serial_binaries = 0
    for index in range(count):
        rec = completed.get(index)
        if rec is not None:
            if rec["backend"] == "serial":
                serial_binaries += 1
            latencies.append(rec["latency_s"])
            row = {**_OK_ROW_DEFAULTS, **rec, "status": "ok"}
            del row["kind"]
            binaries.append(row)
            continue
        rec = quarantined.get(index)
        if rec is None:
            raise KeyError(f"binary {index} has no journal outcome")
        reasons[rec["reason"]] = reasons.get(rec["reason"], 0) + 1
        attempts = rec.get("attempts", [])
        named = {k: rec[k] for k in ("index", "name", "preset", "reason")}
        q_entries.append({**named, "attempts": len(attempts),
                          "path": rec["path"]})
        binaries.append({**dict.fromkeys(_OK_ONLY_FIELDS), **named,
                         "status": "quarantined", "attempt": len(attempts),
                         "failures": attempts,
                         "error": rec.get("error", "")})
    # The report restates the config fields its schema names.
    corpus = {k: header[k] for k in _SCHEMA["corpus"].fields}
    corpus["presets"] = list(corpus["presets"])
    lat = _latency_section(latencies)
    total_s = lat["total_s"]
    return {
        "schema": REPORT_SCHEMA,
        "corpus": corpus,
        "binaries": binaries,
        "summary": {
            "count": count,
            "completed": len(latencies),
            "quarantined": len(q_entries),
        },
        "latency": lat,
        "throughput": {
            "total_analysis_s": total_s,
            "binaries_per_second": (round(len(latencies) / total_s, 6)
                                    if total_s > 0 else 0.0),
        },
        "degradation": {"serial_binaries": serial_binaries},
        "quarantine": {
            "count": len(q_entries),
            "reasons": dict(sorted(reasons.items())),
            "entries": q_entries,
        },
    }
