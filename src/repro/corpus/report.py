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

#: Report filename inside a corpus run directory.
REPORT_NAME = "corpus_report.json"


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
            binaries.append({
                "index": index,
                "name": rec["name"],
                "preset": rec["preset"],
                "status": "ok",
                "backend": rec["backend"],
                "attempt": rec["attempt"],
                "digest": rec["digest"],
                "serial_digest": rec.get("serial_digest"),
                "latency_s": rec["latency_s"],
                "functions": rec["functions"],
                "blocks": rec["blocks"],
                "edges": rec["edges"],
                "degraded": rec.get("degraded", "none"),
                "failures": rec.get("failures", []),
            })
            continue
        rec = quarantined.get(index)
        if rec is None:
            raise KeyError(f"binary {index} has no journal outcome")
        reasons[rec["reason"]] = reasons.get(rec["reason"], 0) + 1
        q_entries.append({
            "index": index,
            "name": rec["name"],
            "preset": rec["preset"],
            "reason": rec["reason"],
            "attempts": len(rec.get("attempts", [])),
            "path": rec["path"],
        })
        binaries.append({
            "index": index,
            "name": rec["name"],
            "preset": rec["preset"],
            "status": "quarantined",
            "backend": None,
            "attempt": len(rec.get("attempts", [])),
            "digest": None,
            "serial_digest": None,
            "latency_s": None,
            "functions": None,
            "blocks": None,
            "edges": None,
            "degraded": None,
            "failures": rec.get("attempts", []),
            "reason": rec["reason"],
            "error": rec.get("error", ""),
        })
    lat = _latency_section(latencies)
    total_s = lat["total_s"]
    return {
        "schema": REPORT_SCHEMA,
        "corpus": {
            "seed": header["seed"],
            "count": count,
            "presets": list(header["presets"]),
            "n_functions": header.get("n_functions"),
            "attempts": header["attempts"],
            "verify": header["verify"],
            "backend": header["backend"],
            "procs_workers": header.get("procs_workers"),
            "window": header["window"],
        },
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
