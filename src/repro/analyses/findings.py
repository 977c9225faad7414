"""The ``repro.findings/1`` sidecar: one deterministic findings format.

Every findings producer — the interprocedural checkers
(:mod:`repro.analyses.interproc`), the ground-truth corpus checker
(:mod:`repro.apps.checker`) and the static lint
(:mod:`repro.sanity.lint`) — emits the same versioned document so CI
artifacts share one validator (``repro.schema.validate_findings``)
and one byte-level determinism contract:

- a finding is a flat record ``{rule, detail, binary, function,
  address, path, line}`` with ``None`` for fields that do not apply;
- findings are sorted by :func:`finding_sort_key` (binary, path,
  address, line, function, rule, detail) — independent of discovery
  order, hence of backend, worker count and schedule;
- the canonical byte form is :func:`repro.schema.canonical_bytes`:
  ``json.dumps(doc, indent=2, sort_keys=True)`` plus a trailing
  newline.  The document carries **no** backend or worker-count
  fields, so two runs that agree on the findings agree on the bytes —
  the property the differential battery and the ``analysis-
  differential`` CI job pin.
"""

from __future__ import annotations

from repro.schema import (  # noqa: F401  (re-exported)
    FINDING_FIELDS,
    FINDINGS_GENERATORS,
    FINDINGS_SCHEMA,
    canonical_bytes,
)


def finding(rule: str, detail: str, *, binary: str | None = None,
            function: str | None = None, address: int | None = None,
            path: str | None = None, line: int | None = None) -> dict:
    """One normalized finding record (every field present)."""
    return {"rule": rule, "detail": detail, "binary": binary,
            "function": function, "address": address, "path": path,
            "line": line}


def finding_sort_key(f: dict) -> tuple:
    """Canonical order: location first, then rule, then text."""
    return (f.get("binary") or "", f.get("path") or "",
            -1 if f.get("address") is None else f["address"],
            -1 if f.get("line") is None else f["line"],
            f.get("function") or "", f["rule"], f["detail"])


def sort_findings(findings: list[dict]) -> list[dict]:
    """Findings in canonical order (stable under any discovery order)."""
    return sorted(findings, key=finding_sort_key)


def findings_document(generator: str, checks: list[str],
                      findings: list[dict],
                      subject: dict | None = None) -> dict:
    """Assemble a complete ``repro.findings/1`` document.

    ``subject`` describes *what was analyzed* (workload name, corpus
    seed/count/presets) — never *how* (no backend, no worker count):
    the sidecar must be byte-identical across execution backends.
    """
    normalized = sort_findings(
        [finding(**{k: f.get(k) for k in FINDING_FIELDS})
         for f in findings])
    by_rule: dict[str, int] = {}
    for f in normalized:
        by_rule[f["rule"]] = by_rule.get(f["rule"], 0) + 1
    return {
        "schema": FINDINGS_SCHEMA,
        "generator": generator,
        "checks": sorted(checks),
        "subject": subject if subject is not None else {},
        "findings": normalized,
        "summary": {"findings": len(normalized), "by_rule": by_rule},
    }
