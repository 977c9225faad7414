"""The ``repro.findings/1`` sidecar: ordering, canonical bytes, validator."""

from __future__ import annotations

import json
import random

from repro.analyses.findings import (
    FINDING_FIELDS,
    FINDINGS_SCHEMA,
    canonical_bytes,
    finding,
    finding_sort_key,
    findings_document,
    sort_findings,
)
from repro.schema import validate_findings, write_sidecar


def _sample_findings() -> list[dict]:
    return [
        finding("stack-balance", "returns at stack height -8 (expected 0)",
                binary="b.bin", function="f", address=0x2000),
        finding("uninit-reg", "read of maybe-uninitialized R4",
                binary="a.bin", function="g", address=0x1000),
        finding("wall-clock", "nondeterministic call time() in a worker",
                path="src/x.py", line=12),
        finding("uninit-reg", "read of maybe-uninitialized R5",
                binary="a.bin", function="g", address=0x1000),
    ]


class TestRecords:
    def test_every_field_always_present(self):
        f = finding("r", "d")
        assert sorted(f) == sorted(FINDING_FIELDS)
        assert f["binary"] is None and f["line"] is None

    def test_sort_is_location_first_then_rule_then_text(self):
        fs = _sample_findings()
        ordered = sort_findings(fs)
        keys = [finding_sort_key(f) for f in ordered]
        assert keys == sorted(keys)
        # binary-less (path) findings sort before any named binary.
        assert ordered[0]["path"] == "src/x.py"
        assert [f["detail"] for f in ordered[1:3]] == [
            "read of maybe-uninitialized R4",
            "read of maybe-uninitialized R5"]

    def test_sort_is_independent_of_discovery_order(self):
        fs = _sample_findings()
        want = sort_findings(fs)
        for seed in range(5):
            shuffled = list(fs)
            random.Random(seed).shuffle(shuffled)
            assert sort_findings(shuffled) == want


class TestDocument:
    def test_document_shape_and_summary(self):
        doc = findings_document("checkers", ["uninit-reg", "stack-balance"],
                                _sample_findings()[:2])
        assert doc["schema"] == FINDINGS_SCHEMA
        assert doc["checks"] == ["stack-balance", "uninit-reg"]  # sorted
        assert doc["summary"]["findings"] == 2
        assert doc["summary"]["by_rule"] == {"stack-balance": 1,
                                             "uninit-reg": 1}

    def test_canonical_bytes_are_input_order_independent(self):
        fs = _sample_findings()
        checks = ["stack-balance", "uninit-reg", "wall-clock"]
        ref = canonical_bytes(findings_document("checkers", checks, fs))
        for seed in range(4):
            shuffled = list(fs)
            random.Random(seed).shuffle(shuffled)
            got = canonical_bytes(
                findings_document("checkers", checks, shuffled))
            assert got == ref
        assert ref.endswith(b"\n")

    def test_write_findings_roundtrip(self, tmp_path):
        doc = findings_document("lint", ["wall-clock"], [])
        path = tmp_path / "f.json"
        write_sidecar(doc, FINDINGS_SCHEMA, path)
        assert path.read_bytes() == canonical_bytes(doc)
        assert json.loads(path.read_text()) == doc


class TestValidator:
    def _doc(self) -> dict:
        return findings_document(
            "checkers", ["stack-balance", "uninit-reg", "wall-clock"],
            _sample_findings())

    def test_accepts_a_well_formed_document(self):
        assert validate_findings(self._doc()) == []

    def test_rejects_wrong_schema_and_generator(self):
        doc = self._doc()
        doc["schema"] = "repro.findings/0"
        doc["generator"] = "elves"
        errs = "\n".join(validate_findings(doc))
        assert "schema" in errs and "generator" in errs

    def test_rejects_backend_metadata(self):
        for banned in ("backend", "workers", "n_workers", "runtime"):
            doc = self._doc()
            doc[banned] = "procs"
            errs = "\n".join(validate_findings(doc))
            assert banned in errs, banned

    def test_rejects_unsorted_findings(self):
        doc = self._doc()
        doc["findings"] = list(reversed(doc["findings"]))
        assert any("order" in e or "sort" in e
                   for e in validate_findings(doc))

    def test_rejects_rule_outside_checks(self):
        doc = self._doc()
        doc["findings"][0]["rule"] = "not-a-check"
        assert validate_findings(doc)

    def test_rejects_missing_or_extra_finding_fields(self):
        doc = self._doc()
        del doc["findings"][0]["address"]
        assert validate_findings(doc)
        doc = self._doc()
        doc["findings"][0]["severity"] = "high"
        assert validate_findings(doc)

    def test_rejects_bad_summary_counts(self):
        doc = self._doc()
        doc["summary"]["findings"] += 1
        assert validate_findings(doc)
        doc = self._doc()
        doc["summary"]["by_rule"]["uninit-reg"] = 99
        assert validate_findings(doc)

    def test_rejects_non_object(self):
        assert validate_findings([]) != []
