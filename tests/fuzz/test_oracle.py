"""Differential-oracle unit tests: axes, digests, verdicts, crashes."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fuzz.oracle import (
    OracleAxis,
    _parse_sig,
    default_axes,
    run_oracle,
    signature_digest,
    strict_jt_axis,
)
from repro.runtime import SerialRuntime
from repro.runtime.metrics import MetricsRegistry
from repro.synth import hostile_binary, tiny_binary


@pytest.fixture(scope="module")
def tiny():
    return tiny_binary()


def _serial_axis() -> OracleAxis:
    return OracleAxis("serial", "signature", _parse_sig(SerialRuntime))


class TestDigest:
    def test_digest_is_sha256_of_repr(self, tiny):
        from repro.core import parse_binary

        sig = parse_binary(tiny.binary, SerialRuntime()).signature()
        assert signature_digest(sig) == \
            hashlib.sha256(repr(sig).encode()).hexdigest()

    def test_digest_distinguishes_signatures(self):
        assert signature_digest((1,)) != signature_digest((2,))


class TestDefaultAxes:
    def test_serial_is_the_reference(self):
        axes = default_axes()
        assert axes[0].name == "serial" and axes[0].kind == "signature"
        names = [a.name for a in axes]
        assert names == ["serial", "vtime", "threads", "procs",
                         "procs-fault", "cfgsan", "races", "checkers"]

    def test_checkers_axis_only_on_request(self):
        names = [a.name for a in default_axes(include_checkers=False)]
        assert "checkers" not in names

    def test_pool_runs_the_same_axes(self):
        pool = [a.name for a in default_axes(procs_inline=False)]
        assert pool == [a.name for a in default_axes()]

    def test_clean_binary_passes_every_axis(self, tiny):
        metrics = MetricsRegistry()
        res = run_oracle(tiny.binary,
                         default_axes(race_schedules=1, race_seed=3),
                         metrics=metrics, name="tiny")
        assert not res.diverged
        assert res.failing == [] and res.findings == {}
        assert set(res.digests.values()) == {res.reference_digest}
        assert metrics.counter("fuzz.axes.runs") == 8
        assert metrics.counter("fuzz.divergences") == 0


class TestVerdicts:
    def test_first_axis_must_be_signature(self, tiny):
        check = OracleAxis("c", "check", lambda b: [])
        with pytest.raises(ValueError, match="signature axis"):
            run_oracle(tiny.binary, [check])

    def test_strict_jt_ablation_diverges(self):
        sb = hostile_binary("jt-overapprox", seed=5, n_functions=12)
        metrics = MetricsRegistry()
        res = run_oracle(sb.binary, [_serial_axis(), strict_jt_axis()],
                         metrics=metrics, name=sb.name)
        assert res.diverged and res.failing == ["serial-strict-jt"]
        assert res.digests["serial-strict-jt"] != res.reference_digest
        assert metrics.counter("fuzz.divergences") == 1

    def test_crashing_axis_counts_as_divergence(self, tiny):
        def boom(binary):
            raise RuntimeError("backend fell over")

        res = run_oracle(tiny.binary,
                         [_serial_axis(),
                          OracleAxis("broken", "signature", boom)])
        assert res.failing == ["broken"]
        assert res.digests["broken"] == "error:RuntimeError"
        assert res.findings["broken"][0]["error"] == "RuntimeError"

    def test_check_axis_findings_fail_the_case(self, tiny):
        finding = {"check": "custom", "finding": "bad"}
        res = run_oracle(tiny.binary,
                         [_serial_axis(),
                          OracleAxis("custom", "check",
                                     lambda b: [finding])])
        assert res.failing == ["custom"]
        assert res.findings["custom"] == [finding]

    def test_crashing_check_axis_is_captured(self, tiny):
        def boom(binary):
            raise ValueError("sweep exploded")

        res = run_oracle(tiny.binary,
                         [_serial_axis(),
                          OracleAxis("races", "check", boom)])
        assert res.failing == ["races"]
        assert res.findings["races"][0]["error"] == "ValueError"

    def test_row_is_json_ready(self, tiny):
        res = run_oracle(tiny.binary,
                         [_serial_axis(), strict_jt_axis()], name="t")
        row = json.loads(json.dumps(res.to_row()))
        assert row["binary"] == "t"
        assert row["reference"] == "serial"
        assert row["digests"]["serial"] == row["reference_digest"]
