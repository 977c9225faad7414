"""Self-test of the e2e benchmark harness (smoke scale, ~2 minutes).

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

It checks the harness, not performance: names and units against
``BENCHMARK.json``, exactness of ``op.calls``, seed sensitivity, that a
forced degradation is counted as a failure, and ``compare.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
E2E = [m["name"] for m in CONTRACT["end_to_end"]]
LAYERS = [m["name"] for m in CONTRACT["per_layer"]]


def _run(script: str, *args: str, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(HERE / script), *args], cwd=ROOT, text=True,
        capture_output=True, env={**os.environ, **(env or {})})


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """Two complete smoke suites of the same commit: (stdout, json path)."""
    out = []
    for tag in "ab":
        path = tmp_path_factory.mktemp("e2e") / f"{tag}.json"
        proc = _run("run.py", "--smoke", "--seed", "0", "--json", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out.append((proc.stdout, path))
    return out


def test_every_named_metric_is_printed_once_per_workload(suites):
    stdout, path = suites[0]
    rows = [line.split() for line in stdout.splitlines()
            if line and not line.startswith("#")]
    for w in WORKLOADS:
        names = [r[1] for r in rows if r[0] == w]
        assert sorted(names) == sorted(E2E + LAYERS + ["failed_share"])
        for r in rows:
            if r[0] == w:
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", r[1])
                float(r[2])
                assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", r[3]), r
    doc = json.loads(path.read_text())
    for w in WORKLOADS:
        assert doc["runs"][0][w]["failed"] == 0
        assert doc["runs"][0][w]["traced_failed"] == 0


def test_every_layer_metric_is_measured_somewhere(suites):
    """A name in BENCHMARK.json that no workload computes would print
    0 everywhere and hide a typo."""
    doc = json.loads(suites[0][1].read_text())
    for name in LAYERS:
        if name in ("op.calls_drift", "host.gc_gen2",
                    "runtime.procs.duplicate_insns"):
            continue                      # legitimately 0 at smoke scale
        assert any(doc["runs"][0][w]["per_layer"][name]["value"]
                   for w in WORKLOADS), name


def test_op_calls_repeat_exactly(suites):
    a, b = (json.loads(p.read_text())["runs"][0] for _out, p in suites)
    for w in WORKLOADS:
        x, y = (r[w]["per_layer"]["op.calls"]["value"] for r in (a, b))
        if w == "corpus-procs2":
            # Its supervisor polls: the count wanders by a few dozen
            # calls in 779 000 (and op.calls_drift says so most times).
            assert abs(x - y) <= 1e-3 * x
        elif a[w]["per_layer"]["op.calls_drift"]["value"] == 0:
            assert x == y, w


def test_contract_line():
    proc = _run("run.py", "--smoke", "--workload", "llnl2-analyze",
                "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(E2E)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_a_different_seed_changes_the_inputs():
    pins = []
    for seed in ("0", "1"):
        proc = _run("child.py", "--mode", "setup", "--workload",
                    "tf-serial", "--seed", seed, "--scale", "0.1",
                    "--seconds", "1", "--spawned-at", "0")
        assert proc.returncode == 0, proc.stderr
        pins.append(json.loads(proc.stdout.splitlines()[-1])["pins"])
    assert pins[0] != pins[1]


def test_a_forced_degradation_counts_as_failure():
    proc = _run("run.py", "--smoke", "--workload", "tf-procs2", "--seed",
                "0", "--seconds", "1", "--trace", "0",
                env={"REPRO_FAULT_PLAN": "excx99"})
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    assert "degraded to serial" in proc.stdout


def test_compare_of_a_file_with_itself_is_all_same(suites):
    path = str(suites[0][1])
    proc = _run("compare.py", path, path)
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert len(verdicts) == len(WORKLOADS) * (len(E2E) + 1)
    assert set(verdicts) == {"same"}
