"""Kill -9 chaos: torn journals, dead coordinators, byte-identical resume.

These tests drive the real CLI in subprocesses because the chaos sites
(``journal-torn``, ``coordinator-kill``) kill the interpreter with
``os._exit(86)`` — exactly what they model — and so cannot run inside
pytest.  The contract pinned here is the issue's acceptance bar:

- a run killed at any seeded chaos point, resumed with ``--resume``,
  produces a final ``corpus_report.json`` **byte-identical** to an
  uninterrupted run's;
- no binary whose outcome reached the journal is ever analyzed twice;
- ``/dev/shm`` ends empty, including orphans a killed coordinator
  leaked (``os._exit`` skips the atexit sweep).

All runs use the fake latency clock and ``--in-process`` (inline procs
backend: deterministic and pool-free on one-core CI runners).  The two
process-killing sites fire per *invocation*, so the resume is given a
plan with only the ``binary-*`` sites — see docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus.journal import JOURNAL_NAME, iter_journal
from repro.corpus.report import REPORT_NAME

_SRC = Path(__file__).resolve().parents[2] / "src"

#: One corpus shape for every test: small enough to be fast, large
#: enough that a mid-run kill leaves real work on both sides.
_SHAPE = ("--count", "6", "--n-functions", "10", "--seed", "11",
          "--window", "2", "--journal-batch", "2", "--attempts", "2")

#: os._exit status used by both process-killing fault sites.
_KILLED = 86


def _cli(run_dir: Path, *args: str, fault: str | None = None,
         resume: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CORPUS_FAKE_CLOCK"] = "1"
    env.pop("REPRO_FAULT_PLAN", None)
    cmd = [sys.executable, "-m", "repro.cli", "corpus", str(run_dir),
           "--in-process", "--no-metrics"]
    cmd += ["--resume"] if resume else list(_SHAPE)
    if fault:
        cmd += ["--fault-plan", fault]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)


def _summary(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout)


def _report_bytes(run_dir: Path) -> bytes:
    return (run_dir / REPORT_NAME).read_bytes()


def _outcome_indexes(run_dir: Path) -> list[int]:
    return [r["index"] for r in iter_journal(run_dir / JOURNAL_NAME)
            if r.get("kind") in ("completed", "quarantined")]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> bytes:
    """Report bytes of an uninterrupted, fault-free run."""
    run_dir = tmp_path_factory.mktemp("baseline") / "run"
    proc = _cli(run_dir)
    assert proc.returncode == 0, proc.stderr
    return _report_bytes(run_dir)


class TestCoordinatorKill:
    def test_kill_resume_is_byte_identical(self, tmp_path, baseline):
        run_dir = tmp_path / "run"
        proc = _cli(run_dir, fault="coordinator-kill@3")
        assert proc.returncode == _KILLED
        assert not (run_dir / REPORT_NAME).exists()  # died mid-run
        # journal batching means the kill lost buffered outcomes: some
        # work is journaled, the rest is not
        durable = _outcome_indexes(run_dir)
        assert 0 < len(durable) < 6

        proc = _cli(run_dir, resume=True)
        assert proc.returncode == 0, proc.stderr
        assert _report_bytes(run_dir) == baseline
        summary = _summary(proc)
        assert summary["resumed"] is True
        # journaled binaries are never re-analyzed; the rest are
        assert summary["skipped_completed"] == len(durable)
        assert summary["analyzed_this_run"] == 6 - len(durable)
        # exactly one durable outcome per binary, ever
        assert sorted(_outcome_indexes(run_dir)) == list(range(6))

    def test_kill_leaves_no_shm_segments_after_resume(self, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm mount")
        run_dir = tmp_path / "run"
        proc = _cli(run_dir, fault="coordinator-kill@2")
        assert proc.returncode == _KILLED
        # model the killed coordinator having leaked a published
        # segment (os._exit skips the atexit sweep); the dead pid is
        # baked into the name, so the resume's startup sweep reaps it
        dead_pid = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True).stdout.strip()
        orphan = Path("/dev/shm") / f"repro-img-{dead_pid}-1"
        orphan.write_bytes(b"leaked segment")

        proc = _cli(run_dir, resume=True)
        assert proc.returncode == 0, proc.stderr
        assert _summary(proc)["orphans_reaped"] >= 1
        assert not orphan.exists()
        assert glob.glob("/dev/shm/repro-img-*") == []


class TestKillResumeIsDeterministic:
    def test_two_kill_resumes_agree_byte_for_byte(self, tmp_path):
        """Outcomes are journaled in binary-index order, so neither the
        outcome the kill counts nor what the resume redoes depends on
        thread timing: two kill+resume runs leave the same summary and
        the same journal bytes."""
        faults = "binary-crash@1x1,binary-crash@4x99"
        runs = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            proc = _cli(run_dir, fault=faults + ",coordinator-kill@3")
            assert proc.returncode == _KILLED
            proc = _cli(run_dir, resume=True, fault=faults)
            assert proc.returncode == 1, proc.stderr  # binary 4
            summary = _summary(proc)
            del summary["dir"], summary["report"]  # the two run dirs
            assert _outcome_indexes(run_dir) == list(range(6))
            runs.append((summary,
                         (run_dir / JOURNAL_NAME).read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0]["skipped_completed"] == 2  # batch 2, kill@3


class TestTornJournal:
    def test_torn_flush_resume_is_byte_identical(self, tmp_path,
                                                 baseline):
        run_dir = tmp_path / "run"
        # flush 1 is the header; flush 2 is the first outcome batch —
        # it is torn mid-record, fsync'd, and the coordinator dies
        proc = _cli(run_dir, fault="journal-torn@2")
        assert proc.returncode == _KILLED
        raw = (run_dir / JOURNAL_NAME).read_bytes()
        assert not raw.endswith(b"\n")  # the tail really is torn

        proc = _cli(run_dir, resume=True)
        assert proc.returncode == 0, proc.stderr
        assert _report_bytes(run_dir) == baseline
        # the resume saw (and truncated) the torn tail
        resumes = [r for r in iter_journal(run_dir / JOURNAL_NAME)
                   if r.get("kind") == "resume"]
        assert len(resumes) == 1 and resumes[0]["torn_tail"] is True
        assert sorted(_outcome_indexes(run_dir)) == list(range(6))


class TestBinaryFaultsAcrossResume:
    def test_binary_faults_replay_identically(self, tmp_path):
        # binary-* sites key on (index, attempt), which a journal
        # replay reconstructs — the resume keeps them in its plan and a
        # re-analyzed binary walks the identical retry sequence
        faults = "binary-crash@2x1,binary-crash@4x99"
        ref_dir = tmp_path / "ref"
        proc = _cli(ref_dir, fault=faults)
        assert proc.returncode == 1, proc.stderr  # binary 4 quarantines
        ref = _summary(proc)
        assert ref["completed"] == 5 and ref["quarantined"] == 1

        run_dir = tmp_path / "run"
        proc = _cli(run_dir, fault=faults + ",coordinator-kill@4")
        assert proc.returncode == _KILLED
        proc = _cli(run_dir, resume=True, fault=faults)
        assert proc.returncode == 1, proc.stderr
        assert _report_bytes(run_dir) == _report_bytes(ref_dir)
        report = json.loads(_report_bytes(run_dir))
        rows = {r["index"]: r for r in report["binaries"]}
        # binary 2 recovered on the serial rung, binary 4 quarantined
        assert rows[2]["status"] == "ok"
        assert rows[2]["backend"] == "serial"
        assert rows[4]["status"] == "quarantined"
        # its ladder ended on the serial rung before giving up
        assert [f["backend"] for f in rows[4]["failures"]] == \
            ["procs", "serial"]
        assert (run_dir / "quarantine" / "0004-oob-entry").is_dir()
