"""Corpus driver supervision: ladder, quarantine, resume, report shape.

Everything here runs in-process (``in_process=True`` keeps the procs
backend inline — deterministic and pool-free on one-core CI runners)
and under the fake latency clock, so assertions about latencies and
report bytes are exact.  The process-killing chaos (``journal-torn``,
``coordinator-kill``, ``kill -9`` + ``--resume``) lives in
``test_chaos.py`` because those sites ``os._exit`` the interpreter.
"""

from __future__ import annotations

import json

import pytest

from repro.corpus import (
    CORPUS_PRESETS,
    CorpusConfig,
    corpus_program,
    run_corpus,
)
from repro.corpus.driver import CorpusDriver
from repro.corpus.journal import JOURNAL_NAME, iter_journal
from repro.corpus.report import REPORT_NAME
from repro.errors import CorpusError
from repro.fuzz.specio import spec_from_json, spec_to_json
from repro.runtime.faults import FaultPlan
from repro.schema import validate_corpus_report
from repro.synth.codegen import synthesize


@pytest.fixture(autouse=True)
def fake_clock(monkeypatch):
    monkeypatch.setenv("REPRO_CORPUS_FAKE_CLOCK", "1")


def _config(**kw) -> CorpusConfig:
    base = dict(count=4, seed=11, n_functions=10, attempts=2, window=2,
                journal_batch=2)
    base.update(kw)
    return CorpusConfig(**base)


def _run(tmp_path, *, plan=None, resume=False, **kw):
    return run_corpus(tmp_path / "run",
                      None if resume else _config(**kw),
                      resume=resume, in_process=True, fault_plan=plan)


def _report(tmp_path) -> dict:
    return json.loads((tmp_path / "run" / REPORT_NAME).read_text())


class TestHappyPath:
    def test_all_binaries_complete_and_verify(self, tmp_path):
        summary = _run(tmp_path)
        assert summary["completed"] == 4
        assert summary["quarantined"] == 0
        assert summary["analyzed_this_run"] == 4
        report = _report(tmp_path)
        assert validate_corpus_report(report) == []
        for row in report["binaries"]:
            assert row["status"] == "ok"
            assert row["digest"] == row["serial_digest"]
            assert row["attempt"] == 1 and row["failures"] == []
        # round-robin over the default preset mix, benign first
        assert report["binaries"][0]["preset"] == "benign"
        assert report["binaries"][1]["preset"] == CORPUS_PRESETS[1]

    def test_fake_clock_latencies_are_positional(self, tmp_path):
        _run(tmp_path)
        for row in _report(tmp_path)["binaries"]:
            want = round(((row["index"] * 37 + 11) % 89 + 1) / 1000.0, 6)
            assert row["latency_s"] == want

    def test_reruns_are_byte_identical(self, tmp_path):
        _run(tmp_path)
        a = (tmp_path / "run" / REPORT_NAME).read_bytes()
        run_corpus(tmp_path / "other", _config(), in_process=True)
        b = (tmp_path / "other" / REPORT_NAME).read_bytes()
        assert a == b


class TestQuarantine:
    def test_crash_quarantines_only_the_faulted_binary(self, tmp_path):
        summary = _run(tmp_path,
                       plan=FaultPlan.from_spec("binary-crash@1x99"))
        assert summary["completed"] == 3
        assert summary["quarantined"] == 1
        report = _report(tmp_path)
        assert validate_corpus_report(report) == []
        assert report["quarantine"]["reasons"] == {"crash": 1}
        rows = {r["index"]: r for r in report["binaries"]}
        assert rows[1]["status"] == "quarantined"
        assert rows[1]["reason"] == "crash"
        # the full attempt budget was spent on the procs backend plus
        # the serial rung before giving up
        assert [f["backend"] for f in rows[1]["failures"]] == \
            ["procs", "serial"]
        for i in (0, 2, 3):  # healthy binaries still match serial
            assert rows[i]["status"] == "ok"
            assert rows[i]["digest"] == rows[i]["serial_digest"]

    def test_triage_bundle_reproduces_the_binary(self, tmp_path):
        _run(tmp_path, plan=FaultPlan.from_spec("binary-crash@1x99"))
        bundle = tmp_path / "run" / "quarantine" / "0001-data-in-text"
        assert (bundle / "error.txt").read_text().startswith(
            "reason: crash\n")
        attempts = json.loads((bundle / "attempts.json").read_text())
        assert [a["outcome"] for a in attempts] == ["crash", "crash"]
        spec = spec_from_json(json.loads((bundle / "spec.json")
                                         .read_text()))
        want = corpus_program(1, 11, CORPUS_PRESETS, 10)
        assert spec_to_json(spec) == spec_to_json(want)
        # the bundle alone reproduces the binary bit-for-bit
        assert synthesize(spec).binary.image.text.data == \
            synthesize(want).binary.image.text.data

    def test_quarantine_record_is_flushed_immediately(self, tmp_path):
        # journal_batch is huge, yet the quarantine record must be on
        # disk the moment the run ends even without the closing flush
        _run(tmp_path, plan=FaultPlan.from_spec("binary-crash@0x99"),
             count=1, journal_batch=1000)
        kinds = [r["kind"]
                 for r in iter_journal(tmp_path / "run" / JOURNAL_NAME)]
        assert "quarantined" in kinds


class TestLadder:
    def test_serial_rung_rescues_a_crashing_binary(self, tmp_path):
        # crash only on attempt 1: attempt 2 takes the serial rung and
        # completes there
        summary = _run(tmp_path,
                       plan=FaultPlan.from_spec("binary-crash@1x1"))
        assert summary["quarantined"] == 0
        rows = {r["index"]: r for r in _report(tmp_path)["binaries"]}
        assert rows[1]["status"] == "ok"
        assert rows[1]["backend"] == "serial"
        assert rows[1]["attempt"] == 2
        assert [f["outcome"] for f in rows[1]["failures"]] == ["crash"]
        assert rows[0]["backend"] == "procs"

    def test_timeout_quarantines_and_keeps_the_window_full(
            self, tmp_path, monkeypatch):
        # Binaries 0 and 1 wedge both window slots past the deadline;
        # once they are abandoned, binaries 2 and 3 run side by side.
        in_flight = []
        launch = CorpusDriver._launch

        def counted(self, index):
            launch(self, index)
            in_flight.append(len(self._inflight))

        monkeypatch.setattr(CorpusDriver, "_launch", counted)
        summary = _run(
            tmp_path, attempts=1, binary_deadline=0.3,
            plan=FaultPlan.from_spec("binary-hang@0=30,binary-hang@1=30"))
        assert (summary["completed"], summary["quarantined"]) == (2, 2)
        assert in_flight[:2] == [1, 2]
        assert 2 in in_flight[2:]
        report = _report(tmp_path)
        assert validate_corpus_report(report) == []
        assert report["quarantine"]["reasons"] == {"timeout": 2}
        rows = {r["index"]: r for r in report["binaries"]}
        assert rows[2]["status"] == rows[3]["status"] == "ok"
        for i in (0, 1):
            failure = rows[i]["failures"][0]
            assert failure["outcome"] == "timeout"
            assert failure["latency_s"] == round(0.3, 6)

    def test_procs_fault_inside_an_attempt_takes_the_serial_rung(
            self, tmp_path):
        # Shard 0 sleeps 1 s on every procs attempt: the parse itself
        # recovers, but only after the binary deadline, so the
        # supervisor abandons each procs attempt as a timeout and the
        # final attempt completes on the serial rung.
        summary = _run(tmp_path, count=2, attempts=2, binary_deadline=0.3,
                       plan=FaultPlan.from_spec("delay@0x99=1"))
        assert (summary["completed"], summary["quarantined"]) == (2, 0)
        report = _report(tmp_path)
        assert validate_corpus_report(report) == []
        assert report["degradation"] == {"serial_binaries": 2}
        for row in report["binaries"]:
            assert (row["status"], row["backend"]) == ("ok", "serial")
            assert [f["outcome"] for f in row["failures"]] == ["timeout"]

    def test_divergence_never_takes_the_serial_rung(self, tmp_path,
                                                    monkeypatch):
        # a procs parse that disagrees with the serial reference must
        # retry on procs (or quarantine) — rerunning it serially would
        # trivially match the reference and mask the divergence
        def fake_parse(self, binary, backend):
            digest = binary.name
            if backend != "serial" and "0001" in binary.name:
                digest = "bogus-" + binary.name
            return digest, (1, 1, 1, "none")

        monkeypatch.setattr(CorpusDriver, "_parse", fake_parse)
        summary = _run(tmp_path, count=2, attempts=3)
        assert summary["quarantined"] == 1
        report = _report(tmp_path)
        rows = {r["index"]: r for r in report["binaries"]}
        assert rows[1]["reason"] == "divergence"
        assert [f["backend"] for f in rows[1]["failures"]] == \
            ["procs", "procs", "procs"]
        assert rows[0]["status"] == "ok"


class TestResume:
    def test_resume_of_a_finished_run_reanalyzes_nothing(self, tmp_path):
        _run(tmp_path)
        before = (tmp_path / "run" / REPORT_NAME).read_bytes()
        summary = _run(tmp_path, resume=True)
        assert summary["resumed"] is True
        assert summary["analyzed_this_run"] == 0
        assert summary["skipped_completed"] == 4
        assert (tmp_path / "run" / REPORT_NAME).read_bytes() == before
        # exactly one outcome record per binary, ever
        recs = list(iter_journal(tmp_path / "run" / JOURNAL_NAME))
        outcomes = [r["index"] for r in recs
                    if r["kind"] in ("completed", "quarantined")]
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert sum(1 for r in recs if r["kind"] == "resume") == 1

    def test_fresh_run_refuses_an_existing_run_dir(self, tmp_path):
        _run(tmp_path)
        with pytest.raises(CorpusError, match="use --resume"):
            _run(tmp_path)

    def test_resume_rejects_an_explicit_config(self, tmp_path):
        with pytest.raises(CorpusError, match="journal header"):
            run_corpus(tmp_path / "run", _config(), resume=True)

    def test_resume_without_a_journal_is_fatal(self, tmp_path):
        with pytest.raises(CorpusError, match="no journal"):
            _run(tmp_path, resume=True)


#: Configs no builder may produce, each with what its error names.
_INVALID = [
    (dict(count=0), "count"),
    (dict(attempts=0), "attempts"),
    (dict(window=0), "window"),
    (dict(binary_deadline=0.0), "deadline"),
    (dict(backend="gpu"), "backend"),
    (dict(journal_batch=0), "journal batch"),
    (dict(presets=()), "preset"),
    (dict(presets=("benign", "nope")), "unknown preset"),
    (dict(procs_workers=0), "procs workers"),
    (dict(n_functions=3), "n_functions"),
    (dict(window="2"), "window must be an int"),
    (dict(seed="x"), "seed must be an int"),
    (dict(presets=None), "presets must be a list"),
]


class TestConfig:
    @pytest.mark.parametrize("kw,msg", _INVALID)
    def test_validate_rejects(self, kw, msg):
        with pytest.raises(CorpusError, match=msg):
            _config(**kw)

    def test_header_round_trips(self):
        cfg = _config(presets=("benign", "jt-overapprox"))
        assert CorpusConfig.from_header(cfg.header()) == cfg

    @pytest.mark.parametrize("kw,msg", _INVALID)
    def test_from_header_validates(self, kw, msg):
        """A journal header on disk is refused like a fresh config."""
        header = json.loads(json.dumps({**_config().header(), **kw}))
        with pytest.raises(CorpusError, match=msg):
            CorpusConfig.from_header(header)

    def test_from_header_missing_field_is_fatal(self):
        header = _config().header()
        del header["attempts"]
        with pytest.raises(CorpusError, match="missing field"):
            CorpusConfig.from_header(header)

    def test_corpus_program_is_pure(self):
        a = corpus_program(3, 11, CORPUS_PRESETS, 10)
        b = corpus_program(3, 11, CORPUS_PRESETS, 10)
        assert spec_to_json(a) == spec_to_json(b)
        c = corpus_program(4, 11, CORPUS_PRESETS, 10)
        assert spec_to_json(a) != spec_to_json(c)


class TestFaultGrammar:
    def test_corpus_sites_round_trip(self):
        text = ("binary-crash@3x2,binary-hang@1x99=0.5,"
                "journal-torn@2,coordinator-kill@5")
        plan = FaultPlan.from_spec(text)
        assert plan.to_spec() == text
        assert plan.fires("binary-crash", 3, 2) is not None
        assert plan.fires("binary-crash", 3, 3) is None
        assert plan.fires("binary-crash", 4, 1) is None
        assert plan.fires("binary-hang", 1, 50).value == 0.5
        assert plan.fires("journal-torn", 2, 1) is not None
        assert plan.fires("journal-torn", 1, 1) is None
        assert plan.fires("coordinator-kill", 5, 1) is not None
