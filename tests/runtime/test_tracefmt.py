"""Tests for the ASCII trace renderer and the run-report JSON export."""

import json

import pytest

from repro.core import parse_binary
from repro.runtime import SerialRuntime, VirtualTimeRuntime, make_runtime
from repro.runtime.api import PhaseSpan, Trace, TraceInterval
from repro.runtime.cost import CostModel
from repro.runtime.tracefmt import (
    render_metrics,
    render_phase_table,
    render_trace,
    run_report,
    trace_from_json,
    trace_to_json,
)
from repro.schema import RACES_SCHEMA, validate_races, validate_report
from repro.synth import tiny_binary

FREE = CostModel(spawn=0, task_pop=0, lock_handoff=0, map_op=0)


class TestRenderTrace:
    def test_empty_trace(self):
        assert render_trace(Trace(4)) == "(empty trace)"

    def test_hand_built_trace(self):
        tr = Trace(2)
        tr.intervals.append(TraceInterval(0, 0, 100, "a"))
        tr.intervals.append(TraceInterval(1, 50, 100, "b"))
        tr.phases.append(PhaseSpan("setup", 0, 50))
        tr.phases.append(PhaseSpan("work", 50, 100))
        out = render_trace(tr, width=20)
        lines = out.splitlines()
        assert lines[0].startswith("phases")
        assert any(line.startswith("w00") for line in lines)
        assert "1=setup" in lines[-1] and "2=work" in lines[-1]

    def test_busy_density_visible(self):
        tr = Trace(1)
        tr.intervals.append(TraceInterval(0, 0, 50, "x"))
        tr.phases.append(PhaseSpan("all", 0, 100))  # idle second half
        out = render_trace(tr, width=10, worker_rows=1)
        row = next(l for l in out.splitlines() if l.startswith("w00"))
        cells = row.split(" ", 1)[1]
        assert cells[0] != " "
        assert cells[-1] == " "

    def test_real_runtime_trace(self):
        rt = VirtualTimeRuntime(4, cost_model=FREE, enable_trace=True)

        def body():
            with rt.phase("p1"):
                g = rt.task_group()
                for _ in range(8):
                    g.spawn(rt.charge, 100)
                g.wait()

        rt.run(body)
        out = render_trace(rt.trace, width=40)
        assert "1=p1" in out
        assert len(out.splitlines()) >= 3

    def test_many_workers_bucketed_into_rows(self):
        tr = Trace(64)
        for w in range(64):
            tr.intervals.append(TraceInterval(w, 0, 10, "t"))
        out = render_trace(tr, width=10, worker_rows=8)
        worker_rows = [l for l in out.splitlines() if l.startswith("w")]
        assert len(worker_rows) == 8
        assert worker_rows[0].startswith("w00-07")
        assert worker_rows[-1].startswith("w56-63")

    def test_phases_without_intervals(self):
        # A traced run that spawned no tasks still renders its phase rail.
        tr = Trace(4)
        tr.phases.append(PhaseSpan("only", 0, 80))
        out = render_trace(tr, width=16)
        lines = out.splitlines()
        assert lines[0].startswith("phases")
        assert "1=only" in lines[-1]
        # All worker cells are idle glyphs.
        for row in lines[1:-1]:
            assert set(row.split(" ", 1)[1]) == {" "}

    def test_more_worker_rows_than_workers(self):
        # worker_rows caps at n_workers rather than emitting empty rows.
        tr = Trace(2)
        tr.intervals.append(TraceInterval(0, 0, 10, "t"))
        tr.intervals.append(TraceInterval(1, 0, 10, "t"))
        out = render_trace(tr, width=10, worker_rows=8)
        worker_rows = [l for l in out.splitlines() if l.startswith("w")]
        assert len(worker_rows) == 2
        assert worker_rows[0].startswith("w00-00")
        assert worker_rows[1].startswith("w01-01")

    def test_width_larger_than_span(self):
        # Span of 5 cycles, 100 requested columns: buckets clamp to 1
        # cycle and the rendered row must not exceed the span.
        tr = Trace(1)
        tr.intervals.append(TraceInterval(0, 0, 5, "t"))
        tr.phases.append(PhaseSpan("p", 0, 5))
        out = render_trace(tr, width=100, worker_rows=1)
        row = next(l for l in out.splitlines() if l.startswith("w00"))
        cells = row.split(" ", 1)[1]
        assert len(cells) == 5
        assert set(cells) == {"@"}  # fully busy throughout

    def test_width_smaller_than_span(self):
        # 1000-cycle span squeezed into 4 columns still covers the run.
        tr = Trace(1)
        tr.intervals.append(TraceInterval(0, 0, 1000, "t"))
        out = render_trace(tr, width=4, worker_rows=1)
        row = next(l for l in out.splitlines() if l.startswith("w00"))
        cells = row.split(" ", 1)[1]
        assert len(cells) == 4
        assert set(cells) == {"@"}

    def test_phase_table_and_empty_phase_table(self):
        tr = Trace(1)
        assert render_phase_table(tr) == "(no phases)"
        tr.intervals.append(TraceInterval(0, 0, 10, "t"))
        tr.phases.append(PhaseSpan("setup", 0, 10))
        table = render_phase_table(tr)
        assert "setup" in table and "util" in table


class TestJsonExport:
    def _traced_run(self):
        rt = VirtualTimeRuntime(4, cost_model=FREE, enable_trace=True)

        def body():
            with rt.phase("p1"):
                g = rt.task_group()
                for _ in range(8):
                    g.spawn(rt.charge, 100)
                g.wait()

        rt.run(body)
        return rt

    def test_trace_round_trip(self):
        rt = self._traced_run()
        blob = trace_to_json(rt.trace)
        json.dumps(blob)  # serializable as-is
        rebuilt = trace_from_json(blob)
        assert rebuilt.n_workers == rt.trace.n_workers
        assert trace_to_json(rebuilt) == blob
        assert [p.name for p in rebuilt.phases] == ["p1"]

    def test_run_report_validates(self):
        rt = self._traced_run()
        report = run_report(rt, workload="unit")
        assert validate_report(report) == []
        assert report["schema"] == "repro.run-report/1"
        assert report["backend"] == "vtime"
        assert report["time_unit"] == "cycles"
        assert report["makespan"] == rt.makespan
        assert report["metrics"]["counters"]["rt.tasks_spawned"] == 8
        # Full JSON round trip preserves validity.
        again = json.loads(json.dumps(report))
        assert validate_report(again) == []

    @pytest.mark.parametrize("backend, unit", [
        ("serial", "cycles"), ("vtime", "cycles"), ("threads", "ns"),
        ("procs", "ns")])
    def test_run_report_has_one_time_unit(self, backend, unit):
        """The makespan and the metric timings are on the runtime's one
        clock, and the report says so once."""
        kw = {"in_process": True} if backend == "procs" else {}
        rt = make_runtime(backend, 1 if backend == "serial" else 2, **kw)
        parse_binary(tiny_binary().binary, rt)
        report = run_report(rt)
        assert validate_report(report) == []
        assert report["backend"] == backend
        assert report["time_unit"] == report["metrics"]["time_unit"] == unit
        assert isinstance(report["makespan"], int)

    def test_validator_flags_a_second_time_unit(self):
        report = run_report(self._traced_run())
        report["metrics"]["time_unit"] = "ns"
        assert validate_report(report) == [
            "$.metrics.time_unit must be $.time_unit = 'cycles' "
            "(got 'ns')"]

    def test_run_report_without_trace_or_metrics(self):
        rt = SerialRuntime(enable_metrics=False)
        rt.run(lambda: rt.charge(7))
        report = run_report(rt)
        assert validate_report(report) == []
        assert report["backend"] == "serial"
        assert report["metrics"] is None
        assert report["trace"] is None
        assert report["workload"] is None

    def test_validator_flags_corruption(self):
        rt = self._traced_run()
        report = run_report(rt)

        bad = json.loads(json.dumps(report))
        bad["schema"] = "repro.run-report/999"
        assert validate_report(bad)

        bad = json.loads(json.dumps(report))
        bad["trace"]["intervals"][0]["worker"] = 99
        assert validate_report(bad)

        bad = json.loads(json.dumps(report))
        first = next(iter(bad["metrics"]["histograms"]))
        bad["metrics"]["histograms"][first]["count"] = -1
        assert validate_report(bad)

        assert validate_report("not a dict")
        assert validate_report({})

    def test_render_metrics_table(self):
        rt = self._traced_run()
        out = render_metrics(rt.metrics.snapshot())
        assert "rt.tasks_spawned" in out
        assert "histogram (cycles)" in out
        assert render_metrics({"counters": {}, "histograms": {}}) == \
            "(no metrics)"


class TestRacesValidator:
    """The repro.races/1 schema and its run-report embedding."""

    @staticmethod
    def _swept_report(fixture="counter-racy", schedules=3):
        from repro.sanity.fixtures import fixture_workload
        from repro.sanity.races import run_race_sweep

        return run_race_sweep(fixture_workload(fixture), n_workers=4,
                              schedules=schedules, workload_name=fixture)

    def test_real_sweep_report_validates(self):
        rep = self._swept_report()
        assert rep["schema"] == RACES_SCHEMA
        assert validate_races(rep) == []
        assert rep["findings"], "racy fixture must produce findings"

    def test_clean_sweep_report_validates(self):
        rep = self._swept_report("counter-safe")
        assert validate_races(rep) == []
        assert rep["findings"] == []

    def test_embedded_races_section_validates(self):
        rt = VirtualTimeRuntime(2, cost_model=FREE)
        rt.run(lambda: rt.charge(3))
        doc = run_report(rt, workload="w", races=self._swept_report())
        assert validate_report(doc) == []
        assert doc["races"]["schema"] == RACES_SCHEMA
        # The embedded section must survive a JSON round-trip.
        assert validate_report(json.loads(json.dumps(doc))) == []

    def test_report_without_races_section_still_validates(self):
        rt = VirtualTimeRuntime(2, cost_model=FREE)
        rt.run(lambda: rt.charge(3))
        doc = run_report(rt, workload="w")
        assert "races" not in doc
        assert validate_report(doc) == []

    def test_corrupt_races_reports_are_flagged(self):
        assert validate_races("not a dict")
        assert any("schema" in e
                   for e in validate_races({"schema": "nope"}))
        rep = self._swept_report()
        bad = dict(rep, schedules=rep["schedules"] + 1)
        assert any("schedules" in e for e in validate_races(bad))
        bad = dict(rep)
        bad["findings"] = [dict(rep["findings"][0], kind="explosion")]
        assert any("kind" in e for e in validate_races(bad))
        bad = dict(rep)
        bad["findings"] = [dict(rep["findings"][0], sites=["only-one"])]
        assert any("sites" in e for e in validate_races(bad))
        bad = dict(rep)
        bad["findings"] = [dict(rep["findings"][0], count=0)]
        assert any("count" in e for e in validate_races(bad))

    def test_corrupt_embedded_section_fails_the_run_report(self):
        rt = VirtualTimeRuntime(2, cost_model=FREE)
        rt.run(lambda: rt.charge(3))
        doc = run_report(rt, workload="w", races=self._swept_report())
        doc["races"]["schema"] = "nope"
        assert any(e.startswith("races:") for e in validate_report(doc))


class TestFuzzReportSchema:
    """The repro.fuzz-report/1 schema: real reports validate, corrupt
    documents are flagged field-by-field."""

    @staticmethod
    def _campaign(minimize=False):
        from repro.fuzz.driver import fuzz_run
        from repro.fuzz.oracle import OracleAxis, _parse_sig, strict_jt_axis
        from repro.runtime.serial import SerialRuntime

        # The strict-jt ablation axis genuinely diverges on the
        # jt-overapprox preset, so a 2-case campaign exercises both the
        # clean and the divergent (and, with minimize, reduced) shapes.
        axes = [OracleAxis("serial", "signature", _parse_sig(SerialRuntime)),
                strict_jt_axis()]
        return fuzz_run(2, 9, presets=("jt-overapprox", "stripped"),
                        minimize=minimize, n_functions=10, axes=axes)

    def test_real_campaign_report_validates(self):
        from repro.fuzz.driver import FUZZ_REPORT_SCHEMA
        from repro.schema import validate_fuzz_report

        rep = self._campaign()
        assert rep["schema"] == FUZZ_REPORT_SCHEMA
        assert validate_fuzz_report(rep) == []
        assert rep["summary"]["diverged"] >= 1
        # JSON round-trip preserves validity.
        assert validate_fuzz_report(json.loads(json.dumps(rep))) == []

    def test_minimized_campaign_report_validates(self):
        from repro.fuzz.specio import CASE_SCHEMA
        from repro.schema import validate_fuzz_report

        rep = self._campaign(minimize=True)
        assert validate_fuzz_report(rep) == []
        div = rep["divergences"][0]
        assert div["minimized"]["schema"] == CASE_SCHEMA
        before, after = div["reduce"]["size_before"], div["reduce"]["size_after"]
        assert tuple(after) <= tuple(before)

    def test_structural_corruption_is_flagged(self):
        from repro.schema import validate_fuzz_report

        rep = self._campaign()
        assert validate_fuzz_report("not a dict")
        assert any("schema" in e for e in
                   validate_fuzz_report(dict(rep, schema="nope")))
        assert any("runs" in e for e in
                   validate_fuzz_report(dict(rep, runs=0)))
        bad = dict(rep, cases=rep["cases"][:1])
        assert any("case rows" in e for e in validate_fuzz_report(bad))
        bad = dict(rep)
        bad["cases"] = [dict(rep["cases"][0], preset="bogus")] + rep["cases"][1:]
        assert any("preset" in e for e in validate_fuzz_report(bad))
        bad = dict(rep)
        bad["cases"] = [dict(rep["cases"][0], reference_digest="wrong")] \
            + rep["cases"][1:]
        assert any("reference_digest" in e for e in validate_fuzz_report(bad))
        bad = dict(rep)
        bad["summary"] = dict(rep["summary"], diverged=99)
        assert any("diverged" in e for e in validate_fuzz_report(bad))
        bad = dict(rep)
        bad["divergences"] = [dict(rep["divergences"][0], failing=[])]
        assert any("failing" in e for e in validate_fuzz_report(bad))
