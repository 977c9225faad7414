"""Fault-injection matrix for the procs backend's tolerance ladder.

Every test injects a deterministic fault (``repro.runtime.faults``) into
the sharded parse and asserts the two properties ISSUE 4 demands: the
parse completes without hanging and reproduces the serial fixed-point
signature exactly, and the fault plus the degradation step taken are
recorded in the metrics, ``rt.fault_events`` and the run report.

Pool-backed tests are skipped where multiprocessing pools don't work
(sandboxes without semaphores); the inline-mode tests cover the same
ladder logic everywhere.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
from contextlib import contextmanager

import pytest

from repro.core import parse_binary
from repro.errors import RuntimeConfigError
from repro.runtime import ProcsRuntime, SerialRuntime, procs, shm
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    corrupt_delta,
    delta_digest,
    delta_error,
)
from repro.runtime.procs import (
    _parse_shard,
    _run_shard,
    _worker_binary,
    ShardTask,
    shutdown_pool,
)
from repro.runtime.shm import SEGMENT_PREFIX, ImageSegment, release_view
from repro.runtime.tracefmt import run_report
from repro.schema import validate_report
from repro.synth import tiny_binary


def _pool_works() -> bool:
    try:
        with multiprocessing.get_context().Pool(1) as p:
            return p.apply(int, ("1",)) == 1
    except Exception:
        return False


needs_pool = pytest.mark.skipif(not _pool_works(),
                                reason="multiprocessing pool unavailable")


@pytest.fixture(scope="module")
def workload():
    sb = tiny_binary(seed=5, n_functions=24)
    want = parse_binary(sb.binary, SerialRuntime()).signature()
    return sb, want


def _parse_with(sb, want, plan, **kw):
    rt = ProcsRuntime(2, fault_plan=FaultPlan.from_spec(plan), **kw)
    assert parse_binary(sb.binary, rt).signature() == want
    for ev in rt.fault_events:  # one record per fault, one-line reason
        assert ev["reason"] and "\n" not in ev["reason"], ev
    return rt


def _kernel_segments() -> list[str]:
    """This process's ``repro-img-<pid>-*`` names: only a coordinator
    publishes a segment, and another repro process running alongside
    must not fail a leak check."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}-*"))


class TestFaultPlanGrammar:
    def test_round_trip(self):
        text = "exc@1,delay@0x3=1.5,killx2,corrupt,pool@2"
        plan = FaultPlan.from_spec(text)
        assert plan.to_spec() == text
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_wildcard_shard(self):
        plan = FaultPlan.from_spec("exc@*")
        assert plan.fires("exc", 0) and plan.fires("exc", 7)
        assert plan.to_spec() == "exc"

    def test_attempt_window(self):
        plan = FaultPlan.from_spec("excx2")
        assert plan.fires("exc", 0, attempt=1)
        assert plan.fires("exc", 0, attempt=2)
        assert not plan.fires("exc", 0, attempt=3)

    def test_shard_scoping(self):
        plan = FaultPlan.from_spec("exc@1")
        assert plan.fires("exc", 1) and not plan.fires("exc", 0)
        # Site consulted without a shard id matches any scoped spec.
        assert plan.fires("exc", None)

    def test_value_parses(self):
        spec = FaultPlan.from_spec("delay@0=2.5").fires("delay", 0)
        assert spec is not None and spec.value == 2.5

    def test_bad_entry_rejected(self):
        for bad in ("exc@", "=3", "delay@0x", "exc@1x2=a", "@1"):
            with pytest.raises(RuntimeConfigError, match="bad fault spec"):
                FaultPlan.from_spec(bad)

    def test_unknown_site_rejected(self):
        for bad in ("explode@1", "health", "frag@1", "wave@0x1"):
            with pytest.raises(RuntimeConfigError,
                               match="unknown fault site"):
                FaultPlan.from_spec(bad)

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({"REPRO_FAULT_PLAN": "exc@1"})
        assert plan == FaultPlan((FaultSpec("exc", shard=1),))

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.from_spec("")
        assert FaultPlan.from_spec("exc")


class TestDeltaIntegrity:
    """Seal -> verify -> open, against the sealed payload bytes."""

    CORRUPT = "corrupt delta: content digest mismatch"

    def _delta(self, sb):
        task = ShardTask(0, tuple(sb.binary.entry_addresses()))
        return _run_shard(sb.binary, _opts(), task, False)

    def test_digest_is_deterministic(self, workload):
        sb, _ = workload
        a, b = self._delta(sb), self._delta(sb)
        assert a.payload == b.payload
        assert a.digest == b.digest == delta_digest(a)
        assert delta_error(a) is None

    def test_sealed_delta_carries_only_the_payload(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        assert isinstance(d.payload, bytes) and d.payload
        assert d.fragment is None and d.insns == {} and d.metrics is None

    def test_open_fills_the_fields_and_releases_the_payload(self, workload):
        sb, _ = workload
        task = ShardTask(0, tuple(sb.binary.entry_addresses()))
        d = _run_shard(sb.binary, _opts(), task, True)
        assert delta_error(d) is None
        assert d.payload is None
        assert d.fragment.shard_id == 0 and d.attempt == 1
        assert d.insns and all(a == i.address for a, i in d.insns.items())
        assert d.metrics["counters"]["parser.blocks_created"] \
            == len(d.fragment.blocks[0])

    def test_mutation_detected(self, workload):
        """Flipping any one byte — fragment columns, instruction values
        and the metrics snapshot all live in the payload — is caught,
        and a corrupt payload is never opened."""
        sb, _ = workload
        d = self._delta(sb)
        good = d.payload
        for k in range(64):
            blob = bytearray(good)
            blob[k * (len(good) - 1) // 63] ^= 0x01
            d.payload = bytes(blob)
            assert delta_error(d) == self.CORRUPT, k
            assert d.fragment is None and d.payload is not None

    def test_short_payload_detected(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        good = d.payload
        for eighth in range(8):
            d.payload = good[:len(good) * eighth // 8]
            assert delta_error(d) == self.CORRUPT, eighth
        assert d.fragment is None

    def test_restamped_header_detected(self, workload):
        """The digest binds the payload to its shard and attempt."""
        sb, _ = workload
        d = self._delta(sb)
        d.shard_id = 1
        assert delta_error(d) == self.CORRUPT
        d.shard_id, d.attempt = 0, 2
        assert delta_error(d) == self.CORRUPT
        d.attempt = 1
        assert delta_error(d) is None

    def test_missing_fragment_detected(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        d.payload = None
        assert "truncated" in delta_error(d)

    def test_missing_digest_detected(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        d.digest = None
        assert "no integrity digest" in delta_error(d)
        assert d.fragment is None

    def test_error_and_none_detected(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        d.error = "Boom"
        assert "worker exception" in delta_error(d)
        assert delta_error(None) == "no delta returned"

    def test_fault_sites_act_on_the_payload(self, workload):
        sb, _ = workload
        d = self._delta(sb)
        good = d.payload
        corrupt_delta(FaultPlan.from_spec("corrupt@0"), d, 0, 1)
        assert d.payload != good and len(d.payload) == len(good)
        assert delta_error(d) == self.CORRUPT
        corrupt_delta(FaultPlan.from_spec("truncate@0"), d, 0, 1)
        assert d.payload is None and "truncated" in delta_error(d)


def _count_digests(monkeypatch) -> list:
    """Count ``faults.delta_digest`` calls made in this process."""
    from repro.runtime import faults

    calls: list = []
    real = faults.delta_digest

    def counted(delta):
        calls.append((delta.shard_id, delta.attempt))
        return real(delta)

    monkeypatch.setattr(faults, "delta_digest", counted)
    return calls


class TestVerifyOnce:
    """A healthy delta is hashed once where it is produced and once
    where it is collected — nowhere else."""

    def test_in_process_hashes_each_delta_twice(self, workload, monkeypatch):
        sb, want = workload
        calls = _count_digests(monkeypatch)
        rt = ProcsRuntime(2, in_process=True)
        assert parse_binary(sb.binary, rt).signature() == want
        assert sorted(calls) == [(0, 1), (0, 1), (1, 1), (1, 1)]

    @needs_pool
    def test_pool_coordinator_hashes_each_delta_once(self, workload,
                                                     monkeypatch):
        sb, want = workload
        calls = _count_digests(monkeypatch)
        rt = ProcsRuntime(2, shard_deadline=30.0)
        assert parse_binary(sb.binary, rt).signature() == want
        assert rt.degradation["level"] == "none"
        assert rt.metrics.counter("procs.pool_fallback") == 0
        # The producer's pass ran in the worker processes.
        assert sorted(calls) == [(0, 1), (1, 1)]

    def test_transport_metrics_recorded(self, workload):
        sb, want = workload
        rt = ProcsRuntime(2, in_process=True)
        assert parse_binary(sb.binary, rt).signature() == want
        m = rt.metrics
        assert m.counter("procs.delta.bytes") > 0
        assert m.histogram("procs.delta.open_wall_ns").count == 2


@contextmanager
def _published(payload: bytes):
    """A published image segment's ``(name, size)``, unlinked on exit."""
    seg = ImageSegment.create(payload)
    try:
        yield seg.name, seg.size
    finally:
        seg.unlink()


class TestParseShardErrorAsData:
    """`_parse_shard` returns failures as data, never raises."""

    def test_injected_exception_returned_as_error_delta(self, workload):
        sb, _ = workload
        task = ShardTask(0, tuple(sb.binary.entry_addresses()))
        with _published(sb.binary.image.to_bytes()) as segment:
            payload = (segment, _opts(), False, task, 1,
                       FaultPlan.from_spec("exc@0"))
            delta = _parse_shard(payload)
        assert delta.error is not None
        assert "InjectedFaultError" in delta.error
        assert (delta.shard_id, delta.attempt) == (0, 1)

    def test_garbage_image_returned_as_error_delta(self, workload):
        sb, _ = workload
        task = ShardTask(0, tuple(sb.binary.entry_addresses()))
        with _published(b"not an image") as segment:
            payload = (segment, _opts(), False, task, 1, None)
            delta = _parse_shard(payload)
        assert delta.error is not None and "ImageFormatError" in delta.error


class TestWorkerBinaryCache:
    """One slot: the previous task's binary, replaced by a new segment."""

    @pytest.fixture(autouse=True)
    def segment(self, workload):
        sb, _ = workload
        with _published(sb.binary.image.to_bytes()) as segment:
            yield segment
            _drop_worker_image()

    def test_hit_returns_cached_object(self, segment):
        first = _worker_binary(segment)
        assert _worker_binary(segment) is first

    def test_shm_transport_attaches_and_releases(self, workload, segment):
        sb, _ = workload
        binary = _worker_binary(segment)
        assert binary.image.name == sb.binary.image.name
        shm_obj = procs._WORKER_IMAGE[2][0]
        graveyard = list(shm._GRAVEYARD)
        del binary
        # A new segment replaces the slot: the previous binary is dropped
        # first, so its mapping closes instead of parking in the graveyard.
        with _published(sb.binary.image.to_bytes()) as other:
            _worker_binary(other)
            assert procs._WORKER_IMAGE[0] == other[0]
            assert shm_obj.buf is None  # closed
            assert shm._GRAVEYARD == graveyard


def _drop_worker_image() -> None:
    """Empty the worker slot the way a new segment does: binary first,
    then its mapping."""
    if procs._WORKER_IMAGE is not None:
        handle = procs._WORKER_IMAGE[2]
        procs._WORKER_IMAGE = None
        release_view(handle)


class TestInlineLadder:
    """Ladder behavior with in-process shard execution (no pool)."""

    def test_exc_retried_transparently(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "exc@0x1", in_process=True)
        assert rt.degradation["level"] == "none"
        assert [e["kind"] for e in rt.fault_events] == ["shard_failed"]
        assert rt.metrics.counter("procs.retry.inline") == 1
        assert rt.fault_events[0]["shard"] == 0

    def test_corrupt_delta_detected_and_retried(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "corrupt@1x1", in_process=True)
        assert rt.degradation["level"] == "none"
        assert "digest mismatch" in rt.fault_events[0]["reason"]

    def test_truncated_delta_detected_and_retried(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "truncate@0x1", in_process=True)
        assert rt.degradation["level"] == "none"
        assert "truncated" in rt.fault_events[0]["reason"]

    def test_exhausted_retries_degrade_to_serial(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "exc@0x99", in_process=True)
        assert rt.degradation["level"] == "serial"
        assert rt.metrics.counter("procs.degraded_to.serial") == 1
        assert rt.fault_events[-1]["kind"] == "sharded_parse_failed"
        # MAX_RETRIES=2 -> three failed inline attempts before the rung.
        assert rt.metrics.counter("procs.shard_failed") == 3

    def test_exhausted_shard_records_no_retry_that_never_ran(self,
                                                             workload):
        """The last failed attempt is recorded once, as the serial
        rung: no event names a retry that did not follow."""
        sb, want = workload
        rt = _parse_with(sb, want, "exc@0x99", in_process=True)
        assert [(e["kind"], e["shard"], e["attempt"], e["action"])
                for e in rt.fault_events] == [
            ("shard_failed", 0, 1, "retry"),
            ("shard_failed", 0, 2, "retry"),
            ("sharded_parse_failed", 0, 3, "serial")]
        assert rt.metrics.counter("procs.shard_failed") == 3
        assert rt.metrics.counter("procs.retry.inline") == 2

    def test_metrics_off_still_recovers(self, workload):
        sb, want = workload
        rt = ProcsRuntime(2, in_process=True, enable_metrics=False,
                          fault_plan=FaultPlan.from_spec("exc@0x1"))
        assert parse_binary(sb.binary, rt).signature() == want
        assert rt.fault_events  # events recorded even without metrics

    def test_report_carries_fault_sections(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "exc@0x99", in_process=True)
        report = run_report(rt, workload="tiny")
        assert validate_report(report) == []
        assert report["degradation"]["level"] == "serial"
        kinds = [ev["kind"] for ev in report["fault_events"]]
        assert "shard_failed" in kinds
        assert "sharded_parse_failed" in kinds

    def test_clean_run_reports_no_faults(self, workload):
        sb, want = workload
        rt = ProcsRuntime(2, in_process=True)
        assert parse_binary(sb.binary, rt).signature() == want
        report = run_report(rt)
        assert validate_report(report) == []
        assert report["fault_events"] == []
        assert report["degradation"] == {"level": "none", "steps": []}


@needs_pool
class TestPoolLadder:
    """The real-pool matrix: timeout, kill, corrupt, pool error, no pool."""

    def test_worker_exception_redispatched(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "exc@1x1", shard_deadline=30.0)
        assert rt.degradation["level"] == "none"
        assert rt.metrics.counter("procs.retry.dispatch") == 1
        assert rt.fault_events[0] == {
            "kind": "shard_failed", "shard": 1, "attempt": 1,
            "action": "retry",
            "reason": "worker exception: repro.errors.InjectedFaultError: "
                      "injected fault at site 'exc' (shard=1, attempt=1)"}

    def test_hang_past_deadline_times_out_and_recovers(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "delay@0x1=1.2", shard_deadline=0.4)
        assert rt.degradation["level"] == "none"
        assert rt.metrics.counter("procs.shard_timeout") >= 1
        ev = next(e for e in rt.fault_events if e["kind"] == "shard_timeout")
        assert ev["shard"] == 0
        assert "0.4s shard deadline" in ev["reason"]

    def test_worker_kill_recovers(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "kill@1x1", shard_deadline=1.0)
        # A worker killed mid-task loses only its result: the pool
        # replaces the process itself, so the deadline timeout is the
        # one fault and one plain retry on the same pool recovers.
        assert [(e["kind"], e["shard"], e["attempt"], e["action"])
                for e in rt.fault_events] == [
            ("shard_timeout", 1, 1, "retry")]
        assert rt.metrics.counter("procs.retry.dispatch") == 1
        assert rt.degradation["level"] == "none"

    def test_corrupt_delta_redispatched(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "corrupt@0x1", shard_deadline=30.0)
        assert rt.degradation["level"] == "none"
        assert "digest mismatch" in rt.fault_events[0]["reason"]

    def test_pool_error_retries_on_the_same_pool(self, workload,
                                                 monkeypatch):
        """An error handing a result over is one failed attempt: the
        shard is re-dispatched to the pool it failed on."""
        from multiprocessing.pool import ApplyResult

        from repro.runtime import procs

        sb, want = workload
        _parse_with(sb, want, "", shard_deadline=30.0)
        pool = procs._POOL
        before = _kernel_segments()
        real_get = ApplyResult.get
        raised = []

        def get_once(self, timeout=None):
            if not raised:
                raised.append(True)
                raise RuntimeError("result queue broke")
            return real_get(self, timeout)

        monkeypatch.setattr(ApplyResult, "get", get_once)
        rt = _parse_with(sb, want, "", shard_deadline=30.0)
        assert [(e["kind"], e["attempt"], e["action"], e["reason"])
                for e in rt.fault_events] == [
            ("pool_error", 1, "retry", "RuntimeError: result queue broke")]
        assert rt.metrics.counter("procs.retry.dispatch") == 1
        assert rt.degradation == {"level": "none", "steps": []}
        assert procs._POOL is pool
        assert _kernel_segments() == before

    def test_pool_creation_failure_degrades_serial(self, workload):
        sb, want = workload
        before = _kernel_segments()
        rt = _parse_with(sb, want, "poolx99", shard_deadline=30.0)
        assert rt.degradation["level"] == "serial"
        assert rt.metrics.counter("procs.pool_fallback") == 1
        assert rt.fault_events == [{
            "kind": "pool_create_failed", "shard": None, "attempt": 1,
            "action": "serial",
            "reason": "no worker pool: InjectedFaultError: injected fault "
                      "at site 'pool' (shard=None, attempt=1)"}]
        # The serial rung parses on the coordinator: no shard, no merge.
        assert rt.metrics.counter("procs.merge.blocks") == 0
        assert _kernel_segments() == before

    def test_pool_exhausted_shard_degrades_serial(self, workload):
        sb, want = workload
        before = _kernel_segments()
        rt = _parse_with(sb, want, "exc@0x3", shard_deadline=30.0)
        # Attempts 1-3 fail in the pool; the third is recorded as the
        # serial rung's event.
        assert rt.degradation["level"] == "serial"
        assert [(e["kind"], e["shard"], e["attempt"], e["action"])
                for e in rt.fault_events] == [
            ("shard_failed", 0, 1, "retry"),
            ("shard_failed", 0, 2, "retry"),
            ("sharded_parse_failed", 0, 3, "serial")]
        assert rt.metrics.counter("procs.retry.dispatch") == 2
        assert rt.metrics.counter("procs.retry.inline") == 0
        assert rt.metrics.counter("procs.degraded_to.serial") == 1
        assert _kernel_segments() == before

    def test_report_validates_after_pool_faults(self, workload):
        sb, want = workload
        rt = _parse_with(sb, want, "exc@1x1,corrupt@0x1",
                         shard_deadline=30.0)
        report = run_report(rt, workload="tiny")
        assert validate_report(report) == []
        assert report["degradation"]["level"] == "none"
        assert len(report["fault_events"]) == 2


@needs_pool
@pytest.mark.parametrize("plan", ["exc@*x2", "exc@1x1",
                                  "corrupt@1x1,truncate@0x2",
                                  "exc@0x99", "exc@*x3"])
def test_same_plan_same_events_inline_and_pool(workload, plan):
    """In-process and pool attempts run through one ladder: a plan
    yields the same fault events, reasons included, and the same
    degradation."""
    sb, want = workload
    inline = _parse_with(sb, want, plan, in_process=True)
    pool = _parse_with(sb, want, plan, shard_deadline=30.0)
    assert inline.fault_events
    assert inline.fault_events == pool.fault_events
    assert inline.degradation == pool.degradation
    assert pool.metrics.counter("procs.pool_fallback") == 0


class TestConfigValidation:
    def test_bad_knobs_rejected(self):
        for kw in ({"shard_deadline": 0}, {"shard_deadline": -1}):
            with pytest.raises(RuntimeConfigError):
                ProcsRuntime(2, **kw)

    def test_env_plan_picked_up(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "exc@0x1")
        sb, want = workload
        rt = ProcsRuntime(2, in_process=True)
        assert rt.fault_plan is not None
        assert parse_binary(sb.binary, rt).signature() == want
        assert rt.fault_events


class TestReportValidatorRejections:
    def _base(self, workload):
        sb, want = workload
        rt = ProcsRuntime(2, in_process=True)
        parse_binary(sb.binary, rt)
        return run_report(rt)

    def test_bad_degradation_level(self, workload):
        report = self._base(workload)
        report["degradation"]["level"] = "sideways"
        assert any("degradation.level" in e
                   for e in validate_report(report))

    def test_bad_event_shape(self, workload):
        report = self._base(workload)
        report["fault_events"] = [{"kind": 7, "shard": "x",
                                   "attempt": -1, "action": None}]
        errs = validate_report(report)
        assert any("kind" in e for e in errs)
        assert any("shard" in e for e in errs)
        assert any("attempt" in e for e in errs)
        assert any("action" in e for e in errs)

    def test_bad_steps(self, workload):
        report = self._base(workload)
        report["degradation"]["steps"] = [1]
        assert any("steps[0]" in e for e in validate_report(report))


def _opts():
    from repro.core.parallel_parser import ParseOptions
    return ParseOptions()


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()
