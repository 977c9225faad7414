"""Unit tests for the process-pool backend (sharding, merge, fallback)."""

import math
import os

import pytest

from repro.core import parse_binary
from repro.errors import RuntimeConfigError
from repro.runtime import ProcsRuntime, SerialRuntime
from repro.runtime.faults import FaultPlan
from repro.runtime.procs import (
    ADDRESS_CEILING,
    ShardDelta,
    ShardTask,
    shard_regions,
)
from repro.runtime.tracefmt import run_report
from repro.schema import validate_report
from repro.synth import hpcstruct_binaries, tensorflow_like, tiny_binary
from tests.runtime.test_faults import needs_pool

needs_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="no /proc/<pid>/maps")


def _heap_probe(hold: float) -> tuple[int, int, bool]:
    """Pool task: this worker's pid, tracked-object count and collector
    state.  Holding the worker a moment lets each probe of a batch land
    on its own worker."""
    import gc
    import os
    import time

    time.sleep(hold)
    return os.getpid(), len(gc.get_objects()), gc.isenabled()


def _worker_heaps(pool) -> dict[int, int]:
    """``len(gc.get_objects())`` of every worker of ``pool``; each
    worker's collector must be on between its tasks."""
    want = {p.pid for p in pool._pool}
    heaps: dict[int, int] = {}
    for _ in range(20):
        for pid, n, collecting in pool.map(
                _heap_probe, [0.2] * len(want), chunksize=1):
            assert collecting, f"worker {pid} left its collector paused"
            heaps.setdefault(pid, n)
        if set(heaps) == want:
            return heaps
    raise AssertionError(f"probes reached {sorted(heaps)} of {sorted(want)}")


class TestShardRegions:
    def test_partition_preserves_entries(self):
        entries = [40, 10, 30, 20, 50, 70, 60]
        shards = shard_regions(entries, 3)
        flat = [a for s in shards for a in s]
        assert flat == sorted(entries)  # nothing lost, order contiguous

    def test_balanced_sizes(self):
        shards = shard_regions(list(range(0, 1000, 8)), 8)
        sizes = [len(s) for s in shards]
        assert len(shards) == 8
        assert max(sizes) - min(sizes) <= 1

    def test_skewed_corpus_balances_byte_span_not_count(self):
        # 64 tiny stubs packed at the bottom, two huge functions above:
        # a count-split would hand one shard 33 stubs and the other 31
        # stubs plus both giants.  The byte-span split puts every stub
        # in shard 0 and both giants in shard 1, so each shard decodes
        # roughly half the address span.
        entries = list(range(64)) + [1000, 2000]
        shards = shard_regions(entries, 2)
        assert shards == [tuple(range(64)), (1000, 2000)]

    def test_skewed_corpus_leaves_one_entry_per_shard(self):
        # One giant at the bottom would swallow the whole span target;
        # the split must still leave a seed for every remaining shard.
        shards = shard_regions([0, 10_000, 10_001, 10_002], 4)
        assert shards == [(0,), (10_000,), (10_001,), (10_002,)]

    def test_more_shards_than_entries(self):
        shards = shard_regions([1, 2, 3], 16)
        assert shards == [(1,), (2,), (3,)]

    def test_contiguous_regions_do_not_interleave(self):
        shards = shard_regions(list(range(100)), 4)
        for a, b in zip(shards, shards[1:]):
            assert a[-1] < b[0]

    def test_empty(self):
        assert shard_regions([], 4) == []
        assert shard_regions([5], 1) == [(5,)]


class TestProcsRuntime:
    def test_rejects_zero_workers(self):
        with pytest.raises(RuntimeConfigError):
            ProcsRuntime(0)

    @pytest.mark.parametrize("deadline", [0, -1, math.inf, math.nan])
    def test_rejects_a_deadline_that_is_not_finite_and_positive(
            self, deadline):
        """``inf`` overflowed every pool attempt's timeout and ``nan``
        timed each one out at once: both fell to serial, silently."""
        with pytest.raises(RuntimeConfigError, match="shard_deadline"):
            ProcsRuntime(2, shard_deadline=deadline)

    def test_makespan_requires_run(self):
        rt = ProcsRuntime(2)
        with pytest.raises(RuntimeConfigError):
            rt.makespan
        parse_binary(tiny_binary().binary, rt)
        assert rt.makespan > 0

    def test_second_parse_is_refused_and_records_no_fault(self):
        """Single-use, like every runtime: a second run raises instead of
        degrading, and the first run's record stands."""
        sb = tiny_binary(seed=5, n_functions=24)
        rt = ProcsRuntime(2, in_process=True,
                          fault_plan=FaultPlan.from_spec("exc@0x1"))
        parse_binary(sb.binary, rt)
        events, makespan = list(rt.fault_events), rt.makespan
        assert [ev["kind"] for ev in events] == ["shard_failed"]
        with pytest.raises(RuntimeConfigError):
            parse_binary(sb.binary, rt)
        assert rt.fault_events == events
        assert rt.degradation == {"level": "none", "steps": []}
        assert rt.makespan == makespan

    def test_inline_parse_matches_serial(self):
        sb = tiny_binary(seed=5, n_functions=24)
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        rt = ProcsRuntime(3, in_process=True)
        assert parse_binary(sb.binary, rt).signature() == want
        # Inline mode never touches a pool.
        assert rt.metrics.counter("procs.pool_fallback") == 0

    def test_shard_deltas_recorded(self):
        sb = tiny_binary(seed=5, n_functions=24)
        rt = ProcsRuntime(3, in_process=True)
        parse_binary(sb.binary, rt)
        deltas = rt.shard_deltas
        assert deltas is not None and len(deltas) == 3
        n_entries = len(sb.binary.entry_addresses())
        assert sum(len(d.insns) > 0 for d in deltas) == 3
        # Opened, not kept twice: the sealed payload bytes are released.
        assert [d.payload for d in deltas] == [None] * 3
        assert rt.metrics.counter("procs.shards") == 3
        # Every shard parsed at least its own seeds into functions.
        assert (rt.metrics.counter("procs.merge.functions")
                >= n_entries)

    def test_worker_metrics_merged_under_prefix(self):
        sb = tiny_binary(seed=5, n_functions=24)
        rt = ProcsRuntime(2, in_process=True)
        parse_binary(sb.binary, rt)
        names = rt.metrics.names()
        assert any(n.startswith("workers.") for n in names)
        # Coordinator's own series stay unprefixed alongside.
        assert "procs.merged_cache_insns" in names

    def test_no_metrics_mode(self):
        sb = tiny_binary(seed=5, n_functions=24)
        rt = ProcsRuntime(2, in_process=True, enable_metrics=False)
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        assert parse_binary(sb.binary, rt).signature() == want
        assert not rt.metrics.enabled

    def test_unrecoverable_shard_error_degrades_to_serial(self, monkeypatch):
        # A delta that survives the dispatch ladder with its error still
        # set (here: a rogue _map_shards, standing in for any
        # unrecoverable sharded-pipeline failure) must not abort the
        # parse — the ladder's last rung produces the serial fixed
        # point and records what happened.
        sb = tiny_binary(seed=5, n_functions=24)
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        rt = ProcsRuntime(2, in_process=True)
        monkeypatch.setattr(
            ProcsRuntime, "_map_shards",
            lambda self, binary, opts, tasks:
                [ShardDelta(0, error="KaboomError: shard exploded")])
        assert rt.sharded_parse(sb.binary).signature() == want
        assert rt.degradation["level"] == "serial"
        assert rt.metrics.counter("procs.degraded_to.serial") == 1
        kinds = [ev["kind"] for ev in rt.fault_events]
        assert "sharded_parse_failed" in kinds
        assert any("KaboomError" in step
                   for step in rt.degradation["steps"])

    def test_pool_failure_falls_back_serial(self, monkeypatch):
        import multiprocessing

        def no_context(*a, **kw):
            raise OSError("no semaphores here")

        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        sb = tiny_binary(seed=5, n_functions=24)
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        rt = ProcsRuntime(4)
        assert parse_binary(sb.binary, rt).signature() == want
        assert rt.metrics.counter("procs.pool_fallback") == 1
        assert rt.degradation["level"] == "serial"
        assert [(e["kind"], e["action"]) for e in rt.fault_events] == [
            ("pool_create_failed", "serial")]
        # The serial rung parses on the coordinator: no shard, no merge,
        # no image segment.
        assert rt.metrics.counter("procs.merge.blocks") == 0
        assert rt.metrics.counter("procs.shards") == 0
        assert rt.metrics.counter("procs.shm.segments") == 0
        # Nor a fan-out: the wall timer records nothing for it.
        assert rt.metrics.histogram("procs.phase.fanout_wall_ns") is None

    def test_table1_binaries_on_the_pool_match_serial_and_time_every_phase(
            self):
        """The four Table-1 presets, sharded 2 and 4 ways over the real
        worker pool: the serial fixed point, and every coordinator
        phase observed (docs/OBSERVABILITY.md's ``procs.phase.*``)."""
        for sb in hpcstruct_binaries(scale=0.1):
            want = parse_binary(sb.binary, SerialRuntime()).signature()
            for workers in (2, 4):
                rt = ProcsRuntime(workers)
                assert parse_binary(sb.binary, rt).signature() == want, \
                    (sb.name, workers)
                for phase in ("fanout", "install", "frontier", "wave",
                              "finalize"):
                    assert rt.metrics.histogram(
                        f"procs.phase.{phase}_wall_ns") is not None, \
                        (sb.name, workers, phase)

    @needs_pool
    def test_pool_collects_every_shard_before_installing(self, monkeypatch):
        """On the real pool the coordinator installs nothing until the
        fan-out has returned: one accept per shard, all after
        ``_map_shards``.  The five coordinator phases therefore do not
        overlap, and their sum fits inside the makespan."""
        from repro.core.shard_merge import StreamingMerge

        sb = tiny_binary(seed=5, n_functions=24)
        want = parse_binary(sb.binary, SerialRuntime()).signature()
        events = []
        real_map, real_accept = ProcsRuntime._map_shards, StreamingMerge.accept

        def map_shards(self, *args):
            try:
                return real_map(self, *args)
            finally:
                events.append("fanout returned")

        def accept(self, *args, **kwargs):
            events.append("accept")
            return real_accept(self, *args, **kwargs)

        monkeypatch.setattr(ProcsRuntime, "_map_shards", map_shards)
        monkeypatch.setattr(StreamingMerge, "accept", accept)
        rt = ProcsRuntime(2, shard_deadline=30.0)
        assert parse_binary(sb.binary, rt).signature() == want
        assert events == ["fanout returned", "accept", "accept"]
        assert rt.degradation["level"] == "none"
        phases_ns = sum(
            rt.metrics.histogram(f"procs.phase.{phase}_wall_ns").total
            for phase in ("fanout", "install", "frontier", "wave",
                          "finalize"))
        assert phases_ns <= rt.makespan

    @needs_pool
    def test_pool_workers_free_each_shard(self):
        """Pool workers parse shard after shard, with the collector
        paused during each: the heap of every worker stays flat.

        A worker keeps only its previous task's image, replaced by the
        next parse's, so parse 1 and parse 11 leave the same heap."""
        from repro.runtime import procs

        binary = tensorflow_like(seed=104, scale=0.3).binary
        counts = []
        for _ in range(11):
            rt = ProcsRuntime(2, shard_deadline=30.0)
            parse_binary(binary, rt).release()
            assert rt.degradation["level"] == "none"
            counts.append(_worker_heaps(procs._POOL))
        first, last = counts[0], counts[-1]
        assert sorted(last) == sorted(first)  # the same workers
        for pid, n in last.items():
            assert n <= first[pid] * 1.05, (pid, first[pid], n)

    @needs_proc_maps
    @needs_pool
    def test_pool_workers_map_one_image(self):
        """Each worker keeps one image: a task naming a new segment
        releases the previous task's mapping before attaching."""
        from repro.runtime import procs
        from repro.runtime.shm import SEGMENT_PREFIX

        binary = tensorflow_like(seed=104, scale=0.3).binary
        for _ in range(3):
            rt = ProcsRuntime(2, shard_deadline=30.0)
            parse_binary(binary, rt).release()
            assert rt.degradation["level"] == "none"
        mapped = {}
        for worker in procs._POOL._pool:
            with open(f"/proc/{worker.pid}/maps") as f:
                mapped[worker.pid] = {
                    line.split(SEGMENT_PREFIX, 1)[1].split()[0]
                    for line in f if SEGMENT_PREFIX in line}
        assert all(len(names) <= 1 for names in mapped.values()), mapped
        assert any(mapped.values()), mapped  # some worker served a task

    def test_run_report_backend_and_unit(self):
        rt = ProcsRuntime(2, in_process=True)
        parse_binary(tiny_binary().binary, rt)
        report = run_report(rt, workload="tiny")
        assert validate_report(report) == []
        assert report["backend"] == "procs"
        assert report["time_unit"] == "ns"
        assert report["makespan"] > 0

    def test_coordinator_phases_enclose_their_wall_timers(self):
        """One clock on the coordinator: each ``phase.cfg_*`` span opens
        before and closes after the ``procs.phase.*_wall_ns`` timer of
        the same body, so its total is never the smaller one."""
        rt = ProcsRuntime(2, in_process=True)
        parse_binary(tiny_binary(seed=5, n_functions=24).binary, rt)
        for phase, timer in (("merge", "install"), ("frontier", "frontier"),
                             ("wave", "wave"), ("finalize", "finalize")):
            span = rt.metrics.histogram(f"phase.cfg_{phase}")
            wall = rt.metrics.histogram(f"procs.phase.{timer}_wall_ns")
            assert span.count == wall.count > 0, phase
            assert span.total >= wall.total, phase


class TestShardTask:
    def test_region_bounds(self):
        # A task built without a claim owns the whole address space.
        t = ShardTask(0, (10, 20, 30))
        assert (t.owned_lo, t.owned_hi) == (0, ADDRESS_CEILING)

