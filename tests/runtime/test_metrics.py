"""Tests for the structured metrics subsystem."""

import json
import sys
import threading

from repro.core.parallel_parser import parse_binary
from repro.runtime import (
    NULL_METRICS,
    MetricsRegistry,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
)
from repro.runtime.cost import CostModel
from repro.runtime.metrics import Histogram, bucket_bound
from repro.synth import tiny_binary

FREE = CostModel(spawn=0, task_pop=0, lock_handoff=0, map_op=0)


class TestPrimitives:
    def test_counter_accumulates(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("missing") == 0

    def test_bucket_bounds_are_powers_of_two(self):
        assert bucket_bound(0) == 0
        assert bucket_bound(-3) == 0
        assert bucket_bound(1) == 1
        assert bucket_bound(2) == 2
        assert bucket_bound(3) == 4
        assert bucket_bound(1024) == 1024
        assert bucket_bound(1025) == 2048

    def test_histogram_stats(self):
        h = Histogram()
        for v in (3, 5, 100):
            h.observe(v)
        assert h.count == 3
        assert h.total == 108
        assert (h.min, h.max) == (3, 100)
        assert h.mean == 36.0
        assert sum(h.buckets.values()) == 3

    def test_timer_uses_registry_clock(self):
        t = [0]
        m = MetricsRegistry("cycles", clock=lambda: t[0])
        with m.timer("dur"):
            t[0] = 42
        h = m.histogram("dur")
        assert h.count == 1 and h.total == 42

    def test_snapshot_shape_and_sorting(self):
        m = MetricsRegistry("cycles")
        m.inc("z")
        m.inc("a")
        m.observe("h", 7)
        snap = m.snapshot()
        assert snap["schema"] == "repro.metrics/1"
        assert snap["time_unit"] == "cycles"
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["histograms"]["h"]["buckets"] == {"8": 1}
        # The snapshot must be JSON-serializable as-is.
        json.dumps(snap)

    def test_null_metrics_is_inert(self):
        NULL_METRICS.inc("x", 5)
        NULL_METRICS.observe("y", 5)
        with NULL_METRICS.timer("z"):
            pass
        assert not NULL_METRICS.enabled
        snap = NULL_METRICS.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}


class TestCounterHandles:
    """Pre-bound counters: same totals, same exports as ``inc``."""

    @staticmethod
    def _registries():
        return (MetricsRegistry(), MetricsRegistry(single_writer=True))

    def test_unbumped_handle_is_invisible(self):
        for m in self._registries():
            h = m.bind("quiet")
            assert m.names() == []
            assert m.snapshot()["counters"] == {}
            assert m.counter("quiet") == 0
            h.inc(0)
            assert m.names() == []

    def test_handle_and_inc_on_one_name_add(self):
        for m in self._registries():
            h = m.bind("a")
            h.inc()
            m.inc("a", 4)
            h.inc(2)
            assert m.bind("a") is h
            assert m.counter("a") == 7
            assert m.names() == ["a"]
            assert m.snapshot()["counters"] == {"a": 7}
            # Reading folds the slot in without consuming it.
            assert m.snapshot()["counters"] == {"a": 7}

    def test_merge_of_handles_equals_merge_of_incs(self):
        for src in self._registries():
            twin = MetricsRegistry()
            for name, n in (("map.x.ops", 3), ("z", 1), ("map.x.ops", 2)):
                src.bind(name).inc(n)
                twin.inc(name, n)
            src.bind("never")
            src.observe("h", 5)
            twin.observe("h", 5)
            assert src.snapshot() == twin.snapshot()
            into_a, into_b = MetricsRegistry(), MetricsRegistry()
            for dst in (into_a, into_b):
                dst.bind("workers.z").inc(10)
            into_a.merge_snapshot(src.snapshot(), prefix="workers.")
            into_b.merge_snapshot(twin.snapshot(), prefix="workers.")
            assert into_a.snapshot() == into_b.snapshot()
            assert into_a.counter("workers.z") == 11
            assert into_a.counter("workers.map.x.ops") == 5

    def test_single_writer_inc_and_observe_skip_the_lock(self):
        class Untouchable:
            def acquire(self):
                raise AssertionError("single-writer update took the lock")
            __enter__ = acquire

        locked, solo = self._registries()
        real, solo._lock = solo._lock, Untouchable()
        for m in (locked, solo):
            for name, n in (("a", 1), ("b", 3), ("a", 2)):
                m.inc(name, n)
            for v in (5, 0, 9):
                m.observe("h", v)
        solo._lock = real
        assert solo.snapshot() == locked.snapshot()
        assert not locked._lock.locked()

    def test_locked_handles_lose_no_updates(self):
        m = MetricsRegistry()
        h = m.bind("hits")

        def bump():
            for _ in range(2000):
                h.inc()
                m.inc("hits")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert m.counter("hits") == 8 * 2000 * 2

    def test_null_metrics_handles_are_inert(self):
        h = NULL_METRICS.bind("x")
        h.inc()
        h.n += 5
        assert NULL_METRICS.bind("x").n == 0
        assert NULL_METRICS.counter("x") == 0
        assert NULL_METRICS.names() == []
        assert NULL_METRICS.snapshot()["counters"] == {}


class TestVtimeIntegration:
    def test_task_counters_match_spawns(self):
        rt = VirtualTimeRuntime(4, cost_model=FREE)

        def body():
            g = rt.task_group()
            for _ in range(10):
                g.spawn(rt.charge, 5)
            g.wait()

        rt.run(body)
        assert rt.metrics.counter("rt.tasks_spawned") == 10
        assert rt.metrics.counter("rt.tasks_executed") == 10

    def test_lock_contention_recorded(self):
        rt = VirtualTimeRuntime(2)
        lock = rt.make_lock()

        def worker():
            with lock:
                rt.charge(500)

        def body():
            g = rt.task_group()
            g.spawn(worker)
            g.spawn(worker)
            g.wait()

        rt.run(body)
        m = rt.metrics
        assert m.counter("lock.acquires") == 2
        assert m.counter("lock.contended") == 1
        park = m.histogram("lock.park")
        # The loser parks until the owner's virtual release time.
        assert park.count == 1
        assert park.min > 0

    def test_map_contention_attributed_to_map_name(self):
        from repro.runtime.conchash import ConcurrentHashMap

        rt = VirtualTimeRuntime(2)
        cmap = ConcurrentHashMap(rt, name="testmap")

        def worker():
            with cmap.accessor(0xAA) as acc:
                acc.value = rt.worker_id()
                rt.charge(300)

        def body():
            g = rt.task_group()
            g.spawn(worker)
            g.spawn(worker)
            g.wait()

        rt.run(body)
        m = rt.metrics
        assert m.counter("map.testmap.ops") == 2
        assert m.counter("map.testmap.created") == 1
        assert m.counter("map.testmap.acquires") == 2
        assert m.counter("map.testmap.contended") == 1
        assert m.histogram("map.testmap.park").min > 0

    def test_metrics_do_not_perturb_vtime_determinism(self):
        """Acceptance: identical signature() and makespan with/without."""
        sb = tiny_binary()
        rt_on = VirtualTimeRuntime(8, enable_trace=True)
        cfg_on = parse_binary(sb.binary, rt_on)
        rt_off = VirtualTimeRuntime(8, enable_metrics=False)
        cfg_off = parse_binary(sb.binary, rt_off)
        assert cfg_on.signature() == cfg_off.signature()
        assert rt_on.makespan == rt_off.makespan
        assert rt_off.metrics is NULL_METRICS
        assert rt_on.metrics.counter("parser.blocks_created") > 0

    def test_parser_counters_match_stats(self):
        sb = tiny_binary()
        rt = VirtualTimeRuntime(4)
        cfg = parse_binary(sb.binary, rt)
        m = rt.metrics
        assert m.counter("parser.block_splits") == cfg.stats.n_splits
        assert m.counter("parser.noreturn_waves") == cfg.stats.n_waves
        # Every created function passed through invariant 5.
        assert m.counter("parser.functions_created") >= cfg.stats.n_functions
        assert m.counter("map.blocks.created") == \
            m.counter("parser.blocks_created")

    def test_identical_runs_produce_identical_metrics(self):
        sb = tiny_binary()
        snaps = []
        for _ in range(2):
            rt = VirtualTimeRuntime(8)
            parse_binary(sb.binary, rt)
            snaps.append(rt.metrics.snapshot())
        assert snaps[0] == snaps[1]


class TestOtherBackends:
    def test_serial_task_metrics(self):
        rt = SerialRuntime()

        def body():
            g = rt.task_group()
            for _ in range(5):
                g.spawn(rt.charge, 3)
            g.wait()

        rt.run(body)
        assert rt.metrics.counter("rt.tasks_spawned") == 5
        assert rt.metrics.counter("rt.tasks_executed") == 5
        assert rt.metrics.histogram("rt.task_queue_delay").count == 5
        assert rt.metrics.time_unit == "cycles"

    def test_threads_task_and_lock_metrics(self):
        rt = ThreadRuntime(2)
        lock = rt.make_lock()

        def worker():
            with lock:
                pass

        def body():
            g = rt.task_group()
            for _ in range(6):
                g.spawn(worker)
            g.wait()

        rt.run(body)
        m = rt.metrics
        assert m.counter("rt.tasks_spawned") == 6
        assert m.counter("rt.tasks_executed") == 6
        assert m.counter("lock.acquires") == 6
        assert m.time_unit == "ns"

    def test_threads_parse_delivers_same_cfg_with_metrics(self):
        sb = tiny_binary()
        vt_sig = parse_binary(sb.binary, VirtualTimeRuntime(4)).signature()
        rt = ThreadRuntime(4)
        cfg = parse_binary(sb.binary, rt)
        assert cfg.signature() == vt_sig
        assert rt.metrics.counter("parser.blocks_created") > 0

    def test_metrics_do_not_perturb_the_serial_clock(self):
        """Handles or no handles, the serial makespan is the same."""
        sb = tiny_binary()
        rt_on, rt_off = SerialRuntime(), SerialRuntime(enable_metrics=False)
        cfg_on = parse_binary(sb.binary, rt_on)
        cfg_off = parse_binary(sb.binary, rt_off)
        assert cfg_on.signature() == cfg_off.signature()
        assert rt_on.makespan == rt_off.makespan
        assert rt_on.metrics.counter("map.blocks.ops") > 0
        assert rt_on.metrics.counter("rt.tasks_spawned") > 0

    def test_opt_out_on_every_backend(self):
        for rt in (VirtualTimeRuntime(2, enable_metrics=False),
                   ThreadRuntime(2, enable_metrics=False),
                   SerialRuntime(enable_metrics=False)):
            assert rt.metrics is NULL_METRICS
