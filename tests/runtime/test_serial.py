"""Tests for the single-worker serial runtime."""

import gc
import threading

import pytest

from repro.errors import RuntimeConfigError
from repro.runtime import SerialRuntime, ThreadRuntime, VirtualTimeRuntime
from repro.runtime.cost import CostModel


def test_charge_advances_clock():
    rt = SerialRuntime()

    def body():
        rt.charge(100)
        assert rt.now() == 100
        rt.charge(50)

    rt.run(body)
    assert rt.makespan == 150


def test_worker_identity():
    rt = SerialRuntime()
    rt.run(lambda: None)
    assert rt.num_workers == 1
    assert rt.worker_id() == 0


def test_task_group_runs_all_tasks():
    rt = SerialRuntime()
    seen = []

    def body():
        g = rt.task_group()
        for i in range(5):
            g.spawn(seen.append, i)
        g.wait()

    rt.run(body)
    assert sorted(seen) == [0, 1, 2, 3, 4]


def test_nested_spawn_during_task():
    rt = SerialRuntime()
    seen = []

    def body():
        g = rt.task_group()

        def outer(i):
            seen.append(("outer", i))
            if i < 2:
                g.spawn(outer, i + 1)

        g.spawn(outer, 0)
        g.wait()

    rt.run(body)
    assert ("outer", 2) in seen


def test_spawn_and_pop_costs_accrue():
    cm = CostModel(spawn=7, task_pop=3)
    rt = SerialRuntime(cost_model=cm)

    def body():
        g = rt.task_group()
        g.spawn(lambda: rt.charge(10))
        g.wait()

    rt.run(body)
    assert rt.makespan == 7 + 3 + 10


def test_detached_spawns_drained_by_run():
    rt = SerialRuntime()
    seen = []

    def body():
        g = rt.task_group()
        g.spawn(seen.append, 1)
        # No wait: run() must still drain it.

    rt.run(body)
    assert seen == [1]


def test_parallel_for_sorted_descending():
    rt = SerialRuntime()
    order = []
    rt.run(lambda: rt.parallel_for([3, 1, 2], order.append,
                                   sort_key=lambda x: x, reverse=True))
    assert order == [3, 2, 1]


def test_lock_is_nonreentrant():
    rt = SerialRuntime()

    def body():
        lock = rt.make_lock()
        with lock:
            with pytest.raises(RuntimeConfigError):
                lock.acquire()

    rt.run(body)


def test_lock_release_unheld_raises():
    rt = SerialRuntime()

    def body():
        with pytest.raises(RuntimeConfigError):
            rt.make_lock().release()

    rt.run(body)


def test_single_use():
    rt = SerialRuntime()
    rt.run(lambda: None)
    with pytest.raises(RuntimeConfigError):
        rt.run(lambda: None)


def test_run_returns_result():
    rt = SerialRuntime()
    assert rt.run(lambda: 42) == 42


class TestCollectorPause:
    """``run`` pauses the cyclic collector around its body and leaves
    ``gc.isenabled()`` as the caller had it."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        was = gc.isenabled()
        gc.enable()
        try:
            yield
        finally:
            if not was:
                gc.disable()

    def test_paused_inside_run_and_resumed_after(self):
        assert SerialRuntime().run(gc.isenabled) is False
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        SerialRuntime().run(lambda: None)
        assert not gc.isenabled()

    def test_resumed_when_the_callback_raises(self):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            SerialRuntime().run(boom)
        assert gc.isenabled()

    def test_overlapping_runs_on_two_threads(self):
        both_inside = threading.Barrier(2, timeout=10)
        first_done = threading.Event()
        seen = []

        def first():
            SerialRuntime().run(both_inside.wait)
            first_done.set()

        def second():
            def body():
                both_inside.wait()
                seen.append(first_done.wait(timeout=10))
                seen.append(gc.isenabled())

            SerialRuntime().run(body)

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        # The first exit did not resume the collector under the second.
        assert seen == [True, False]
        assert gc.isenabled()

    def test_nested_run_does_not_resume_early(self):
        def outer():
            SerialRuntime().run(lambda: None)
            return gc.isenabled()

        assert SerialRuntime().run(outer) is False
        assert gc.isenabled()

    @pytest.mark.parametrize("make_rt", [lambda: VirtualTimeRuntime(2),
                                         lambda: ThreadRuntime(2)],
                             ids=["vtime", "threads"])
    def test_other_runtimes_leave_the_collector_on(self, make_rt):
        assert make_rt().run(gc.isenabled) is True
        assert gc.isenabled()
