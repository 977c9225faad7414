"""Tests for the concurrent hash map (Listings 4–6 semantics).

The single-runtime cases run against both implementations: the classes
below use the locked :class:`ConcurrentHashMap`, their ``...SingleWriter``
subclasses re-run every case on :class:`SingleWriterMap`.
"""

import json
import sys
import threading

import pytest

from repro.core import parse_binary
from repro.core.cfg import Block
from repro.core.parallel_parser import ParallelParser
from repro.errors import RuntimeConfigError
from repro.runtime import (
    ConcurrentHashMap,
    ProcsRuntime,
    Runtime,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
)
from repro.runtime.conchash import SingleWriterMap
from repro.runtime.cost import CostModel
from repro.sanity.races import RaceDetector
from repro.synth.hostile import HOSTILE_PRESETS, hostile_binary

FREE = CostModel(spawn=0, task_pop=0, lock_handoff=0, map_op=0)


class TestBasicOperations:
    new_map = staticmethod(ConcurrentHashMap)

    def test_insert_if_absent(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            assert m.insert("a", 1)
            assert not m.insert("a", 2)
            assert m.get("a") == 1

        rt.run(body)

    def test_get_default(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            assert m.get("missing") is None
            assert m.get("missing", 7) == 7

        rt.run(body)

    def test_contains_and_len(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            m.insert(1, "x")
            m.insert(2, "y")
            assert 1 in m and 2 in m and 3 not in m
            assert len(m) == 2

        rt.run(body)

    def test_remove(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            m.insert("k", 1)
            assert m.remove("k")
            assert not m.remove("k")
            assert "k" not in m

        rt.run(body)

    def test_sorted_items_deterministic(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            for k in (5, 3, 9, 1):
                m.insert(k, k * 10)
            assert m.sorted_items() == [(1, 10), (3, 30), (5, 50), (9, 90)]
            assert m.sorted_items(key=lambda k: -k)[0] == (9, 90)

        rt.run(body)

    def test_iteration(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            for k in range(10):
                m.insert(k, k)
            assert sorted(m.keys()) == list(range(10))
            assert sorted(m.values()) == list(range(10))

        rt.run(body)

    def test_snapshot_api_is_ordered_and_detached(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            for k in (5, 3, 9):
                m.insert(k, k * 10)
            with m.accessor(7):
                pass                      # created, value never set
            assert sorted(m.items_snapshot()) == [(3, 30), (5, 50), (9, 90)]
            snap = m.snapshot()
            assert snap == {3: 30, 5: 50, 9: 90}
            m.insert(1, 10)
            assert 1 not in snap and len(m) == 4
            assert [k for k, _ in m.sorted_items()] == [1, 3, 5, 9]

        rt.run(body)

    def test_install_many_skips_charges_and_counts(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt, name="bulk")
            m.insert(1, "old")
            with m.accessor(2):
                pass                      # entry without a value: filled
            t0 = rt.now()
            made = m.install_many([(1, "new"), (2, "b"), (3, "c"), (3, "d")])
            assert made == 2
            assert rt.now() - t0 == 4 * rt.cost.map_op
            assert m.snapshot() == {1: "old", 2: "b", 3: "c"}

        rt.run(body)
        assert rt.metrics.counter("map.bulk.ops") == 1 + 1 + 4
        assert rt.metrics.counter("map.bulk.created") == 1 + 1 + 2
        assert rt.metrics.counter("map.bulk.acquires") == 1

    def test_every_operation_charges_one_map_op(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            m.insert("k", 1)
            m.insert("k", 2)
            with m.accessor("k"):
                pass
            with m.accessor("absent", create=False):
                pass
            m.remove("k")
            m.get("k")                    # reads are free
            assert "k" not in m

        rt.run(body)
        assert rt.makespan == 5 * rt.cost.map_op
        assert rt.metrics.counter("map.map.ops") == 5


class TestBasicOperationsSingleWriter(TestBasicOperations):
    new_map = staticmethod(SingleWriterMap)


class TestAccessor:
    new_map = staticmethod(ConcurrentHashMap)

    def test_created_flag(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with m.accessor("k") as acc:
                assert acc.created
                assert not acc.has_value
                acc.value = 10
            with m.accessor("k") as acc:
                assert not acc.created
                assert acc.value == 10

        rt.run(body)

    def test_read_before_set_raises(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with m.accessor("k") as acc:
                with pytest.raises(KeyError):
                    _ = acc.value

        rt.run(body)

    def test_accessor_no_create_on_missing(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with m.accessor("nope", create=False) as acc:
                assert acc is None
            assert "nope" not in m

        rt.run(body)

    def test_recursive_accessor_is_a_config_error(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with m.accessor("k") as acc:
                acc.value = 1
                with m.accessor("other") as inner:   # distinct keys nest
                    inner.value = 2
                with pytest.raises(RuntimeConfigError):
                    with m.accessor("k"):
                        pass
                assert acc.created and acc.value == 1
            with m.accessor("k") as acc:              # released on exit
                assert not acc.created

        rt.run(body)

    def test_exception_in_body_releases_the_entry(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with pytest.raises(ZeroDivisionError):
                with m.accessor("k") as acc:
                    acc.value = 1 / 0
            with m.accessor("k") as acc:
                assert not acc.created and not acc.has_value

        rt.run(body)

    def test_accessor_mutual_exclusion_vtime(self):
        """Two workers mutating one entry serialize in virtual time."""
        rt = VirtualTimeRuntime(2, cost_model=FREE)
        box = {}

        def bump():
            m = box["m"]
            with m.accessor("ctr") as acc:
                v = acc.value if acc.has_value else 0
                rt.charge(100)  # long critical section
                acc.value = v + 1

        def body():
            box["m"] = ConcurrentHashMap(rt)
            g = rt.task_group()
            g.spawn(bump)
            g.spawn(bump)
            g.wait()
            return box["m"].get("ctr")

        assert rt.run(body) == 2
        assert rt.makespan == 200  # serialized, not 100


class TestAccessorSingleWriter(TestAccessor):
    new_map = staticmethod(SingleWriterMap)
    #: needs workers that can meet — not a single-writer case.
    test_accessor_mutual_exclusion_vtime = None


class TestEnsure:
    """``ensure(key, make)`` is ``with accessor(key)`` plus ``make(key)``
    on creation, in one call: same values, charges and counters."""

    new_map = staticmethod(ConcurrentHashMap)
    KEYS = ["a", "b", "a", "c", "b", "a"]

    def _run(self, op):
        """Apply ``op(m, key, make)`` to KEYS on a fresh map; returns the
        results, the keys ``make`` saw, the clock and the counters."""
        rt = SerialRuntime()
        made = []

        def make(key):
            made.append(key)
            rt.charge(7)
            return key.upper()

        def body():
            m = self.new_map(rt, name="e")
            return [op(m, k, make) for k in self.KEYS]

        results = rt.run(body)
        counters = {n: rt.metrics.counter(f"map.e.{n}")
                    for n in ("ops", "created", "acquires")}
        return results, made, rt.now(), counters

    @staticmethod
    def _by_accessor(m, key, make):
        with m.accessor(key) as acc:
            if acc.created:
                acc.value = make(key)
                return acc.value, True
            return acc.value, False

    def test_same_values_clock_and_counters_as_the_accessor(self):
        assert self._run(lambda m, k, make: m.ensure(k, make)) == \
            self._run(self._by_accessor)

    def test_make_runs_once_per_created_key(self):
        results, made, _, counters = self._run(
            lambda m, k, make: m.ensure(k, make))
        assert made == ["a", "b", "c"]
        assert [created for _, created in results] == \
            [True, True, False, True, False, False]
        assert [v for v, _ in results] == ["A", "B", "A", "C", "B", "A"]
        assert counters == {"ops": 6, "created": 3, "acquires": 6}

    def test_ensure_on_a_held_key_is_a_config_error(self):
        rt = SerialRuntime()

        def body():
            m = self.new_map(rt)
            with m.accessor("k") as acc:
                acc.value = 1
                with pytest.raises(RuntimeConfigError):
                    m.ensure("k", lambda key: 2)
            assert m.ensure("k", lambda key: 2) == (1, False)

        rt.run(body)


class TestEnsureSingleWriter(TestEnsure):
    new_map = staticmethod(SingleWriterMap)


def _accessor_ensure_block(self, start):
    """``ParallelParser._ensure_block`` before ``ensure``, verbatim."""
    rt = self.rt
    with self.blocks_by_start.accessor(start) as acc:
        if acc.created:
            rt.charge(rt.cost.block_create)
            self._n_blocks.inc()
            acc.value = Block(start)
            return acc.value, True
        return acc.value, False


@pytest.mark.parametrize("preset", HOSTILE_PRESETS)
def test_vtime_block_creation_matches_the_accessor_path(preset,
                                                        monkeypatch):
    """On vtime the block's charge stays inside the entry lock: the
    makespan and every metric, lock waits and queue delays included,
    equal the accessor-based block creation's."""
    binary = hostile_binary(preset).binary
    seen = []
    for oracle in (False, True):
        with monkeypatch.context() as mp:
            if oracle:
                mp.setattr(ParallelParser, "_ensure_block",
                           _accessor_ensure_block)
            rt = VirtualTimeRuntime(4)
            cfg = parse_binary(binary, rt)
        seen.append((cfg.signature(), rt.makespan,
                     json.dumps(rt.metrics.snapshot(), sort_keys=True)))
    assert seen[0] == seen[1]


class TestInvariantUnderVirtualTime:
    def test_exactly_one_insert_wins(self):
        """Invariant 1: concurrent block creation at one address."""
        rt = VirtualTimeRuntime(8, cost_model=FREE)
        winners = []
        box = {}

        def attempt(i):
            rt.charge(i)  # desynchronize clocks
            if box["m"].insert(0x400, f"block-by-{i}"):
                winners.append(i)

        def body():
            box["m"] = ConcurrentHashMap(rt)
            g = rt.task_group()
            for i in range(8):
                g.spawn(attempt, i)
            g.wait()

        rt.run(body)
        assert len(winners) == 1

    def test_deterministic_winner(self):
        def go():
            rt = VirtualTimeRuntime(4, cost_model=FREE)
            box = {}
            won = []

            def attempt(i):
                rt.charge(10 - i)
                if box["m"].insert("k", i):
                    won.append(i)

            def body():
                box["m"] = ConcurrentHashMap(rt)
                g = rt.task_group()
                for i in range(4):
                    g.spawn(attempt, i)
                g.wait()

            rt.run(body)
            return won

        assert go() == go()


class TestThreadBackendStress:
    """Real threads hammering the map under a tiny switch interval."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(old)

    def test_insert_uniqueness_under_preemption(self):
        rt = ThreadRuntime(8)
        box = {}
        wins = []
        wins_lock = threading.Lock()

        def attempt(i):
            for k in range(50):
                if box["m"].insert(k, i):
                    with wins_lock:
                        wins.append(k)

        def body():
            box["m"] = ConcurrentHashMap(rt)
            g = rt.task_group()
            for i in range(8):
                g.spawn(attempt, i)
            g.wait()

        rt.run(body)
        assert sorted(wins) == list(range(50))  # each key created once

    def test_accessor_counter_no_lost_updates(self):
        rt = ThreadRuntime(8)
        box = {}

        def bump():
            m = box["m"]
            for _ in range(200):
                with m.accessor("ctr") as acc:
                    acc.value = (acc.value if acc.has_value else 0) + 1

        def body():
            box["m"] = ConcurrentHashMap(rt)
            g = rt.task_group()
            for _ in range(8):
                g.spawn(bump)
            g.wait()

        rt.run(body)
        assert box["m"].get("ctr") == 8 * 200

    def test_accessor_creation_publishes_value_atomically(self):
        """Regression (found by ``repro fuzz``): the creating accessor
        must hold the entry lock *at publication*.  Before the fix, the
        entry landed in the shard before the creator acquired its lock,
        so a losing accessor could acquire first and hit ``KeyError``
        reading the not-yet-assigned value — a schedule-dependent crash
        on the threads backend."""
        rt = ThreadRuntime(8)
        box = {}
        errors = []

        def racer(i):
            m = box["m"]
            try:
                for k in range(300):
                    with m.accessor(k) as acc:
                        if acc.created:
                            acc.value = ("v", k)
                        else:
                            # Losers must always see the creator's value.
                            assert acc.value == ("v", k)
            except Exception as e:  # pragma: no cover - the regression
                errors.append(e)

        def body():
            box["m"] = ConcurrentHashMap(rt)
            g = rt.task_group()
            for i in range(8):
                g.spawn(racer, i)
            g.wait()

        rt.run(body)
        assert not errors, errors


class TestThreadRuntime:
    def test_runs_tasks_and_returns(self):
        rt = ThreadRuntime(4)
        seen = []
        lock = threading.Lock()

        def task(i):
            with lock:
                seen.append(i)

        def body():
            g = rt.task_group()
            for i in range(20):
                g.spawn(task, i)
            g.wait()
            return "ok"

        assert rt.run(body) == "ok"
        assert sorted(seen) == list(range(20))
        assert rt.makespan > 0

    def test_exception_propagates(self):
        rt = ThreadRuntime(2)

        def body():
            g = rt.task_group()
            g.spawn(lambda: 1 / 0)
            g.wait()

        with pytest.raises((ZeroDivisionError, Exception)):
            rt.run(body)

    def test_worker_ids_in_range(self):
        rt = ThreadRuntime(4)
        ids = set()
        lock = threading.Lock()

        def task():
            with lock:
                ids.add(rt.worker_id())

        def body():
            g = rt.task_group()
            for _ in range(100):
                g.spawn(task)
            g.wait()

        rt.run(body)
        assert ids <= set(range(4))


class _RaceCheckedSerial(SerialRuntime):
    race_checking = True


class _LockedSerial(SerialRuntime):
    """Test-only: a serial runtime whose maps are the locked ones."""

    def make_map(self, name="map"):
        return Runtime.make_map(self, name)


class TestMakeMap:
    """The runtime, not an option, picks the implementation."""

    @pytest.mark.parametrize("make_rt", [
        SerialRuntime,
        lambda: SerialRuntime(enable_metrics=False),
        lambda: ProcsRuntime(2, in_process=True),
    ], ids=["serial", "serial-no-metrics", "procs"])
    def test_one_thread_runtimes_get_the_single_writer_map(self, make_rt):
        assert type(make_rt().make_map("x")) is SingleWriterMap

    @pytest.mark.parametrize("make_rt", [
        lambda: ThreadRuntime(2),
        lambda: VirtualTimeRuntime(1),
        lambda: VirtualTimeRuntime(4),
        lambda: VirtualTimeRuntime(2, race_detector=RaceDetector()),
        _RaceCheckedSerial,
        _LockedSerial,
    ], ids=["threads", "vtime1", "vtime4", "vtime-race-checking",
            "serial-race-checking", "serial-forced"])
    def test_everything_else_gets_the_locked_map(self, make_rt):
        assert type(make_rt().make_map("x")) is ConcurrentHashMap

    def test_name_labels_the_metrics(self):
        rt = SerialRuntime()
        rt.make_map("blocks").insert(1, 1)
        assert rt.metrics.counter("map.blocks.ops") == 1

    @pytest.mark.parametrize("preset", HOSTILE_PRESETS)
    def test_serial_parse_cannot_tell_the_maps_apart(self, preset):
        binary = hostile_binary(preset, seed=11).binary
        seen = []
        for rt in (SerialRuntime(), _LockedSerial()):
            cfg = parse_binary(binary, rt)
            seen.append((cfg.signature(), rt.makespan,
                         json.dumps(rt.metrics.snapshot(), sort_keys=True)))
        assert seen[0] == seen[1]


class TestFactory:
    def test_make_runtime(self):
        from repro.runtime import make_runtime

        assert make_runtime("serial", 1).num_workers == 1
        assert make_runtime("vtime", 4).num_workers == 4
        assert make_runtime("threads", 2).num_workers == 2
        with pytest.raises(ValueError):
            make_runtime("bogus", 1)
        with pytest.raises(ValueError):
            make_runtime("serial", 2)
