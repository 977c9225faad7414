"""Real-thread runtime backend.

Runs the same algorithm code as the virtual-time backend on a genuine
thread pool with real locks.  Under CPython's GIL this cannot reproduce the
paper's speedups (DESIGN.md discusses the substitution), but it serves two
purposes:

- concurrency-correctness testing: the five invariants of Section 5.2 must
  hold under true preemption (tests shrink ``sys.setswitchinterval`` to
  provoke races);
- wall-clock sanity for I/O-free workloads.

``now()`` is the wall clock (integer ns since ``run`` began), the unit of
phases, ``makespan`` and metric timings; ``charge`` advances nothing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.errors import RuntimeConfigError
from repro.runtime.api import Runtime, RtLock, TaskGroup
from repro.runtime.cost import DEFAULT_COSTS, CostModel
from repro.runtime.metrics import NULL_METRICS, MetricsRegistry


class _RealLock(RtLock):
    __slots__ = ("_lock", "_m")

    def __init__(self, metrics: MetricsRegistry = NULL_METRICS) -> None:
        self._lock = threading.Lock()
        self._m = metrics

    def acquire(self) -> None:
        m = self._m
        if not m.enabled:
            self._lock.acquire()
            return
        m.inc("lock.acquires")
        if self._lock.acquire(blocking=False):
            return
        # Contended: time the park in wall nanoseconds.
        m.inc("lock.contended")
        t0 = m.clock()
        self._lock.acquire()
        m.observe("lock.park", m.clock() - t0)

    def release(self) -> None:
        self._lock.release()


class _ThreadGroup(TaskGroup):
    __slots__ = ("_rt", "_pending")

    def __init__(self, rt: "ThreadRuntime"):
        self._rt = rt
        self._pending = 0

    def spawn(self, fn: Callable[..., Any], *args: Any) -> None:
        rt = self._rt
        m = rt.metrics
        m.inc("rt.tasks_spawned")
        with rt._mon:
            if rt._error is not None:
                raise RuntimeConfigError("runtime aborted") from rt._error
            self._pending += 1
            rt._queue.append((self, fn, args, m.clock() if m.enabled else 0))
            rt._mon.notify_all()

    def wait(self) -> None:
        rt = self._rt
        m = rt.metrics
        while True:
            with rt._mon:
                if rt._error is not None:
                    raise RuntimeConfigError("runtime aborted") from rt._error
                if self._pending == 0:
                    return
                if rt._queue:
                    item = rt._queue.popleft()
                else:
                    if m.enabled:
                        with m.timer("rt.group_wait"):
                            rt._mon.wait()
                    else:
                        rt._mon.wait()
                    continue
            rt._execute(item)


class ThreadRuntime(Runtime):
    """A help-first thread pool behind the Runtime interface."""

    backend = "threads"
    time_unit = "ns"

    def __init__(self, n_workers: int, cost_model: CostModel | None = None,
                 enable_metrics: bool = True):
        if n_workers < 1:
            raise RuntimeConfigError("need at least one worker")
        self.num_workers = n_workers
        self.cost = cost_model or DEFAULT_COSTS
        self.trace = None
        self._t0 = time.perf_counter_ns()
        self._makespan: int | None = None
        self.metrics = (MetricsRegistry(self.time_unit, clock=self.now)
                        if enable_metrics else NULL_METRICS)
        self._mon = threading.Condition()
        self._queue: deque[
            tuple[_ThreadGroup, Callable[..., Any], tuple, int]] = deque()
        self._stop = False
        self._error: BaseException | None = None
        self._local = threading.local()
        self._ran = False

    # -- accounting -----------------------------------------------------------

    def charge(self, units: int) -> None:
        pass

    def now(self) -> int:
        return time.perf_counter_ns() - self._t0

    def worker_id(self) -> int:
        try:
            return self._local.wid
        except AttributeError:
            raise RuntimeConfigError(
                "runtime API called from outside run()"
            ) from None

    def make_lock(self) -> RtLock:
        return _RealLock(self.metrics)

    def make_internal_lock(self) -> RtLock:
        # Internal shard locks are deliberately uncounted: the vtime
        # backend models them as free no-ops, so counting them here would
        # make `lock.*` metrics incomparable across backends.
        return _RealLock()

    def task_group(self) -> TaskGroup:
        return _ThreadGroup(self)

    # -- execution ----------------------------------------------------------------

    def _execute(self,
                 item: tuple[_ThreadGroup, Callable[..., Any], tuple, int]
                 ) -> None:
        group, fn, args, spawned_at = item
        m = self.metrics
        if m.enabled:
            m.inc("rt.tasks_executed")
            m.observe("rt.task_queue_delay", m.clock() - spawned_at)
        try:
            fn(*args)
        except BaseException as exc:
            with self._mon:
                if self._error is None:
                    self._error = exc
                group._pending -= 1
                self._mon.notify_all()
            return
        with self._mon:
            group._pending -= 1
            self._mon.notify_all()

    def _worker_main(self, wid: int) -> None:
        self._local.wid = wid
        m = self.metrics
        while True:
            with self._mon:
                idle_from = None
                while not self._queue and not self._stop \
                        and self._error is None:
                    if m.enabled and idle_from is None:
                        idle_from = m.clock()
                    self._mon.wait()
                if idle_from is not None:
                    m.observe("rt.idle", m.clock() - idle_from)
                if (self._stop and not self._queue) or self._error is not None:
                    return
                item = self._queue.popleft()
            self._execute(item)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        if self._ran:
            raise RuntimeConfigError("runtime instances are single-use")
        self._ran = True
        self._local.wid = 0
        threads = [
            threading.Thread(target=self._worker_main, args=(i,),
                             daemon=True, name=f"rt-worker-{i}")
            for i in range(1, self.num_workers)
        ]
        self._t0 = time.perf_counter_ns()
        for t in threads:
            t.start()
        result = None
        err: BaseException | None = None
        try:
            result = fn(*args)
        except BaseException as exc:
            err = exc
        with self._mon:
            if err is not None and self._error is None:
                self._error = err
            self._stop = True
            self._mon.notify_all()
        for t in threads:
            t.join()
        self._makespan = self.now()
        if self._error is not None:
            raise self._error
        return result

    @property
    def makespan(self) -> int:
        if self._makespan is None:
            raise RuntimeConfigError("makespan available only after run()")
        return self._makespan
