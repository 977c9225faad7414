"""Single-worker runtime: the serial baseline backend.

Tasks execute immediately-ish (FIFO from a local queue at group waits);
``charge`` advances a single virtual clock.  Used by the serial reference
parser and as the 1-worker sanity point of every speedup curve (the
virtual-time backend with one worker produces identical clocks — a tested
property).

``run`` builds the CFG with Python's cyclic collector paused
(:data:`COLLECTOR_PAUSE`): the expansion phase only adds objects, so an
automatic collection during a parse scans a growing heap and frees
nothing.  A dropped parse is freed by reference counting instead
(:meth:`repro.core.cfg.ParsedCFG.release` breaks its block/edge cycles).
"""

from __future__ import annotations

import gc
import os
import threading
import weakref
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.errors import RuntimeConfigError
from repro.runtime.api import Runtime, RtLock, TaskGroup
from repro.runtime.conchash import SingleWriterMap
from repro.runtime.cost import DEFAULT_COSTS, CostModel
from repro.runtime.metrics import NULL_METRICS, MetricsRegistry


class _CollectorPause:
    """Context manager: the automatic cyclic collector is off while any
    one-thread runtime is inside ``run``.

    Reentrant and thread-safe, because corpus attempts run parses on
    concurrent supervisor threads: one depth count under a lock.  The
    first entry disables the collector only if it is enabled; the last
    exit (also on an exception) re-enables it only if this pause
    disabled it, so ``gc.isenabled()`` after a ``run`` is what it was
    before.
    """

    def __init__(self) -> None:
        self._reset()
        # A forked child runs none of its parent's ``run`` calls: it
        # starts unpaused, with a lock no parent thread can be holding.
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._disabled = False

    def _after_fork(self) -> None:
        if self._disabled:
            gc.enable()
        self._reset()

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0 and gc.isenabled():
                gc.disable()
                self._disabled = True
            self._depth += 1

    def __exit__(self, *exc: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._disabled:
                self._disabled = False
                gc.enable()


#: The process's one collector pause (the collector is process state).
COLLECTOR_PAUSE = _CollectorPause()


class _NullLock(RtLock):
    """Uncontended lock for a single worker; detects self-deadlock."""

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held = False

    def acquire(self) -> None:
        if self._held:
            raise RuntimeConfigError(
                "serial runtime: recursive acquisition of a non-reentrant lock"
            )
        self._held = True

    def release(self) -> None:
        if not self._held:
            raise RuntimeConfigError("serial runtime: release of unheld lock")
        self._held = False


class _SerialGroup(TaskGroup):
    __slots__ = ("_rt", "_pending")

    def __init__(self, rt: "SerialRuntime") -> None:
        self._rt = rt
        self._pending = 0

    def spawn(self, fn: Callable[..., Any], *args: Any) -> None:
        rt = self._rt
        rt.charge(rt.cost.spawn)
        rt._spawned.n += 1
        self._pending += 1
        rt._queue.append((self, fn, args, rt._clock))

    def wait(self) -> None:
        rt = self._rt
        while self._pending > 0:
            if not rt._queue:
                raise RuntimeConfigError(
                    "serial runtime: group wait with no runnable tasks"
                )
            group, fn, args, spawned_at = rt._queue.popleft()
            rt._note_pop(spawned_at)
            rt.charge(rt.cost.task_pop)
            try:
                fn(*args)
            finally:
                group._pending -= 1


class SerialRuntime(Runtime):
    """One worker, one clock; see module docstring."""

    backend = "serial"
    time_unit = "cycles"

    def __init__(self, cost_model: CostModel | None = None,
                 enable_metrics: bool = True) -> None:
        self.num_workers = 1
        self.cost = cost_model or DEFAULT_COSTS
        self._clock = 0
        # One worker, one thread: the registry may hand out unlocked
        # counter handles.  It reads the clock through a weak reference,
        # so runtime and registry form no cycle and a dropped runtime
        # (with everything it holds) is freed by reference counting.
        me = weakref.ref(self)
        self.metrics = (MetricsRegistry(self.time_unit, lambda: me()._clock,
                                        single_writer=True)
                        if enable_metrics else NULL_METRICS)
        self._spawned = self.metrics.bind("rt.tasks_spawned")
        self._executed = self.metrics.bind("rt.tasks_executed")
        self._queue: deque[
            tuple[_SerialGroup, Callable[..., Any], tuple, int]] = deque()
        self._ran = False

    def _note_pop(self, spawned_at: int) -> None:
        m = self.metrics
        if m.enabled:
            self._executed.n += 1
            m.observe("rt.task_queue_delay", self._clock - spawned_at)

    def charge(self, units: int) -> None:
        self._clock += units

    def now(self) -> int:
        return self._clock

    def worker_id(self) -> int:
        return 0

    def make_lock(self) -> RtLock:
        return _NullLock()

    def make_internal_lock(self) -> RtLock:
        return _NullLock()

    def make_map(self, name: str = "map"):
        # Nothing to lock against — unless a subclass runs under the
        # race detector, whose annotations only the locked map carries.
        if self.race_checking:
            return super().make_map(name)
        return SingleWriterMap(self, name=name)

    def task_group(self) -> TaskGroup:
        return _SerialGroup(self)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        if self._ran:
            raise RuntimeConfigError("runtime instances are single-use")
        self._ran = True
        with COLLECTOR_PAUSE:
            result = fn(*args)
            # Drain detached tasks spawned outside any awaited group.
            while self._queue:
                group, f, a, spawned_at = self._queue.popleft()
                self._note_pop(spawned_at)
                self.charge(self.cost.task_pop)
                try:
                    f(*a)
                finally:
                    group._pending -= 1
        return result

    @property
    def makespan(self) -> int:
        return self._clock
