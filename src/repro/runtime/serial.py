"""Single-worker runtime: the serial baseline backend.

Tasks execute immediately-ish (FIFO from a local queue at group waits);
``charge`` advances a single virtual clock.  Used by the serial reference
parser and as the 1-worker sanity point of every speedup curve (the
virtual-time backend with one worker produces identical clocks — a tested
property).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.errors import RuntimeConfigError
from repro.runtime.api import Runtime, RtLock, TaskGroup
from repro.runtime.conchash import SingleWriterMap
from repro.runtime.cost import DEFAULT_COSTS, CostModel
from repro.runtime.metrics import NULL_METRICS, MetricsRegistry


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

    def __init__(self, cost_model: CostModel | None = None,
                 enable_metrics: bool = True) -> None:
        self.num_workers = 1
        self.cost = cost_model or DEFAULT_COSTS
        self._clock = 0
        # One worker, one thread: the registry may hand out unlocked
        # counter handles.
        self.metrics = (MetricsRegistry("cycles", clock=lambda: self._clock,
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
