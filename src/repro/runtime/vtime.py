"""Deterministic virtual-time parallel runtime.

This backend is the reproduction's substitute for real hardware threads
(see DESIGN.md): it executes the parallel algorithms on N *simulated*
workers whose clocks advance by cost-model charges, and reports the
simulated makespan from which all speedup curves are computed.

Execution model
---------------
Workers are real OS threads, but exactly one executes at a time (token
passing), so execution is fully serialized and deterministic under the GIL.
Workers' *virtual clocks* advance independently, so the simulated timeline
is genuinely parallel.  "Events" — task spawn/pop/completion, lock
acquire/release, explicit checkpoints — are global order points: the
scheduler guarantees events execute in nondecreasing virtual-time order
(ties broken by worker id).  Between events a worker runs local code that
touches no cross-worker shared state (the discipline documented in
:mod:`repro.runtime.api`), so local code commutes with other workers'
events and the serialization is sound.

Blocking is modeled faithfully:

- a contended :class:`SimLock` parks the acquirer until the virtual release
  time (plus a configurable handoff cost) — this is how the paper's
  accessor-lock contention and non-returning dependency serialization show
  up in the measured curves;
- an empty task queue parks a worker as idle; its clock jumps forward to
  the spawn time of the next task it receives — this is load imbalance;
- a task-group wait parks the owner until the last task completes, jumping
  its clock to the completion time — this is fork-join synchronization.

Same seed + same worker count ⇒ bit-identical execution.  Different worker
counts must yield the identical final CFG (tested); only the makespan
changes.
"""

from __future__ import annotations

import enum
import random
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import RuntimeConfigError, SimDeadlockError
from repro.runtime.api import Runtime, RtLock, TaskGroup, Trace, TraceInterval
from repro.runtime.cost import DEFAULT_COSTS, CostModel
from repro.runtime.metrics import NULL_METRICS, MetricsRegistry


class _State(enum.Enum):
    RUNNING = "running"      # holds the token (at most one)
    EVENT = "event"          # parked at an order point, resumable
    IDLE = "idle"            # waiting for a task
    BLOCK_LOCK = "lock"      # waiting on a SimLock
    BLOCK_GROUP = "group"    # waiting on a TaskGroup
    NEW = "new"              # not yet started
    DONE = "done"


class _Worker:
    __slots__ = ("wid", "rank", "clock", "busy", "state", "cond", "thread")

    def __init__(self, wid: int, mon: threading.Lock):
        self.wid = wid
        self.rank = wid  # tie-break rank; permuted under a schedule seed
        self.clock = 0
        self.busy = 0
        self.state = _State.NEW
        self.cond = threading.Condition(mon)
        self.thread: threading.Thread | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.clock, self.rank)


@dataclass(slots=True)
class _Task:
    fn: Callable[..., Any]
    args: tuple
    group: "_VtGroup"
    spawn_clock: int
    tag: str
    race_token: Any = None


class _NoOpLock(RtLock):
    """Internal-structure lock: execution is token-serialized, so no-op."""

    def acquire(self) -> None:
        pass

    def release(self) -> None:
        pass


class _ObservedNoOpLock(RtLock):
    """Internal lock that reports acquire/release to a race detector.

    Execution stays token-serialized (no blocking needed), but the
    detector must still see the happens-before edges these sections
    create — e.g. a map shard lock ordering entry creation before a
    later lock-free ``get`` of the same shard.
    """

    __slots__ = ("_rt",)

    def __init__(self, rt: "VirtualTimeRuntime"):
        self._rt = rt

    def acquire(self) -> None:
        rt = self._rt
        w = getattr(rt._local, "worker", None)
        if w is not None:
            rt._race.on_acquire(w.wid, id(self))

    def release(self) -> None:
        rt = self._rt
        w = getattr(rt._local, "worker", None)
        if w is not None:
            rt._race.on_release(w.wid, id(self))


class SimLock(RtLock):
    """A contention-modeled mutex in virtual time."""

    __slots__ = ("_rt", "_owner", "_waiters")

    def __init__(self, rt: "VirtualTimeRuntime"):
        self._rt = rt
        self._owner: int | None = None
        self._waiters: list[_Worker] = []

    def acquire(self) -> None:
        rt = self._rt
        w = rt._me()
        with rt._mon:
            rt._event(w)
            rt.metrics.inc("lock.acquires")
            if self._owner is None:
                self._owner = w.wid
                if rt._race is not None:
                    rt._race.on_acquire(w.wid, id(self))
                return
            if self._owner == w.wid:
                raise RuntimeConfigError("recursive SimLock acquisition")
            rt.metrics.inc("lock.contended")
            parked_at = w.clock
            w.state = _State.BLOCK_LOCK
            self._waiters.append(w)
            rt._reschedule()
            rt._wait_for_token(w)
            # Resumed by release(): we are the owner now.
            assert self._owner == w.wid
            if rt._race is not None:
                rt._race.on_acquire(w.wid, id(self))
            rt.metrics.observe("lock.park", w.clock - parked_at)

    def release(self) -> None:
        rt = self._rt
        w = rt._me()
        with rt._mon:
            if self._owner != w.wid:
                raise RuntimeConfigError("SimLock released by non-owner")
            rt._event(w)
            if rt._race is not None:
                rt._race.on_release(w.wid, id(self))
            if self._waiters:
                nxt = min(self._waiters, key=lambda x: x.key)
                self._waiters.remove(nxt)
                nxt.clock = max(nxt.clock, w.clock) + rt.cost.lock_handoff
                nxt.state = _State.EVENT
                self._owner = nxt.wid
            else:
                self._owner = None


class _VtGroup(TaskGroup):
    __slots__ = ("_rt", "_pending", "_completion", "_waiters")

    def __init__(self, rt: "VirtualTimeRuntime"):
        self._rt = rt
        self._pending = 0
        self._completion = 0
        self._waiters: list[_Worker] = []

    def spawn(self, fn: Callable[..., Any], *args: Any) -> None:
        rt = self._rt
        w = rt._me()
        with rt._mon:
            rt._event(w)
            w.clock += rt.cost.spawn + rt._jitter()
            w.busy += rt.cost.spawn
            rt.metrics.inc("rt.tasks_spawned")
            self._pending += 1
            token = (rt._race.on_spawn(w.wid)
                     if rt._race is not None else None)
            rt._queue.append(_Task(fn, args, self, w.clock,
                                   getattr(fn, "__name__", "task"),
                                   token))
            rt._wake_idle(w.clock)

    def wait(self) -> None:
        rt = self._rt
        w = rt._me()
        while True:
            with rt._mon:
                rt._event(w)
                if self._pending == 0:
                    w.clock = max(w.clock, self._completion)
                    if rt._race is not None:
                        rt._race.on_group_wait(w.wid, id(self))
                    return
                if rt._queue:
                    task = rt._pop_task(w)
                else:
                    parked_at = w.clock
                    w.state = _State.BLOCK_GROUP
                    self._waiters.append(w)
                    rt._reschedule()
                    rt._wait_for_token(w)
                    rt.metrics.observe("rt.group_wait",
                                       w.clock - parked_at)
                    continue
            rt._run_task(w, task)

    # Called with the monitor held, by the worker finishing a member task.
    def _task_done(self, rt: "VirtualTimeRuntime", w: _Worker) -> None:
        if rt._race is not None:
            rt._race.on_task_done(w.wid, id(self))
        self._pending -= 1
        if self._pending == 0:
            self._completion = max(self._completion, w.clock)
            for waiter in self._waiters:
                waiter.clock = max(waiter.clock, w.clock)
                waiter.state = _State.EVENT
            self._waiters.clear()


class VirtualTimeRuntime(Runtime):
    """See module docstring."""

    backend = "vtime"
    time_unit = "cycles"

    def __init__(
        self,
        n_workers: int,
        cost_model: CostModel | None = None,
        enable_trace: bool = False,
        enable_metrics: bool = True,
        schedule_seed: int | None = None,
        race_detector: "Any | None" = None,
    ):
        if n_workers < 1:
            raise RuntimeConfigError("need at least one worker")
        self.num_workers = n_workers
        self.cost = cost_model or DEFAULT_COSTS
        self.trace = Trace(n_workers) if enable_trace else None
        self.metrics = (MetricsRegistry(self.time_unit, clock=self.now)
                        if enable_metrics else NULL_METRICS)
        self._mon = threading.Lock()
        self._workers = [_Worker(i, self._mon) for i in range(n_workers)]
        # Schedule sweeping: a seed deterministically perturbs the
        # schedule (tie-break ranks + small spawn/pop clock jitter)
        # without changing any charged work, so a sweep over seeds
        # explores distinct interleavings while every individual run
        # stays bit-reproducible.  Seed None keeps the historical
        # schedule exactly (jitter 0, rank == wid).
        self.schedule_seed = schedule_seed
        self._rng: random.Random | None = None
        if schedule_seed is not None:
            self._rng = random.Random(schedule_seed)
            ranks = list(range(n_workers))
            self._rng.shuffle(ranks)
            for w, r in zip(self._workers, ranks):
                w.rank = r
        self._race = race_detector
        self.race_checking = race_detector is not None
        self._queue: deque[_Task] = deque()
        self._current: int | None = None
        self._stop = False
        self._error: BaseException | None = None
        self._max_clock = 0
        self._ran = False
        self._finished = False
        self._local = threading.local()

    # ------------------------------------------------------------------ public

    def charge(self, units: int) -> None:
        w = self._me()
        w.clock += units
        w.busy += units

    def now(self) -> int:
        return self._me().clock

    def worker_id(self) -> int:
        return self._me().wid

    def make_lock(self) -> RtLock:
        return SimLock(self)

    def make_internal_lock(self) -> RtLock:
        if self._race is not None:
            return _ObservedNoOpLock(self)
        return _NoOpLock()

    def race_read(self, loc: tuple) -> None:
        if self._race is not None:
            w = getattr(self._local, "worker", None)
            if w is not None:
                self._race.read(w.wid, loc)

    def race_write(self, loc: tuple) -> None:
        if self._race is not None:
            w = getattr(self._local, "worker", None)
            if w is not None:
                self._race.write(w.wid, loc)

    def _jitter(self) -> int:
        """Seeded schedule perturbation (0 without a schedule seed)."""
        rng = self._rng
        return rng.randrange(0, 4) if rng is not None else 0

    def checkpoint(self) -> None:
        """Explicit virtual-time order point (see parallel_for)."""
        w = self._me()
        with self._mon:
            self._event(w)

    def task_group(self) -> TaskGroup:
        return _VtGroup(self)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        if self._ran:
            raise RuntimeConfigError("runtime instances are single-use")
        self._ran = True
        if self._race is not None:
            self._race.begin_run(self.num_workers, self.schedule_seed)
        w0 = self._workers[0]
        self._local.worker = w0
        for w in self._workers[1:]:
            t = threading.Thread(target=self._worker_main, args=(w,),
                                 daemon=True, name=f"vt-worker-{w.wid}")
            w.thread = t
        with self._mon:
            w0.state = _State.RUNNING
            self._current = 0
        for w in self._workers[1:]:
            assert w.thread is not None
            w.thread.start()
        result = None
        try:
            result = fn(*args)
        except BaseException as exc:
            with self._mon:
                self._fail(exc)
        # Orderly shutdown: retire worker 0 and let remaining events drain.
        with self._mon:
            self._max_clock = max(self._max_clock, w0.clock)
            w0.state = _State.DONE
            if self._current == 0:
                self._reschedule()
        for w in self._workers[1:]:
            assert w.thread is not None
            w.thread.join()
        self._finished = True
        if self._race is not None:
            self._race.end_run()
        if self._error is not None:
            raise self._error
        return result

    @property
    def makespan(self) -> int:
        if not self._finished:
            raise RuntimeConfigError("makespan available only after run()")
        return self._max_clock

    @property
    def total_busy(self) -> int:
        """Total charged worker-cycles (for utilization reporting)."""
        return sum(w.busy for w in self._workers)

    def utilization(self) -> float:
        """Fraction of aggregate worker capacity that did useful work."""
        if self.makespan == 0:
            return 1.0
        return self.total_busy / (self.num_workers * self.makespan)

    # --------------------------------------------------------------- scheduling

    def _me(self) -> _Worker:
        try:
            return self._local.worker
        except AttributeError:
            raise RuntimeConfigError(
                "runtime API called from outside run()"
            ) from None

    def _min_event_worker(self) -> _Worker | None:
        best: _Worker | None = None
        for w in self._workers:
            if w.state is _State.EVENT and (best is None or w.key < best.key):
                best = w
        return best

    def _event(self, w: _Worker) -> None:
        """Order point: yield to any resumable worker earlier in virtual time.

        Must be called with the monitor held; returns with ``w`` holding the
        token and no parked event earlier than ``w.key``.
        """
        if self._error is not None:
            raise RuntimeConfigError("runtime aborted") from self._error
        if w.clock > self._max_clock:
            self._max_clock = w.clock
        while True:
            best = self._min_event_worker()
            if best is None or best.key >= w.key:
                return
            w.state = _State.EVENT
            self._grant(best)
            self._wait_for_token(w)

    def _grant(self, w: _Worker) -> None:
        self._current = w.wid
        w.cond.notify()

    def _wait_for_token(self, w: _Worker) -> None:
        """Park until granted the token (monitor held)."""
        while self._current != w.wid:
            if self._error is not None:
                raise RuntimeConfigError("runtime aborted") from self._error
            w.cond.wait()
        w.state = _State.RUNNING
        if w.clock > self._max_clock:
            self._max_clock = w.clock

    def _reschedule(self) -> None:
        """Hand the token to the earliest parked event worker, if any.

        Called (monitor held) when the current worker stops being runnable.
        """
        best = self._min_event_worker()
        if best is not None:
            self._grant(best)
            return
        self._current = None
        self._check_stall()

    def _check_stall(self) -> None:
        """No runnable worker: decide between shutdown and deadlock."""
        blocked = [w for w in self._workers
                   if w.state in (_State.BLOCK_LOCK, _State.BLOCK_GROUP)]
        if blocked:
            self._fail(SimDeadlockError(
                f"workers {[w.wid for w in blocked]} blocked with no "
                f"runnable worker"
            ))
            return
        # Everyone is IDLE or DONE and the queue must be empty (pushes wake
        # idle workers); tell idle workers to exit.
        self._stop = True
        for w in self._workers:
            if w.state is _State.IDLE:
                w.cond.notify()

    def _fail(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        self._stop = True
        for w in self._workers:
            w.cond.notify()

    def _wake_idle(self, push_clock: int) -> None:
        """Move idle workers to the event set after a task push."""
        for w in self._workers:
            if w.state is _State.IDLE:
                if push_clock > w.clock:
                    # The clock jump is exactly the worker's starved time.
                    self.metrics.observe("rt.idle", push_clock - w.clock)
                    w.clock = push_clock
                w.state = _State.EVENT

    def _pop_task(self, w: _Worker) -> _Task:
        task = self._queue.popleft()
        m = self.metrics
        if m.enabled:
            m.inc("rt.tasks_executed")
            m.observe("rt.task_queue_delay",
                      max(w.clock, task.spawn_clock) - task.spawn_clock)
        w.clock = max(w.clock, task.spawn_clock) + self.cost.task_pop \
            + self._jitter()
        w.busy += self.cost.task_pop
        return task

    def _run_task(self, w: _Worker, task: _Task) -> None:
        start = w.clock
        if self._race is not None:
            self._race.on_task_start(w.wid, task.race_token)
        try:
            task.fn(*task.args)
        except BaseException as exc:
            with self._mon:
                self._fail(exc)
                task.group._task_done(self, w)
            return
        with self._mon:
            self._event(w)
            if self.trace is not None:
                self.trace.intervals.append(
                    TraceInterval(w.wid, start, w.clock, task.tag)
                )
            task.group._task_done(self, w)

    def _next_task(self, w: _Worker) -> _Task | None:
        with self._mon:
            if w.state is _State.RUNNING:
                self._event(w)
            elif w.state is _State.NEW:
                # Fresh worker: work may have been queued before we came up.
                if self._queue:
                    w.state = _State.EVENT
                    if self._current is None:
                        self._reschedule()
                    self._wait_for_token(w)
                else:
                    w.state = _State.IDLE
            while True:
                if w.state is _State.RUNNING:
                    if self._stop or self._error is not None:
                        return None
                    if self._queue:
                        return self._pop_task(w)
                    w.state = _State.IDLE
                    self._reschedule()
                # Parked idle (fresh workers enter here directly): wait to
                # be woken into the event set or told to stop.
                while w.state is _State.IDLE and not self._stop \
                        and self._error is None:
                    w.cond.wait()
                if w.state is _State.EVENT:
                    self._wait_for_token(w)
                else:
                    return None

    def _worker_main(self, w: _Worker) -> None:
        self._local.worker = w
        while True:
            task = self._next_task(w)
            if task is None:
                break
            self._run_task(w, task)
        with self._mon:
            self._max_clock = max(self._max_clock, w.clock)
            w.state = _State.DONE
            if self._current == w.wid:
                self._reschedule()
