"""Backend-independent runtime interface.

Algorithm code (the parallel CFG parser, hpcstruct, BinFeat) is written once
against this interface and runs unchanged on the serial, real-thread and
virtual-time backends.  The interface deliberately mirrors the programming
model the paper uses: OpenMP-style tasks with groups (Section 6.3 replaces
``parallel for`` with task parallelism), dynamic parallel-for with sorted
items (Listing 7), and entry-level locks (Listings 4–6).

Shared-state discipline
-----------------------
All mutation of cross-task shared state must happen while holding a lock
obtained from :meth:`Runtime.make_lock` (or inside an accessor of a map
from :meth:`Runtime.make_map`, which is the same thing).  The virtual-time backend serializes execution and orders these
critical sections in virtual time; the thread backend runs them under real
locks.  Code that follows the discipline behaves identically on both.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.runtime.metrics import NULL_METRICS, MetricsRegistry

if TYPE_CHECKING:
    from repro.runtime.conchash import SharedMap


class RtLock(abc.ABC):
    """A mutual-exclusion lock usable as a context manager."""

    @abc.abstractmethod
    def acquire(self) -> None: ...

    @abc.abstractmethod
    def release(self) -> None: ...

    def __enter__(self) -> "RtLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class TaskGroup(abc.ABC):
    """A dynamic set of tasks awaited together (OpenMP taskgroup analog).

    Tasks may spawn further tasks into their own group, which is how the
    parallel parser implements "launch a new task as soon as we discover a
    new function to analyze" (Section 6.3).
    """

    @abc.abstractmethod
    def spawn(self, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue ``fn(*args)`` as a task of this group."""

    @abc.abstractmethod
    def wait(self) -> None:
        """Block until every task of the group (incl. descendants) is done.

        The waiting worker participates in executing queued tasks while it
        waits (help-first semantics), so a group wait never idles a worker
        that could be doing work.
        """


@dataclass(frozen=True, slots=True)
class TraceInterval:
    """One traced activity interval of one worker (for Figure 2)."""

    worker: int
    start: int
    end: int
    tag: str


@dataclass(slots=True)
class PhaseSpan:
    """Virtual-time span of a named application phase
    (:meth:`Runtime.phase` sets ``end`` when the phase exits)."""

    name: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Trace:
    """Execution trace collected by the virtual-time runtime."""

    n_workers: int
    intervals: list[TraceInterval] = field(default_factory=list)
    phases: list[PhaseSpan] = field(default_factory=list)

    def phase_span(self, name: str) -> PhaseSpan:
        """The first phase span with the given name."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def busy_in(self, start: int, end: int) -> int:
        """Total busy worker-cycles overlapping [start, end)."""
        total = 0
        for iv in self.intervals:
            lo = max(iv.start, start)
            hi = min(iv.end, end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, span: PhaseSpan) -> float:
        """Fraction of worker capacity busy during a phase span."""
        cap = self.n_workers * max(span.duration, 1)
        return self.busy_in(span.start, span.end) / cap


class Runtime(abc.ABC):
    """Execution backend: workers, tasks, locks, virtual or real time."""

    # Subclasses set these in __init__.
    num_workers: int
    cost: Any  # CostModel

    #: Structured metrics registry (see :mod:`repro.runtime.metrics`).
    #: Backends replace this with a live registry unless constructed with
    #: ``enable_metrics=False``; recording is pure observation and never
    #: perturbs virtual time.
    metrics: MetricsRegistry = NULL_METRICS

    # -- accounting -----------------------------------------------------------

    @abc.abstractmethod
    def charge(self, units: int) -> None:
        """Account ``units`` cycles of work to the calling worker."""

    @abc.abstractmethod
    def now(self) -> int:
        """Current clock of the calling worker (cycles)."""

    @abc.abstractmethod
    def worker_id(self) -> int:
        """Stable id of the calling worker, in ``range(num_workers)``."""

    # -- race-detector hooks -----------------------------------------------------

    #: True only when a backend is running under a happens-before race
    #: detector (see :mod:`repro.sanity.races`).  Instrumented shared
    #: structures check this flag before paying any annotation cost.
    race_checking: bool = False

    def race_read(self, loc: tuple) -> None:
        """Report a read of the shared location ``loc`` to the detector.

        No-op unless :attr:`race_checking` is set by the backend.  ``loc``
        is an arbitrary hashable identity, conventionally a tuple like
        ``("map", <name>, <key>)``.
        """

    def race_write(self, loc: tuple) -> None:
        """Report a write of the shared location ``loc`` to the detector."""

    # -- synchronization ---------------------------------------------------------

    @abc.abstractmethod
    def make_lock(self) -> RtLock:
        """A contention-modeled lock for shared-state critical sections."""

    @abc.abstractmethod
    def make_internal_lock(self) -> RtLock:
        """A lock for brief structure-internal sections (map shards).

        On the virtual-time backend this can be a no-op (execution is
        serialized); on the thread backend it is a real lock.
        """

    def make_map(self, name: str = "map") -> "SharedMap":
        """A shared map with insert-if-absent and entry-level accessors
        (Listings 4–6); its operations are counted as ``map.<name>.*``.

        This is the one place that decides which implementation a
        runtime's shared tables get.  The default is the locked,
        sharded, race-annotated :class:`ConcurrentHashMap` — the only
        correct one when workers are real or simulated threads, and the
        one the race detector's annotations live in.  A runtime that is
        one thread by construction overrides this to hand out the
        :class:`~repro.runtime.conchash.SingleWriterMap` instead.
        """
        from repro.runtime.conchash import ConcurrentHashMap

        return ConcurrentHashMap(self, name=name)

    # -- tasking -----------------------------------------------------------------

    def checkpoint(self) -> None:
        """Virtual-time order point; no-op on real-time backends.

        Long-running loops that interact with shared state only through
        plain charges should call this periodically so the virtual-time
        backend can interleave workers at the right simulated instants.
        """

    @abc.abstractmethod
    def task_group(self) -> TaskGroup:
        """Create a new task group owned by the calling worker."""

    def parallel_for(
        self,
        items: Iterable[Any],
        fn: Callable[[Any], Any],
        *,
        sort_key: Callable[[Any], Any] | None = None,
        reverse: bool = False,
        grain: int = 1,
    ) -> None:
        """Run ``fn(item)`` for each item as dynamically-scheduled tasks.

        ``sort_key``/``reverse`` implement the load-balancing sort of
        Listing 7 (largest functions first).  Tasks are spawned as a
        binary splitting tree, so the spawn overhead on the critical path
        is logarithmic — a serial spawn loop would itself become the
        Amdahl bottleneck the paper's parallel InitFunctions avoids.
        Blocks until all items are processed; the calling worker
        participates.  ``grain`` items are processed per leaf task.
        """
        seq: Sequence[Any] = list(items)
        if sort_key is not None:
            seq = sorted(seq, key=sort_key, reverse=reverse)
        if not seq:
            return
        group = self.task_group()

        def run_range(lo: int, hi: int) -> None:
            while hi - lo > max(1, grain):
                mid = (lo + hi) // 2
                group.spawn(run_range, mid, hi)
                hi = mid
            for i in range(lo, hi):
                fn(seq[i])

        run_range(0, len(seq))
        group.wait()
        # run_range refers to itself: break that cycle so the items and
        # ``fn`` (often a closure over a whole parser) die with this call.
        del run_range

    @abc.abstractmethod
    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Execute ``fn(*args)`` as the root of a parallel computation.

        Returns ``fn``'s result after all spawned work has completed.
        A runtime instance is single-use: ``run`` may be called once.
        """

    # -- tracing -----------------------------------------------------------------

    trace: Trace | None = None

    @contextmanager
    def phase(self, name: str):
        """Record a named phase span on the trace and a ``phase.<name>``
        duration metric (no-ops when untraced / metrics disabled); yields
        the :class:`PhaseSpan`, whose ``end`` is set on exit."""
        start = self.now()
        span = PhaseSpan(name, start, start)
        try:
            yield span
        finally:
            span.end = self.now()
            if self.trace is not None:
                self.trace.phases.append(span)
            self.metrics.observe(f"phase.{name}", span.duration)

    # -- results ---------------------------------------------------------------

    @property
    @abc.abstractmethod
    def makespan(self) -> int:
        """Completion time of the last ``run`` (cycles)."""
