"""Structured runtime metrics: counters, histograms, timers.

The paper's evaluation depends on knowing *where parallel time goes*:
Figure 2's phase traces, Section 6.1's hash-map entry-lock contention
discussion, Table 2/3's per-phase speedups.  This module is the
collection substrate behind that visibility — every backend owns a
:class:`MetricsRegistry` (``rt.metrics``) that library code increments
as it works, and ``repro trace`` / the benchmark harness export it as
versioned JSON (schema documented in ``docs/OBSERVABILITY.md``).

Design constraints:

- **Pure observation.**  Recording a metric never charges simulated
  cycles, never takes a runtime lock, and never passes a virtual-time
  order point.  Enabling metrics therefore cannot change scheduling,
  the final CFG, or the makespan — a vtime run with metrics on is
  bit-identical to one with metrics off (tested).
- **Backend-relative time.**  Histogram values produced by timers and
  park-time measurements come from the owning backend's clock: virtual
  cycles on ``vtime``/``serial``, wall nanoseconds on ``threads``.
  The registry's ``time_unit`` names the unit in exports.  Series that
  are *always* wall-clock regardless of the unit say so in their name
  (the procs backend's ``*_wall_ns`` histograms: fan-out, delta open,
  install, frontier replay, noreturn wave and finalize) and are all
  recorded by the one wall timer, :meth:`MetricsRegistry.wall_timer`.
- **Cheap opt-out.**  Construct a runtime with ``enable_metrics=False``
  and ``rt.metrics`` is the shared :data:`NULL_METRICS` no-op, so
  instrumented call sites cost one attribute read and a predictable
  branch.  Sites that would do extra work to *compute* a metric value
  guard on ``rt.metrics.enabled``; the timers read no clock when off.
- **Bind once, bump often.**  Per-event counters in hot loops go through
  :meth:`MetricsRegistry.bind` handles (:class:`Counter`): no name
  formatting, no dict update and — on a single-writer registry — no lock
  per event.  Exports cannot tell a handle from ``inc``.

The catalog of every metric name emitted by the library lives in
``docs/OBSERVABILITY.md``; ``tests/test_docs.py`` checks the catalog is
complete against a real run.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from contextlib import contextmanager

from repro.schema import METRICS_SCHEMA


def bucket_bound(value: int) -> int:
    """The histogram bucket upper bound for ``value``.

    Buckets are powers of two: a value lands in the smallest bucket
    ``2**k >= value``; values ``<= 0`` land in bucket ``0``.  Power-of-two
    buckets keep the export compact and merge-friendly while preserving
    the order-of-magnitude shape that contention analysis needs.
    """
    if value <= 0:
        return 0
    return 1 << (value - 1).bit_length()


class Histogram:
    """Streaming histogram: count/sum/min/max plus power-of-two buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        b = bucket_bound(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-ready dict (bucket keys stringified, sorted numerically)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): self.buckets[k]
                        for k in sorted(self.buckets)},
        }


class Counter:
    """A counter pre-bound to one name (:meth:`MetricsRegistry.bind`).

    Hot loops bind their names once and bump this integer slot instead
    of formatting a name and updating the registry's dict under its lock
    on every event.  The registry folds the slot into every read
    (``snapshot``/``counter``/``names``); a slot that is still zero is
    invisible, exactly like a name that was never ``inc``-ed.  This
    base class is the unlocked form handed out by single-writer
    registries.  Code that may run on any runtime calls :meth:`inc`; an
    owner that is one thread by construction (the single-writer map,
    the serial task queue) may bump ``n`` in place.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def inc(self, n: int = 1) -> None:
        self.n += n


class _LockedCounter(Counter):
    """Handle of a registry that several threads update."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__()
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.n += n


class MetricsRegistry:
    """Named counters and histograms for one runtime instance.

    Updates are guarded by a plain ``threading.Lock`` (never a runtime
    lock): on the virtual-time backend execution is already serialized
    so the lock is uncontended; on the thread backend it makes
    concurrent updates safe.  ``single_writer`` is the owning runtime's
    promise that only one thread ever records: :meth:`bind` then hands
    out unlocked handles, and :meth:`inc` / :meth:`observe` skip the lock.
    """

    enabled = True

    def __init__(self, time_unit: str = "cycles",
                 clock: Callable[[], int] | None = None,
                 single_writer: bool = False):
        self.time_unit = time_unit
        self._clock = clock if clock is not None else (lambda: 0)
        self._lock = threading.Lock()
        self._single_writer = single_writer
        self._counters: dict[str, int] = {}
        self._bound: dict[str, Counter] = {}
        self._hists: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        if self._single_writer:
            self._counters[name] = self._counters.get(name, 0) + n
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def bind(self, name: str) -> Counter:
        """The pre-bound handle for counter ``name`` (one per name;
        ``inc(name)`` and the handle add up)."""
        with self._lock:
            handle = self._bound.get(name)
            if handle is None:
                handle = self._bound[name] = (
                    Counter() if self._single_writer
                    else _LockedCounter(self._lock))
            return handle

    def observe(self, name: str, value: int) -> None:
        locked = not self._single_writer
        if locked:
            self._lock.acquire()
        try:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = Histogram()
            h.observe(value)
        finally:
            if locked:
                self._lock.release()

    def clock(self) -> int:
        """The owning backend's clock, in ``time_unit`` units."""
        return self._clock()

    @contextmanager
    def timer(self, name: str):
        """Observe the elapsed backend time of a ``with`` body."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.observe(name, self._clock() - t0)

    @contextmanager
    def wall_timer(self, name: str):
        """Observe the wall-clock nanoseconds of a ``with`` body that
        completes (a body that raises records nothing), whatever
        ``time_unit`` is — the ``*_wall_ns`` series."""
        t0 = time.perf_counter_ns()
        yield
        self.observe(name, time.perf_counter_ns() - t0)

    # -- merging -------------------------------------------------------------

    def merge_snapshot(self, snap: dict, prefix: str = "") -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; histograms merge count/sum/min/max and bucket
        tallies (power-of-two buckets merge exactly).  ``prefix`` is
        prepended to every name — the procs backend uses ``"workers."``
        so per-worker collections stay distinguishable from the
        coordinator's own series.  Cross-process metric flow is exactly
        this: collect in the worker, snapshot, merge at the join.
        """
        with self._lock:
            for k, v in snap.get("counters", {}).items():
                key = prefix + k
                self._counters[key] = self._counters.get(key, 0) + v
            for k, h in snap.get("histograms", {}).items():
                key = prefix + k
                dst = self._hists.get(key)
                if dst is None:
                    dst = self._hists[key] = Histogram()
                dst.count += h["count"]
                dst.total += h["sum"]
                for bound, better in (("min", min), ("max", max)):
                    v = h.get(bound)
                    if v is not None:
                        cur = getattr(dst, bound)
                        setattr(dst, bound,
                                v if cur is None else better(cur, v))
                for bk, c in h.get("buckets", {}).items():
                    b = int(bk)
                    dst.buckets[b] = dst.buckets.get(b, 0) + c

    # -- reading -------------------------------------------------------------

    def _folded(self) -> dict[str, int]:
        """``inc``-ed totals plus every non-zero bound slot."""
        out = dict(self._counters)
        for name, handle in self._bound.items():
            if handle.n:
                out[name] = out.get(name, 0) + handle.n
        return out

    def counter(self, name: str) -> int:
        handle = self._bound.get(name)
        return self._counters.get(name, 0) + (handle.n if handle else 0)

    def histogram(self, name: str) -> Histogram | None:
        return self._hists.get(name)

    def names(self) -> list[str]:
        """All metric names recorded so far, sorted."""
        return sorted(set(self._folded()) | set(self._hists))

    def snapshot(self) -> dict:
        """Versioned, JSON-ready view of everything recorded."""
        with self._lock:
            counters = self._folded()
            return {
                "schema": METRICS_SCHEMA,
                "time_unit": self.time_unit,
                "counters": {k: counters[k] for k in sorted(counters)},
                "histograms": {k: self._hists[k].snapshot()
                               for k in sorted(self._hists)},
            }


class _NullMetrics(MetricsRegistry):
    """Shared do-nothing registry used when metrics are disabled."""

    enabled = False

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: int) -> None:
        pass

    def bind(self, name: str) -> Counter:
        return Counter()  # a scratch slot nothing ever reads

    def merge_snapshot(self, snap: dict, prefix: str = "") -> None:
        pass

    @contextmanager
    def timer(self, name: str):
        yield

    @contextmanager
    def wall_timer(self, name: str):
        yield


#: The disabled-metrics singleton (also the Runtime class default).
NULL_METRICS = _NullMetrics()
