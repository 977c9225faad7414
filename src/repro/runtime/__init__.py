"""Parallel runtime substrate.

The paper's speedups come from real hardware threads (TBB + OpenMP inside
Dyninst).  Under CPython's GIL, real threads cannot reproduce those curves,
so this package provides two interchangeable backends behind one
:class:`~repro.runtime.api.Runtime` interface:

- :class:`~repro.runtime.vtime.VirtualTimeRuntime` — a deterministic
  discrete-event scheduler over N simulated workers.  All costs come from a
  calibrated :class:`~repro.runtime.cost.CostModel`; locks model contention;
  the task queue models idleness and load imbalance.  Simulated makespans
  yield the speedup curves of the evaluation section.
- :class:`~repro.runtime.threads.ThreadRuntime` — a real thread pool running
  the *same* algorithm code, used to demonstrate that the five invariants of
  Section 5.2 are genuinely race-free under preemption.
- :class:`~repro.runtime.serial.SerialRuntime` — a single-worker fast path
  used by the serial baseline parser.
- :class:`~repro.runtime.procs.ProcsRuntime` — a ``multiprocessing``
  worker pool running sharded CFG construction: real hardware
  parallelism for the decode/traversal work, with a serial merge that
  reproduces the serial fixed point exactly.

The concurrent hash map of Listings 4–6 lives in
:mod:`repro.runtime.conchash`: a locked implementation built on the runtime
lock abstraction for backends whose workers can meet, and a single-writer one
for the one-thread backends; ``rt.make_map(name)`` picks between them.
"""

from repro.runtime.api import Runtime, TaskGroup
from repro.runtime.cost import CostModel
from repro.runtime.metrics import NULL_METRICS, Histogram, MetricsRegistry
from repro.runtime.serial import SerialRuntime
from repro.runtime.vtime import VirtualTimeRuntime
from repro.runtime.threads import ThreadRuntime
from repro.runtime.procs import ProcsRuntime
from repro.runtime.conchash import ConcurrentHashMap
from repro.schema import BACKENDS  # noqa: F401  (make_runtime's names)

__all__ = [
    "Runtime",
    "TaskGroup",
    "CostModel",
    "MetricsRegistry",
    "Histogram",
    "NULL_METRICS",
    "SerialRuntime",
    "VirtualTimeRuntime",
    "ThreadRuntime",
    "ProcsRuntime",
    "ConcurrentHashMap",
]


def make_runtime(kind: str, n_workers: int, **kwargs) -> Runtime:
    """Factory: build a runtime backend by its ``backend`` name, one of
    ``"vtime"``, ``"threads"``, ``"serial"``, ``"procs"``."""
    if kind == "serial":
        if n_workers != 1:
            raise ValueError("serial runtime has exactly one worker")
        return SerialRuntime(**kwargs)
    for cls in (VirtualTimeRuntime, ThreadRuntime, ProcsRuntime):
        if cls.backend == kind:
            return cls(n_workers, **kwargs)
    raise ValueError(f"unknown runtime kind: {kind!r}")
