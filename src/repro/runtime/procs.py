"""Process-parallel runtime backend: sharded CFG construction.

The ``threads`` backend proves the algorithm race-free but cannot show
real wall-clock scaling under CPython's GIL.  This backend gets genuine
hardware parallelism from ``multiprocessing``: a pool of worker
*processes* parses disjoint shards of the binary, and the coordinator
stitches the resulting CFG *fragments* into the exact serial fixed
point with a structural merge — no work is replayed except the
cross-shard steps the workers could not perform.

Execution model
---------------
1. **Shard + claim** — the binary's candidate entry addresses (``F0``)
   are split into contiguous regions balanced by estimated byte size
   (:func:`shard_regions`), and the regions' bounds partition the whole
   address space into ownership claims: shard *i* owns
   ``[first_entry_i, first_entry_{i+1})`` (the first claim is extended
   down to 0, the last up to the address ceiling).  Contiguity keeps
   each worker's decode working set local, mirroring the paper's
   Section 6.4 cache story.
2. **Publish the image once** — the coordinator serializes the binary
   image into one POSIX shared-memory segment
   (:mod:`repro.runtime.shm`); task payloads carry only its name and
   payload length, and workers deserialize the binary over a read-only
   view of the mapping, so section payloads and the decoder's code
   buffer alias the segment.  The segment is unlinked in a ``finally``
   around the dispatch loop, whatever the outcome.  Without shared
   memory (or when the ``shm`` fault site fires) the shards run inline,
   as they do when no pool can be created.
3. **Fragment parse (parallel)** — shard tasks are dispatched to a
   long-lived worker pool shared by every :class:`ProcsRuntime` in the
   process (rebuilt only when its size changes, and sized to the cores
   actually available).  Each worker rebuilds the binary over the
   segment once per parse (cached per parse token), then runs the
   ordinary parallel parser in
   *fragment mode*: expansion proceeds normally inside the shard's
   claim, while every step that would touch a foreign address — direct
   or conditional branches out of the region, calls to foreign callees,
   released fall-throughs into another shard, linear overrun past the
   boundary — is recorded as a flat
   :class:`~repro.core.parallel_parser.FrontierRecord` instead of
   executed.  The claim protocol is what makes fan-out cheap: a shard
   never re-parses another shard's call closure.
4. **Seal, verify, open** — each worker returns a :class:`ShardDelta`
   *sealed* around one ``bytes`` payload: its
   :class:`~repro.core.shard_merge.CFGFragment` (block, end and edge
   columns; function, jump-table and noreturn records), its decode
   cache as instruction columns (:mod:`repro.isa.columns`) and its
   metrics snapshot, pickled once and stamped with one sha256 over the
   bytes.  Whoever collects the delta — the dispatch loop, the
   in-process map, the inline rung — recomputes that hash once and only
   then unpickles (:func:`repro.runtime.faults.delta_error`).
5. **Streaming structural merge (coordinator)** — the coordinator
   folds each opened fragment into a
   :class:`~repro.core.shard_merge.StreamingMerge` the moment its
   delta lands — rebuild and install overlap the still-running
   fan-out instead of waiting for the slowest shard.  Block starts,
   functions and noreturn records are disjoint by ownership; block
   *ends* are reconciled through the real invariant-4 split cascade
   where shards disagree.  Once every shard is in, the serial tail
   runs on the coordinator's one thread: the frontier records replay
   once through the ordinary parser machinery, the wave fixed point
   runs (including the cycle rule fragments must skip), and the
   ordinary ``finalize`` correction phase completes.
   Schedule independence of the invariant machinery (battery-proven)
   makes the result equal the serial fixed point byte-for-byte.

Fault tolerance
---------------
The fan-out assumes nothing about worker health.  Every shard attempt
is dispatched as its own ``AsyncResult`` and collected under a
configurable per-shard deadline (``shard_deadline``); every collected
delta is integrity-checked against the digest the worker stamped on
its sealed payload.  A failed attempt — worker exception, kill, hang
past the deadline, a pool error handing the result over, corrupt or
truncated delta — walks a bounded ladder:

1. **re-dispatch** the shard to the same pool (up to
   :data:`MAX_RETRIES` times; ``multiprocessing.Pool`` replaces a
   worker that died mid-task on its own);
2. **inline re-execution** of just that shard in the coordinator
   process (the ``shard_inline`` degradation step; a parse with no
   pool or no image segment runs every shard inline, the ``inline``
   step);
3. if even that fails, the whole parse degrades to a plain **serial
   parse** on the coordinator — the ladder's last rung always yields
   the same fixed point.  The one error that never degrades is a
   :class:`~repro.errors.SanityCheckError`: a sanitizer verdict is a
   result, not a fault, and reaches the caller.

Every failed attempt and every rung records one structured fault event
with a one-line ``reason`` (``rt.fault_events``, also exported in the
run report) and a ``procs.*`` metric; the highest
degradation step taken is summarized in ``rt.degradation``.  The
deterministic fault-injection harness that proves all of this works
lives in :mod:`repro.runtime.faults`; see ``docs/ROBUSTNESS.md``.

Shared CFG state never crosses a process boundary mid-construction:
cross-shard block splits, noreturn waves and tail-call correction all
happen on the coordinator, where the five invariants hold trivially
(single writer).  What parallelizes is the dominant decode + traversal
work; what stays serial is boundary reconciliation plus the correction
phase — the same split the paper's finalization phase makes.

``makespan`` reports wall-clock seconds covering the shard fan-out and
the merge, making this the backend for real-parallelism columns in the
benchmark harness.  Worker metrics are merged into the coordinator
registry under a ``workers.`` prefix; the fan-out, merge, frontier
replay and every recovery action are observable via the ``procs.*``
metrics (catalog: ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import (
    InjectedFaultError,
    RuntimeConfigError,
    SanityCheckError,
    ShardFailedError,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultProbe,
    corrupt_delta,
    delta_error,
    inject_inline_entry,
    inject_worker_entry,
    seal_delta,
)
from repro.runtime.serial import SerialRuntime
from repro.schema import DEGRADATION_LEVELS

#: Worker-side cache of binaries rebuilt over published image segments,
#: keyed by the coordinator's payload token (one per parse).  Values are
#: ``(binary, handle)``: a binary built over a shared-memory view keeps
#: its mapping handle alive until eviction releases it.  LRU-ordered, so
#: a full cache evicts only the least recently used entry — never the
#: binary of a parse still in flight.
_WORKER_BINARIES: "OrderedDict[int, tuple]" = OrderedDict()

#: Maximum binaries kept alive per worker process.
_WORKER_BINARY_CAP = 8

#: Coordinator-side token source: a fresh token per sharded parse keys
#: the worker caches so a reused pool never mixes up binaries.
_PAYLOAD_TOKENS = itertools.count(1)

#: The cached worker pool shared by all :class:`ProcsRuntime` instances
#: in this process.  Pool creation (fork + bootstrap) costs an order of
#: magnitude more than dispatching a round of shard tasks, so the pool
#: outlives individual parses and is only recreated when the requested
#: size changes.  A failed creation discards it.
_POOL: Any | None = None
_POOL_SIZE: int | None = None

#: Upper bound of the last shard's ownership claim: the claims partition
#: ``[0, ADDRESS_CEILING)`` so every address has exactly one owner.
ADDRESS_CEILING = 1 << 63

#: Default per-shard deadline (seconds) for one pool attempt.  Generous
#: — it exists to bound hangs, not to race healthy workers.
DEFAULT_SHARD_DEADLINE = 60.0

#: Bound on per-shard pool re-dispatches after the first attempt (and
#: on inline retries after the first inline attempt).
MAX_RETRIES = 2


@dataclass(frozen=True)
class ShardTask:
    """One batched parse task: a contiguous region of entry addresses
    plus the shard's ownership claim ``[owned_lo, owned_hi)``.

    Deliberately plain data (ints only) so payloads pickle cheaply; the
    binary travels alongside as the published segment's
    ``(name, size)`` and is rebuilt at most once per worker per parse
    (cached by payload token).
    """

    shard_id: int
    seeds: tuple[int, ...]
    owned_lo: int = 0
    owned_hi: int = ADDRESS_CEILING


@dataclass
class ShardDelta:
    """A worker's contribution to the merged parse.

    On the wire a delta is *sealed*: ``payload`` is one pickled bytes
    object holding everything the coordinator reads and ``digest`` the
    stamp over it (:func:`repro.runtime.faults.seal_delta`).  Collecting
    it verifies the stamp and *opens* it in place
    (:func:`repro.runtime.faults.delta_error`): the fields below the
    line are filled in and the payload bytes released.
    """

    shard_id: int
    #: 1-based attempt this delta was produced on (retries re-stamp it)
    attempt: int = 1
    #: traceback text if the shard failed (handled by the retry ladder)
    error: str | None = None
    #: sha256 over ``shard_id:attempt:`` and the payload bytes
    digest: str | None = None
    payload: bytes | None = None
    # -- opened form (empty on the wire) ------------------------------------
    #: the structural export the coordinator merges
    #: (:class:`repro.core.shard_merge.CFGFragment`)
    fragment: Any | None = None
    #: the worker's decode cache: addr -> decoded Instruction
    insns: dict[int, Any] = field(default_factory=dict)
    #: worker registry snapshot (``repro.metrics/1``), or None
    metrics: dict | None = None


def shard_regions(entries: list[int], n_shards: int
                  ) -> list[tuple[int, ...]]:
    """Split sorted entry addresses into contiguous regions balanced by
    estimated byte size.

    Each shard's parse cost tracks the bytes it decodes, not how many
    entries it was seeded with — a shard of three huge functions can
    dwarf one with fifty stubs.  The split therefore walks the sorted
    entries greedily, giving each shard an even share of the remaining
    address *span* (``hi - lo`` as the byte-size estimate) while leaving
    at least one entry per remaining shard.  Returns at most
    ``n_shards`` non-empty tuples; address order is preserved so each
    shard covers one contiguous slice of the text region (locality for
    the worker's decode cache, and the contiguity the ownership claims
    rely on).
    """
    ent = sorted(entries)
    if not ent:
        return []
    n = max(1, min(n_shards, len(ent)))
    out: list[tuple[int, ...]] = []
    idx = 0
    for i in range(n):
        remaining = n - i
        if remaining == 1:
            out.append(tuple(ent[idx:]))
            break
        # Even split of the remaining byte span across remaining shards.
        target = ent[idx] + (ent[-1] - ent[idx]) / remaining
        j = idx + 1
        max_j = len(ent) - (remaining - 1)
        while j < max_j and ent[j] < target:
            j += 1
        out.append(tuple(ent[idx:j]))
        idx = j
    return out


def _run_shard(binary, options, task: ShardTask, enable_metrics: bool,
               attempt: int = 1,
               plan: FaultPlan | None = None) -> ShardDelta:
    """Parse one shard fragment on a private serial runtime; used by
    both the pool workers and the in-process fallback.

    Returns the delta sealed: one payload, stamped with its attempt
    number and digest, so whoever collects it can detect corruption.
    """
    from repro.core.parallel_parser import ParallelParser
    from repro.core.shard_merge import export_fragment

    probe = (FaultProbe(plan, task.shard_id, attempt)
             if plan is not None and plan else None)
    # The decode cache is part of the delta, so force it on.
    opts = replace(options, thread_local_cache=True, fault_probe=probe)
    rt = SerialRuntime(enable_metrics=enable_metrics)
    parser = ParallelParser(binary, rt, opts,
                            seed_entries=list(task.seeds),
                            owned_range=(task.owned_lo, task.owned_hi))
    rt.run(parser.execute_fragment)
    frag = export_fragment(parser, task.shard_id)
    delta = ShardDelta(task.shard_id, attempt)
    seal_delta(
        delta, frag, parser.local_decode_cache(),
        metrics=rt.metrics.snapshot() if enable_metrics else None)
    return delta


def _worker_binary(token: int, segment: tuple[str, int]):
    """The worker's cached binary for ``token``.  A hit refreshes its
    recency; a miss attaches the published image ``segment``
    (``(name, size)``) and deserializes zero-copy over a read-only view,
    evicting the least-recently-used entry first if the cache is full.
    """
    entry = _WORKER_BINARIES.get(token)
    if entry is not None:
        _WORKER_BINARIES.move_to_end(token)
        return entry[0]
    from repro.binary.loader import load_image
    from repro.runtime.shm import attach_view, release_view

    while len(_WORKER_BINARIES) >= _WORKER_BINARY_CAP:
        _tok, (_binary, handle) = _WORKER_BINARIES.popitem(last=False)
        release_view(handle)
    view, handle = attach_view(*segment)
    try:
        binary = load_image(view)
    except Exception:
        release_view(handle)
        raise
    _WORKER_BINARIES[token] = (binary, handle)
    return binary


def _parse_shard(payload: tuple) -> ShardDelta:
    """Pool task: run one shard in this worker process.

    The payload carries the image segment's ``(name, size)`` alongside
    the task, so a long-lived pool needs no per-binary initializer.
    Failures are returned as data (not raised) so one bad shard cannot
    poison the pool; the coordinator feeds them to the retry ladder.
    The payload's fault plan drives the deterministic injection sites
    (entry faults before the parse, delta faults on the sealed payload).
    """
    token, segment, options, enable_metrics, task, attempt, plan = \
        payload
    try:
        inject_worker_entry(plan, task.shard_id, attempt)
        binary = _worker_binary(token, segment)
        delta = _run_shard(binary, options, task, enable_metrics,
                           attempt, plan)
        return corrupt_delta(plan, delta, task.shard_id, attempt)
    except Exception:
        import traceback

        return ShardDelta(shard_id=task.shard_id, attempt=attempt,
                          error=traceback.format_exc())


#: Serializes creation/teardown of the shared pool: multi-binary
#: drivers run concurrent fan-outs from supervisor threads, and an
#: unguarded create/create race would terminate a pool another fan-out
#: is mid-dispatch on.
_POOL_GUARD = threading.RLock()


def _shared_pool(ctx, processes: int):
    """Return the cached worker pool, recreating it on a size change."""
    global _POOL, _POOL_SIZE
    with _POOL_GUARD:
        if _POOL is not None and _POOL_SIZE == processes:
            return _POOL
        shutdown_pool()
        _POOL = ctx.Pool(processes=processes)
        _POOL_SIZE = processes
        return _POOL


def shutdown_pool() -> None:
    """Discard the cached worker pool (also safe when none exists)."""
    global _POOL, _POOL_SIZE
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.terminate()
            _POOL.join()
        _POOL = None
        _POOL_SIZE = None


# Tear the pool down before interpreter shutdown dismantles the modules
# its finalizer needs (a GC'd Pool tries to message its workers).
atexit.register(shutdown_pool)


class ProcsRuntime(SerialRuntime):
    """Process-pool backend: parallel shard parses + serial merge.

    The coordinator side is a single-worker serial scheduler (tasks,
    locks and charges behave exactly like :class:`SerialRuntime`), so
    any algorithm written against the Runtime API runs correctly,
    merely without in-process parallelism.  Real parallelism comes from
    :meth:`sharded_parse`, which ``parse_binary`` dispatches to
    automatically for this backend.

    Fault-tolerance knobs (see the module docstring for the ladder):

    - ``shard_deadline`` — seconds one pool attempt of one shard may
      take before it counts as hung (None disables the deadline);
    - ``fault_plan`` — deterministic fault injection
      (:class:`~repro.runtime.faults.FaultPlan`); defaults to the plan
      named by ``REPRO_FAULT_PLAN`` if set.
    """

    def __init__(self, n_workers: int, cost_model=None,
                 enable_metrics: bool = True,
                 in_process: bool = False,
                 shard_deadline: float | None = DEFAULT_SHARD_DEADLINE,
                 fault_plan: FaultPlan | None = None):
        if n_workers < 1:
            raise RuntimeConfigError("need at least one worker")
        if shard_deadline is not None and shard_deadline <= 0:
            raise RuntimeConfigError("shard_deadline must be positive")
        super().__init__(cost_model=cost_model,
                         enable_metrics=enable_metrics)
        self.num_workers = n_workers
        #: run shards inline in the coordinator process (test/debug
        #: escape hatch; also the automatic fallback when no pool or no
        #: image segment can be created, e.g. in sandboxes without
        #: semaphore or shared-memory support).
        self.in_process = in_process
        self.shard_deadline = shard_deadline
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        self._t0: float | None = None
        self._elapsed: float | None = None
        #: the live StreamingMerge while a fan-out is collecting, so the
        #: dispatch loop can install fragments as deltas land.
        self._merge: Any | None = None
        #: deltas of the last sharded parse (observability/tests).
        self.shard_deltas: list[ShardDelta] | None = None
        #: structured record of every fault observed by the last parse,
        #: one per failure (exported in the ``repro.run-report/1``
        #: ``fault_events`` section; see docs/ROBUSTNESS.md for the
        #: event kinds).
        self.fault_events: list[dict] = []
        #: highest degradation step of the last parse plus the ordered
        #: step log ({"level": ..., "steps": [...]}).
        self.degradation: dict = {"level": "none", "steps": []}

    # -- Runtime API ---------------------------------------------------------

    def run(self, fn, *args):
        if self._t0 is None:
            self._t0 = time.perf_counter()
        try:
            return super().run(fn, *args)
        finally:
            self._elapsed = time.perf_counter() - self._t0

    @property
    def makespan(self) -> float:
        """Wall-clock seconds of the last run (incl. the shard fan-out)."""
        if self._elapsed is None:
            raise RuntimeConfigError("makespan available only after run()")
        return self._elapsed

    # -- fault bookkeeping ---------------------------------------------------

    def _record_fault(self, kind: str, shard: int | None, attempt: int,
                      action: str, reason: str) -> None:
        self.fault_events.append({"kind": kind, "shard": shard,
                                  "attempt": attempt, "action": action,
                                  "reason": reason})

    def _degrade(self, level: str, reason: str) -> None:
        """Record one step down the ladder (monotone level, full log)."""
        self.degradation["steps"].append(f"{level}: {reason}")
        if (DEGRADATION_LEVELS.index(level)
                > DEGRADATION_LEVELS.index(self.degradation["level"])):
            self.degradation["level"] = level
        self.metrics.inc(f"procs.degraded_to.{level}")

    def _collect(self, delta: ShardDelta | None) -> str | None:
        """Verify and open one collected delta — the coordinator's one
        hash over it; returns why it is unusable, or None."""
        m = self.metrics
        size = len(delta.payload) if delta is not None and delta.payload \
            else 0
        t0 = time.perf_counter_ns()
        reason = delta_error(delta)
        if m.enabled:
            m.inc("procs.delta.bytes", size)
            m.observe("procs.delta.open_wall_ns",
                      time.perf_counter_ns() - t0)
        return reason

    # -- sharded CFG construction ------------------------------------------------

    def sharded_parse(self, binary, options=None):
        """Parse ``binary`` with the fragment/merge pipeline (module doc).

        ``parse_binary`` calls this automatically when handed a
        :class:`ProcsRuntime`; the signature of the result is identical
        to a serial parse of the same binary.  Never hangs and never
        fails on a recoverable fault: shard attempts are bounded by
        deadlines and retries, and an unrecoverable sharded pipeline
        degrades to a plain serial parse (the fault and the degradation
        step are recorded in ``fault_events`` / ``degradation`` and the
        ``procs.*`` metrics).
        """
        from repro.core.parallel_parser import ParseOptions

        opts = options or ParseOptions()
        self._t0 = time.perf_counter()
        self.fault_events = []
        self.degradation = {"level": "none", "steps": []}
        try:
            return self._sharded_parse_inner(binary, opts)
        except SanityCheckError:
            # A sanitizer verdict is a result, not a fault: re-parsing
            # serially would only hide the violation it reports.
            raise
        except Exception as exc:
            # Last rung of the ladder: nothing recoverable remains in
            # the sharded pipeline, so produce the fixed point the only
            # way that cannot involve shards — a plain serial parse.
            reason = _describe(exc)
            self._record_fault(
                "sharded_parse_failed",
                getattr(exc, "shard_id", None),
                getattr(exc, "attempt", 0) or 0, "serial", reason)
            self._degrade("serial", reason)
            return self._serial_fallback(binary, opts)

    def _sharded_parse_inner(self, binary, opts):
        shards = shard_regions(binary.entry_addresses(), self.num_workers)
        tasks = []
        for i, seeds in enumerate(shards):
            lo = 0 if i == 0 else seeds[0]
            hi = (shards[i + 1][0] if i + 1 < len(shards)
                  else ADDRESS_CEILING)
            tasks.append(ShardTask(i, seeds, lo, hi))
        # The whole pipeline — fan-out included — runs inside this
        # runtime's single run() so the streaming merge can install
        # fragments while the dispatch loop is still collecting.
        return self.run(
            lambda: self._fan_out_and_merge(binary, opts, tasks))

    def _fan_out_and_merge(self, binary, opts, tasks: list[ShardTask]):
        from repro.core.shard_merge import StreamingMerge

        m = self.metrics
        merge = StreamingMerge(binary, self, opts)
        self._merge = merge
        try:
            t_pool = time.perf_counter_ns()
            deltas = self._map_shards(binary, opts, tasks)
            if m.enabled:
                m.observe("procs.phase.fanout_wall_ns",
                          time.perf_counter_ns() - t_pool)
            self.shard_deltas = deltas

            # One delta per shard, in shard order, each verified and
            # opened by whoever collected it.
            shard_insns_total = 0
            for d in deltas:
                if d.fragment is None:
                    raise ShardFailedError(
                        d.shard_id, d.attempt,
                        d.error or "delta reached the merge unopened")
                shard_insns_total += len(d.insns)
                if m.enabled:
                    m.inc("procs.shard_functions",
                          len(d.fragment.functions))
                    m.inc("procs.shard_insns_decoded", len(d.insns))
                    if d.metrics is not None:
                        m.merge_snapshot(d.metrics, prefix="workers.")
                # Shards the dispatch loop already streamed in are
                # skipped by accept(); inline-rung and in-process deltas
                # install here, batch style.
                merge.accept(d.fragment, d.insns)
            if m.enabled:
                m.inc("procs.shards", len(tasks))
                m.inc("procs.merged_cache_insns", len(merge.warm))
                # Cross-shard redundancy: instructions decoded by more
                # than one worker (ownership keeps this low; it is not
                # zero, since linear overrun and frontier-adjacent code
                # decode twice).
                m.inc("procs.duplicate_insns",
                      shard_insns_total - len(merge.warm))

            return merge.finish()
        finally:
            self._merge = None

    def _serial_fallback(self, binary, opts):
        """The ladder's last rung: a plain serial parse on this runtime."""
        from repro.core.parallel_parser import ParallelParser

        # The failed merge may have consumed this runtime's single run
        # and left queued tasks behind; reset the scheduler state (the
        # clock keeps accumulating — the fallback is part of the parse).
        self._ran = False
        self._queue.clear()
        parser = ParallelParser(binary, self, opts)
        return self.run(parser.execute)

    # -- pool plumbing -------------------------------------------------------------

    def _map_shards(self, binary, opts, tasks: list[ShardTask]
                    ) -> list[ShardDelta]:
        if self.in_process or len(tasks) <= 1:
            return self._map_inline(binary, opts, tasks)
        try:
            ctx = multiprocessing.get_context()
            # More worker processes than hardware threads cannot run in
            # parallel; they only add fork, scheduling and IPC overhead,
            # so the pool is capped at the cores this process may use.
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                cores = os.cpu_count() or 1
            procs = max(1, min(self.num_workers, len(tasks), cores))
            if self.fault_plan is not None and self.fault_plan.fires(
                    "pool", None, 1):
                raise InjectedFaultError("pool", None, 1)
            pool = _shared_pool(ctx, procs)
        except Exception as exc:
            # No usable pool (sandboxed semaphores, missing start
            # method, injected pool fault).
            shutdown_pool()
            return self._fall_back_inline(
                binary, opts, tasks, "pool_create_failed",
                f"no worker pool: {_describe(exc)}")
        try:
            segment = self._publish_image(binary)
        except Exception as exc:
            # No shared memory (no /dev/shm, sandboxed shm_open,
            # injected shm fault): the workers cannot see the image.
            return self._fall_back_inline(
                binary, opts, tasks, "shm_unavailable",
                f"no image segment: {_describe(exc)}")
        try:
            return self._dispatch(pool, next(_PAYLOAD_TOKENS),
                                  (segment.name, segment.size), opts,
                                  binary, tasks)
        finally:
            # The one unlink point: runs on success, on every ladder
            # rung and on the exception that triggers the serial
            # fallback, so no parse outcome can leak the segment.
            segment.unlink()

    def _fall_back_inline(self, binary, opts, tasks: list[ShardTask],
                          kind: str, reason: str) -> list[ShardDelta]:
        """The pool path cannot start: run every shard in-process (the
        structural merge still runs; only the parallelism is lost)."""
        self.metrics.inc("procs.pool_fallback")
        self._record_fault(kind, None, 1, "inline", reason)
        self._degrade("inline", reason)
        return self._map_inline(binary, opts, tasks)

    def _publish_image(self, binary):
        """Publish the image once for the fan-out and return the
        segment, which the caller unlinks when the fan-out is over.
        Raises when shared memory is unavailable or the ``shm`` fault
        site fires."""
        from repro.runtime.shm import ImageSegment

        if self.fault_plan is not None and self.fault_plan.fires(
                "shm", None, 1):
            raise InjectedFaultError("shm", None, 1)
        segment = ImageSegment.create(binary.image.to_bytes())
        m = self.metrics
        if m.enabled:
            m.inc("procs.shm.segments")
            m.inc("procs.shm.bytes", segment.size)
        return segment

    def _dispatch(self, pool, token: int, segment: tuple[str, int], opts,
                  binary, tasks: list[ShardTask]) -> list[ShardDelta]:
        """The fault-tolerant fan-out: one ``AsyncResult`` per shard
        attempt, collected under the shard deadline.  A timeout, an
        error handing the result over (``pool_error``) and an unusable
        delta are each one failed attempt: the shard is re-dispatched
        to the same pool up to :data:`MAX_RETRIES` times, then takes
        the inline rung.

        Collection is *streaming*: each pass prefers whichever shard
        has already finished, and a valid delta is installed into the
        live :class:`StreamingMerge` immediately, so rebuild/install
        work overlaps the still-running stragglers instead of waiting
        for the slowest shard.
        """
        m = self.metrics
        deltas: dict[int, ShardDelta] = {}
        attempt = {t.shard_id: 0 for t in tasks}

        def submit(t: ShardTask):
            attempt[t.shard_id] += 1
            payload = (token, segment, opts, m.enabled, t,
                       attempt[t.shard_id], self.fault_plan)
            return t, pool.apply_async(_parse_shard, (payload,))

        waiting = [submit(t) for t in tasks]
        while waiting:
            # Prefer a result that is already in: its merge work runs
            # while the stragglers keep parsing.  With none ready, block
            # on the oldest dispatch.
            i = next((i for i, (_t, ar) in enumerate(waiting)
                      if ar.ready()), 0)
            t, ar = waiting.pop(i)
            a = attempt[t.shard_id]
            try:
                delta = ar.get(timeout=self.shard_deadline)
            except multiprocessing.TimeoutError:
                # A hung or killed worker; its result is abandoned.
                m.inc("procs.shard_timeout")
                kind = "shard_timeout"
                reason = (f"no delta within the {self.shard_deadline:g}s"
                          f" shard deadline")
            except Exception as exc:
                # The pool failed to hand the result over.
                kind, reason = "pool_error", _describe(exc)
            else:
                reason = self._collect(delta)
                if reason is None:
                    deltas[t.shard_id] = delta
                    if self._merge is not None:
                        self._merge.accept(delta.fragment, delta.insns,
                                           streamed=bool(waiting))
                    continue
                m.inc("procs.shard_failed")
                kind = "shard_failed"
            self._record_fault(kind, t.shard_id, a, "retry", reason)
            if a <= MAX_RETRIES:
                m.inc("procs.retry.dispatch")
                waiting.append(submit(t))
            else:
                deltas[t.shard_id] = self._run_shard_final(
                    binary, opts, t, a + 1)
        return [deltas[t.shard_id] for t in tasks]

    def _run_shard_final(self, binary, opts, task: ShardTask,
                         attempt_no: int) -> ShardDelta:
        """Inline re-execution of one shard — the ladder rung between
        pool retries and the whole-parse serial fallback.  A failure
        here raises :class:`ShardFailedError`, which ``sharded_parse``
        converts into the serial rung."""
        self.metrics.inc("procs.retry.inline")
        self._record_fault("shard_inline", task.shard_id, attempt_no,
                           "inline", f"{attempt_no - 1} pool attempts failed")
        self._degrade("shard_inline",
                      f"shard {task.shard_id} re-executed inline")
        try:
            delta, reason = self._inline_attempt(binary, opts, task,
                                                 attempt_no)
        except Exception as exc:
            raise ShardFailedError(
                task.shard_id, attempt_no,
                f"inline re-execution failed: {_describe(exc)}") from exc
        if reason is not None:
            raise ShardFailedError(task.shard_id, attempt_no, reason)
        return delta

    def _map_inline(self, binary, opts, tasks: list[ShardTask]
                    ) -> list[ShardDelta]:
        """Run every shard in the coordinator process.

        The fast path (no fault plan, no failures) is one attempt per
        task; faults — injected or real — get the same bounded
        per-shard retry as the pool path, and a shard that exhausts its
        inline attempts raises :class:`ShardFailedError` so the parse
        degrades to the serial rung.
        """
        m = self.metrics
        out: list[ShardDelta] = []
        for t in tasks:
            for a in range(1, MAX_RETRIES + 2):
                if a > 1:
                    m.inc("procs.retry.inline")
                try:
                    delta, reason = self._inline_attempt(binary, opts, t, a)
                except Exception as exc:
                    reason = _describe(exc)
                if reason is None:
                    out.append(delta)
                    break
                m.inc("procs.shard_failed")
                self._record_fault("shard_failed", t.shard_id, a, "retry",
                                   reason)
            else:
                raise ShardFailedError(t.shard_id, MAX_RETRIES + 1, reason)
        return out

    def _inline_attempt(self, binary, opts, task: ShardTask, attempt: int
                        ) -> tuple[ShardDelta, str | None]:
        """One attempt of one shard in the coordinator process: entry
        faults, the parse, delta faults, then verify-and-open.  Returns
        the delta and why it is unusable (None: it is open); an
        exception from the entry faults or the parse propagates."""
        plan = self.fault_plan
        inject_inline_entry(plan, task.shard_id, attempt)
        delta = _run_shard(binary, opts, task, self.metrics.enabled,
                           attempt, plan)
        delta = corrupt_delta(plan, delta, task.shard_id, attempt)
        return delta, self._collect(delta)


def _describe(exc: BaseException) -> str:
    """One line naming an exception: the reason a fault event carries."""
    return f"{type(exc).__name__}: {exc}".splitlines()[0]
