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
   memory (or when the ``shm`` fault site fires) the parse goes to the
   serial rung, as it does when no pool can be created.
3. **Fragment parse (parallel)** — shard tasks are dispatched to a
   long-lived worker pool shared by every :class:`ProcsRuntime` in the
   process (rebuilt only when its size changes, and sized to the cores
   actually available).  Each worker keeps the binary of its previous
   task and rebuilds it over the segment only when a task names another
   segment, then runs the ordinary parallel parser in
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
   bytes.  The dispatch loop collects every delta, from the pool or
   inline, and recomputes that hash once; only then does it unpickle
   (:func:`repro.runtime.faults.delta_error`).
5. **Structural merge (coordinator)** — once every shard's delta is
   in, the coordinator installs the opened fragments, in shard order,
   into a :class:`~repro.core.shard_merge.StreamingMerge` (no overlap
   with the fan-out: an install then would compete with the workers
   for the same cores).  Block starts, block ends (a shard registers
   an end only if it owns its last byte), functions, jump tables and
   noreturn records are disjoint by ownership, so the merge only
   installs; an entry two shards exported raises.  The serial
   tail then runs on the coordinator's one thread: the frontier
   records replay once through the ordinary parser machinery, the
   wave fixed point runs (including the cycle rule fragments must
   skip), and the ordinary ``finalize`` correction phase completes.
   Schedule independence of the invariant machinery (battery-proven)
   makes the result equal the serial fixed point byte-for-byte.

Fault tolerance
---------------
The fan-out assumes nothing about worker health.  Every attempt of
every shard is made and collected by one loop (``_dispatch``), with or
without a pool: a pool attempt is its own ``AsyncResult``, collected
under a configurable per-shard deadline (``shard_deadline``); an inline
attempt runs in place in the coordinator.  Every collected delta is
integrity-checked against the digest its producer stamped on the sealed
payload.  A failed attempt — worker exception, kill, hang past the
deadline, a pool error handing the result over, corrupt or truncated
delta — walks one bounded ladder of two rungs:

1. **retry**: a shard gets :data:`MAX_RETRIES` + 1 attempts, all on
   the pool when there is one (``multiprocessing.Pool`` replaces a
   worker that died mid-task on its own), all inline when there is
   none (``in_process``, or a single shard);
2. **serial**: if a shard's last attempt fails, or no pool or no image
   segment can be created, the whole parse is a plain serial parse on
   the coordinator — it always yields the same fixed point.  The one
   error that never degrades is a
   :class:`~repro.errors.SanityCheckError`: a sanitizer verdict is a
   result, not a fault, and reaches the caller.

Every failed attempt and the serial rung record one structured fault
event each, with a one-line ``reason`` (``rt.fault_events``, also
exported in the run report; a shard's failed last attempt is recorded
once, as the serial rung's event), and a ``procs.*`` metric; whether
the parse degraded is summarized in ``rt.degradation``.  The
deterministic fault-injection harness that proves all of this works
lives in :mod:`repro.runtime.faults`; see ``docs/ROBUSTNESS.md``.

Shared CFG state never crosses a process boundary mid-construction:
the frontier replay (with the cross-shard block splits it makes),
noreturn waves and tail-call correction all happen on the coordinator,
where the five invariants hold trivially (single writer).  What
parallelizes is the dominant decode + traversal work; what stays serial
is the fragment installs, the frontier replay, the wave and the
correction phase — the same split the paper's finalization phase
makes.

The coordinator's one clock is the wall clock: ``now()``, its phases,
task-queue delays, metric timings and ``makespan`` (the whole ``run``,
every fan-out and merge in it) are wall ns, making this the backend
for real-parallelism columns in the benchmark harness.  Shard workers
count :class:`SerialRuntime` cycles, so only their counters merge into
the coordinator registry, under a ``workers.`` prefix; the fan-out,
merge, frontier replay and every recovery action are observable via
the ``procs.*`` metrics (catalog: ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
import time
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
    corrupt_delta,
    delta_error,
    inject_entry,
    seal_delta,
)
from repro.runtime.serial import SerialRuntime
from repro.schema import DEGRADATION_LEVELS

#: Worker-side binary of the previous task: ``(segment name, binary,
#: handle)``, or None.  Segment names are unique per published image, so
#: a task naming the same segment reuses the binary; any other task
#: replaces it.  The handle keeps the binary's mapping alive.
_WORKER_IMAGE: tuple | None = None

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

#: Retries per shard after its first attempt, on the pool when there is
#: one, else inline.
MAX_RETRIES = 2


@dataclass(frozen=True)
class ShardTask:
    """One batched parse task: a contiguous region of entry addresses
    plus the shard's ownership claim ``[owned_lo, owned_hi)``.

    Deliberately plain data (ints only) so payloads pickle cheaply; the
    binary travels alongside as the published segment's
    ``(name, size)``, and a worker rebuilds it only when the segment
    differs from its previous task's.
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
               attempt: int = 1) -> ShardDelta:
    """Parse one shard fragment on a private serial runtime; every
    attempt, on the pool or inline, runs it.

    Returns the delta sealed: one payload, stamped with its attempt
    number and digest, so whoever collects it can detect corruption.
    """
    from repro.core.cfg import release_blocks
    from repro.core.parallel_parser import ParallelParser
    from repro.core.shard_merge import export_fragment

    # The decode cache is part of the delta, so force it on.
    opts = replace(options, thread_local_cache=True)
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
    # Only the sealed bytes leave: let reference counting free the graph.
    release_blocks(b for _, b in parser.blocks_by_start.items_snapshot())
    return delta


def _worker_binary(segment: tuple[str, int]):
    """The binary over the published image ``segment`` (``(name,
    size)``).  The previous task's binary is reused when it was built
    over the same segment; otherwise it is dropped and its mapping
    released, and the segment is attached and deserialized zero-copy
    over a read-only view.
    """
    global _WORKER_IMAGE
    from repro.binary.loader import load_image
    from repro.runtime.shm import attach_view, release_view

    if _WORKER_IMAGE is not None:
        name, binary, handle = _WORKER_IMAGE
        if name == segment[0]:
            return binary
        # Drop the binary first: its sections alias the mapping, which
        # closes cleanly only once nothing exports a buffer over it.
        _WORKER_IMAGE = binary = None
        release_view(handle)
    view, handle = attach_view(*segment)
    try:
        binary = load_image(view)
    except Exception:
        release_view(handle)
        raise
    _WORKER_IMAGE = (segment[0], binary, handle)
    return binary


def _attempt_shard(binary, options, enable_metrics: bool, task: ShardTask,
                   attempt: int, plan: FaultPlan | None,
                   in_worker: bool) -> ShardDelta:
    """One attempt of one shard, in a pool worker or in place in the
    coordinator: entry faults, the parse, then delta faults on the
    sealed payload.  In a worker ``binary`` is the image segment's
    ``(name, size)``, resolved through :func:`_worker_binary`.

    A failure is returned as an error delta, never raised — a raise
    would poison the pool — and its collector feeds it to the ladder.
    """
    try:
        inject_entry(plan, task.shard_id, attempt, in_worker)
        if in_worker:
            binary = _worker_binary(binary)
        delta = _run_shard(binary, options, task, enable_metrics, attempt)
        return corrupt_delta(plan, delta, task.shard_id, attempt)
    except Exception:
        import traceback

        return ShardDelta(shard_id=task.shard_id, attempt=attempt,
                          error=traceback.format_exc())


def _parse_shard(payload: tuple) -> ShardDelta:
    """Pool task: ``(segment, options, enable_metrics, task, attempt,
    plan)``, so a long-lived pool needs no per-binary initializer."""
    return _attempt_shard(*payload, in_worker=True)


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


class _NoPool(Exception):
    """No worker pool or no image segment for the fan-out: the fault is
    recorded and the parse goes to the serial rung."""


class ProcsRuntime(SerialRuntime):
    """Process-pool backend: parallel shard parses + serial merge.

    The coordinator side is a single-worker serial scheduler on the wall
    clock (tasks and locks behave exactly like :class:`SerialRuntime`), so
    any algorithm written against the Runtime API runs correctly,
    merely without in-process parallelism.  Real parallelism comes from
    :meth:`sharded_parse`, which :func:`repro.core.parallel_parser.parse`
    dispatches to, so ``parse_binary`` and every application shard.

    Fault-tolerance knobs (see the module docstring for the ladder:
    retry, then serial):

    - ``shard_deadline`` — seconds one pool attempt of one shard may
      take before it counts as hung (None disables the deadline);
    - ``fault_plan`` — deterministic fault injection
      (:class:`~repro.runtime.faults.FaultPlan`); defaults to the plan
      named by ``REPRO_FAULT_PLAN`` if set.
    """

    backend = "procs"
    time_unit = "ns"

    def __init__(self, n_workers: int, enable_metrics: bool = True,
                 in_process: bool = False,
                 shard_deadline: float | None = DEFAULT_SHARD_DEADLINE,
                 fault_plan: FaultPlan | None = None):
        if n_workers < 1:
            raise RuntimeConfigError("need at least one worker")
        if shard_deadline is not None and not 0 < shard_deadline < math.inf:
            raise RuntimeConfigError(
                f"shard_deadline must be a finite number of seconds above "
                f"0 (got {shard_deadline!r})")
        super().__init__(enable_metrics=enable_metrics)
        self.num_workers = n_workers
        #: run shards inline in the coordinator process (test/debug
        #: escape hatch).
        self.in_process = in_process
        self.shard_deadline = shard_deadline
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        self._makespan: int | None = None
        #: deltas of the last sharded parse (observability/tests).
        self.shard_deltas: list[ShardDelta] | None = None
        #: structured record of every fault observed by the run's
        #: parses, one per failure (exported in the run report's
        #: ``fault_events`` section; see docs/ROBUSTNESS.md for the
        #: event kinds).
        self.fault_events: list[dict] = []

    # -- Runtime API ---------------------------------------------------------

    @property
    def _clock(self) -> int:
        """The serial scheduler's one clock — its task stamps and queue
        delays, ``now()`` and the registry's timers — read as wall ns
        since it was last set (``run`` sets it to 0)."""
        return time.perf_counter_ns() - self._t0

    @_clock.setter
    def _clock(self, value: int) -> None:
        self._t0 = time.perf_counter_ns() - value

    def charge(self, units: int) -> None:
        pass

    def run(self, fn, *args):
        if self._ran:  # refused (single-use): the last run's record stands
            return super().run(fn, *args)
        self._clock = 0
        try:
            return super().run(fn, *args)
        finally:
            self._makespan = self._clock

    @property
    def degradation(self) -> dict:
        """How far down the ladder the run went, from ``fault_events``."""
        none, serial = DEGRADATION_LEVELS
        steps = [f"{serial}: {ev['reason']}" for ev in self.fault_events
                 if ev["action"] == serial]
        return {"level": serial if steps else none, "steps": steps}

    @property
    def makespan(self) -> int:
        if self._makespan is None:
            raise RuntimeConfigError("makespan available only after run()")
        return self._makespan

    # -- fault bookkeeping ---------------------------------------------------

    def _record_fault(self, kind: str, shard: int | None, attempt: int,
                      action: str, reason: str) -> None:
        self.fault_events.append({"kind": kind, "shard": shard,
                                  "attempt": attempt, "action": action,
                                  "reason": reason})

    def _degrade(self, kind: str, shard: int | None, attempt: int,
                 reason: str) -> None:
        """Record the fault that sends the parse to the serial rung;
        :attr:`degradation` reads the step back from it."""
        level = DEGRADATION_LEVELS[-1]
        self._record_fault(kind, shard, attempt, level, reason)
        self.metrics.inc(f"procs.degraded_to.{level}")

    def _collect(self, delta: ShardDelta | None) -> str | None:
        """Verify and open one collected delta — the coordinator's one
        hash over it; returns why it is unusable, or None."""
        m = self.metrics
        size = len(delta.payload) if delta is not None and delta.payload \
            else 0
        with m.wall_timer("procs.delta.open_wall_ns"):
            reason = delta_error(delta)
        m.inc("procs.delta.bytes", size)
        return reason

    # -- sharded CFG construction ------------------------------------------------

    def sharded_parse(self, binary, options=None):
        """Parse ``binary`` with the fragment/merge pipeline (module doc)
        inside ``run``; :func:`repro.core.parallel_parser.parse` calls
        this for a :class:`ProcsRuntime`.

        The signature of the result is identical to a serial parse of
        the same binary.  Never hangs and never fails on a recoverable
        fault: shard attempts are bounded by deadlines and retries, and
        an unrecoverable sharded pipeline degrades to a plain serial
        parse (the fault and the degradation step are appended to
        ``fault_events`` / ``degradation`` and the ``procs.*`` metrics).
        """
        from repro.core.parallel_parser import ParseOptions

        opts = options or ParseOptions()
        try:
            return self._fan_out_and_merge(binary, opts)
        except SanityCheckError:
            # A sanitizer verdict is a result, not a fault: re-parsing
            # serially would only hide the violation it reports.
            raise
        except _NoPool:
            pass  # the fault and the step are recorded where it failed
        except Exception as exc:
            # Last rung of the ladder: nothing recoverable remains in
            # the sharded pipeline, so produce the fixed point the only
            # way that cannot involve shards — a plain serial parse.
            self._degrade("sharded_parse_failed",
                          getattr(exc, "shard_id", None),
                          getattr(exc, "attempt", 0) or 0, _describe(exc))
        return self._serial_fallback(binary, opts)

    def _fan_out_and_merge(self, binary, opts):
        from repro.core.shard_merge import StreamingMerge

        shards = shard_regions(binary.entry_addresses(), self.num_workers)
        tasks = []
        for i, seeds in enumerate(shards):
            lo = 0 if i == 0 else seeds[0]
            hi = (shards[i + 1][0] if i + 1 < len(shards)
                  else ADDRESS_CEILING)
            tasks.append(ShardTask(i, seeds, lo, hi))
        m = self.metrics
        merge = StreamingMerge(binary, self, opts)
        with m.wall_timer("procs.phase.fanout_wall_ns"):
            deltas = self._map_shards(binary, opts, tasks)
        self.shard_deltas = deltas

        # Every shard is in: install one delta per shard, in shard
        # order, each verified and opened by whoever collected it.
        shard_insns_total = 0
        for d in deltas:
            if d.fragment is None:
                raise ShardFailedError(
                    d.shard_id, d.attempt,
                    d.error or "delta reached the merge unopened")
            shard_insns_total += len(d.insns)
            if m.enabled and d.metrics is not None:
                # Worker timings are cycles: only the counters merge.
                m.merge_snapshot({"counters": d.metrics["counters"]},
                                 prefix="workers.")
            merge.accept(d.fragment, d.insns)
        if m.enabled:
            m.inc("procs.shards", len(tasks))
            m.inc("procs.merged_cache_insns", len(merge.warm))
            # Cross-shard redundancy: instructions decoded by more than
            # one worker (ownership keeps this low; it is not zero,
            # since linear overrun and frontier-adjacent code decode
            # twice).
            m.inc("procs.duplicate_insns",
                  shard_insns_total - len(merge.warm))
        return merge.finish()

    def _serial_fallback(self, binary, opts):
        """The ladder's last rung: a plain serial parse on this runtime."""
        from repro.core.parallel_parser import ParallelParser

        # The failed merge may have left queued tasks behind; drop them
        # (the fallback is part of the parse, on the same clock).
        self._queue.clear()
        return ParallelParser(binary, self, opts).execute()

    # -- pool plumbing -------------------------------------------------------------

    def _map_shards(self, binary, opts, tasks: list[ShardTask]
                    ) -> list[ShardDelta]:
        """Every shard's delta.  When no pool or no image segment can
        be created, that fault is recorded here and :class:`_NoPool`
        sends the parse to the serial rung."""
        if self.in_process or len(tasks) <= 1:
            return self._dispatch(None, None, opts, binary, tasks)
        kind, what = "pool_create_failed", "no worker pool"
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
            kind, what = "shm_unavailable", "no image segment"
            segment = self._publish_image(binary)
        except Exception as exc:
            # No usable pool (sandboxed semaphores, missing start
            # method, injected pool fault) or no shared memory (no
            # /dev/shm, sandboxed shm_open, injected shm fault): the
            # serial rung, which measured faster than running every
            # shard inline (docs/ROBUSTNESS.md).
            if kind == "pool_create_failed":
                shutdown_pool()
            self.metrics.inc("procs.pool_fallback")
            self._degrade(kind, None, 1, f"{what}: {_describe(exc)}")
            raise _NoPool from exc
        try:
            return self._dispatch(pool, (segment.name, segment.size),
                                  opts, binary, tasks)
        finally:
            # The one unlink point: runs on success, on every ladder
            # rung and on the exception that triggers the serial
            # fallback, so no parse outcome can leak the segment.
            segment.unlink()

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

    def _dispatch(self, pool, segment: tuple[str, int] | None, opts,
                  binary, tasks: list[ShardTask]) -> list[ShardDelta]:
        """The fault-tolerant fan-out: every attempt of every shard.

        ``submit`` makes each attempt: on ``pool`` one ``AsyncResult``,
        collected under the shard deadline; inline (``pool`` None) the
        delta itself, made in place.  A timeout, an error handing the
        result over (``pool_error``) and an unusable delta are each one
        failed attempt.  A shard gets :data:`MAX_RETRIES` + 1 attempts,
        in either mode; a failed last attempt raises
        :class:`ShardFailedError`, which ``sharded_parse`` records as
        the serial rung.

        Shards are collected in submission order, so fault events come
        out in that order too; the merge starts once every delta is in.
        """
        m = self.metrics
        plan = self.fault_plan
        deltas: dict[int, ShardDelta] = {}
        attempt = {t.shard_id: 0 for t in tasks}
        retried = ("procs.retry.inline" if pool is None
                   else "procs.retry.dispatch")

        def submit(t: ShardTask):
            a = attempt[t.shard_id] = attempt[t.shard_id] + 1
            if pool is None:
                return t, _attempt_shard(binary, opts, m.enabled, t, a,
                                         plan, in_worker=False)
            payload = (segment, opts, m.enabled, t, a, plan)
            return t, pool.apply_async(_parse_shard, (payload,))

        waiting = [submit(t) for t in tasks]
        while waiting:
            t, ar = waiting.pop(0)
            a = attempt[t.shard_id]
            try:
                delta = (ar if isinstance(ar, ShardDelta)
                         else ar.get(timeout=self.shard_deadline))
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
                    continue
                m.inc("procs.shard_failed")
                kind = "shard_failed"
            if a > MAX_RETRIES:
                raise ShardFailedError(t.shard_id, a, reason)
            self._record_fault(kind, t.shard_id, a, "retry", reason)
            m.inc(retried)
            waiting.append(submit(t))
        return [deltas[t.shard_id] for t in tasks]


def _describe(exc: BaseException) -> str:
    """One line naming an exception: the reason a fault event carries."""
    return f"{type(exc).__name__}: {exc}".splitlines()[0]
