"""Shared-memory image transport for the procs backend.

The naive way to hand a binary to pool workers is to pickle its image
bytes into every task payload — N shards ship N copies of the whole
binary through the pool's pipes.  This module is the zero-copy
replacement: the coordinator publishes the serialized image **once**
into a POSIX shared-memory segment (:class:`ImageSegment`), task
payloads carry only the segment's *name* and payload length, and each
worker attaches by name and deserializes the binary over a read-only
:class:`memoryview` of the mapping (:func:`attach_view`) — section
payloads and the decoder's code buffer alias the segment, so the image
crosses the process boundary zero times after publication.

Lifecycle guarantees (tested in ``tests/runtime/test_shm.py``):

- **Coordinator owns the name.**  Only the coordinator ever calls
  ``unlink``; :meth:`ImageSegment.unlink` runs in a ``finally`` around
  the dispatch loop, so the segment is removed on success, on every
  fault-ladder rung, on degradation and on the serial fallback.  A
  module-level registry plus an ``atexit`` sweep (:func:`sweep`)
  catches any segment a crashed parse left behind, and
  :func:`live_segments` makes the registry observable for leak tests.
  For coordinators that died without running atexit at all (SIGKILL,
  ``os._exit``), :func:`sweep_orphans` scans ``/dev/shm`` for
  ``repro-img-*`` names whose embedded owner pid no longer exists and
  unlinks them — run at corpus-driver startup and from the atexit
  sweep, never touching segments whose owner is still alive.
- **Workers never own anything.**  :func:`attach_view` suppresses
  ``multiprocessing.resource_tracker`` registration for the attach —
  Python < 3.13 has no ``track=False``, and a tracked worker-side
  attach would double-unlink the coordinator's segment at worker exit
  (bpo-38119).  :func:`release_view` closes the worker's mapping when
  the procs worker replaces its binary with a new segment's; a mapping
  that still has exported buffers (sections of a binary an exception
  still holds alias it) survives in a graveyard list rather than
  raising, and dies with the worker process.
- **Unlink is decoupled from attachment.**  POSIX keeps the segment
  alive until the last mapping closes, so the coordinator can unlink as
  soon as every shard result has been collected or abandoned — a
  straggling worker still parsing an abandoned attempt keeps its
  mapping; a worker attaching *after* the unlink fails cleanly and the
  retry ladder handles it.

When shared memory is unavailable (no ``/dev/shm``, sandboxed
``shm_open``) — or when the deterministic ``shm`` fault site fires
(:mod:`repro.runtime.faults`) — the procs backend records the fault
and parses serially; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import atexit
import itertools
import os

#: Segment names start with this prefix so leak checks (and humans
#: inspecting ``/dev/shm``) can attribute them.
SEGMENT_PREFIX = "repro-img-"

#: Coordinator-side registry of segments published but not yet
#: unlinked, keyed by name.  The atexit sweep unlinks leftovers.
_LIVE: dict[str, "ImageSegment"] = {}

#: Name source: pid + counter keeps names unique within a process and
#: distinguishable across coordinators sharing one machine.
_COUNTER = itertools.count(1)

#: Worker-side mappings whose close raised ``BufferError`` (sections of
#: a binary an exception still holds alias them).  Holding the handle
#: keeps the mapping valid; it is reclaimed when the worker process
#: exits.
_GRAVEYARD: list[object] = []


class ImageSegment:
    """One published image: a named shared-memory segment, coordinator side.

    ``size`` is the payload length, not the mapping length — the kernel
    rounds mappings up to page granularity, so attachers must slice.
    """

    __slots__ = ("_shm", "name", "size")

    def __init__(self, shm, size: int):
        self._shm = shm
        self.name = shm.name
        self.size = size

    @classmethod
    def create(cls, payload: bytes) -> "ImageSegment":
        """Publish ``payload`` under a fresh ``repro-img-*`` name."""
        from multiprocessing import shared_memory

        shm = None
        for _ in range(64):
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{next(_COUNTER)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, len(payload)))
                break
            except FileExistsError:  # leftover from a recycled pid
                continue
        if shm is None:  # pragma: no cover - 64 collisions in a row
            raise FileExistsError(
                f"could not allocate a fresh {SEGMENT_PREFIX}* name")
        shm.buf[:len(payload)] = payload
        seg = cls(shm, len(payload))
        _LIVE[seg.name] = seg
        return seg

    def unlink(self) -> None:
        """Close the mapping and remove the name (idempotent)."""
        if _LIVE.pop(self.name, None) is None:
            return
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - coordinator holds no views
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def live_segments() -> list[str]:
    """Names of segments this process has published and not unlinked."""
    return sorted(_LIVE)


def sweep() -> None:
    """Unlink every still-live segment (atexit safety net)."""
    for seg in list(_LIVE.values()):
        seg.unlink()


#: Where the kernel exposes POSIX shared memory names (Linux).  Orphan
#: sweeping is a best-effort extra on platforms that have it.
_SHM_DIR = "/dev/shm"


def _owner_pid(name: str) -> int | None:
    """The pid baked into a ``repro-img-<pid>-<n>`` name, or None."""
    rest = name[len(SEGMENT_PREFIX):]
    pid, _, counter = rest.partition("-")
    if pid.isdigit() and counter.isdigit():
        return int(pid)
    return None


def sweep_orphans() -> list[str]:
    """Reap ``repro-img-*`` segments whose owner process is dead.

    The atexit :func:`sweep` only covers *this* process's registry — a
    coordinator killed with ``SIGKILL`` (or ``os._exit``, as the
    ``coordinator-kill`` fault site models) never runs it, and its
    segments outlive it in ``/dev/shm`` forever.  Segment names embed
    the publishing pid precisely so a later process can attribute them:
    this scans the kernel's view, probes each embedded pid with
    ``kill(pid, 0)``, and unlinks names whose owner no longer exists.
    Live owners (including this process) are never touched, so
    concurrent coordinators sharing the machine are safe.  Returns the
    names reaped; callers (the corpus driver at startup, the atexit
    sweep) treat it as best-effort.
    """
    reaped: list[str] = []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return reaped
    for name in names:
        if not name.startswith(SEGMENT_PREFIX) or name in _LIVE:
            continue
        pid = _owner_pid(name)
        if pid is None or pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # owner is alive: its segment, not ours to reap
        except ProcessLookupError:
            pass  # owner is dead: orphan
        except PermissionError:  # pragma: no cover - pid exists, other uid
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            reaped.append(name)
        except OSError:  # pragma: no cover - raced another sweeper
            pass
    return sorted(reaped)


def _sweep_all() -> None:  # pragma: no cover - exercised via atexit
    sweep()
    sweep_orphans()


atexit.register(_sweep_all)


def attach_view(name: str, size: int) -> tuple[memoryview, tuple]:
    """Worker side: map a published segment read-only.

    Returns ``(view, handle)``: ``view`` is a read-only memoryview of
    the payload (length ``size``, not the page-rounded mapping), and
    ``handle`` must be passed to :func:`release_view` when the worker
    is done with every object built over the view.
    """
    from multiprocessing import resource_tracker, shared_memory

    # The coordinator owns the name; a worker-side attach must not
    # register with the (shared, forked) resource tracker, or the
    # tracker would unlink the coordinator's segment at worker exit and
    # double-unregisters across workers raise in the tracker process.
    # Python < 3.13 has no ``track=False``, so registration is
    # suppressed for the duration of the attach (pool workers are
    # single-threaded, so the swap cannot race another register).
    orig_register = resource_tracker.register

    def _skip_shm(name_, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _skip_shm
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register
    view = shm.buf[:size].toreadonly()
    return view, (shm, view)


def release_view(handle: tuple) -> None:
    """Worker side: drop a mapping obtained from :func:`attach_view`.

    Never raises: a mapping still aliased by live section buffers
    cannot be closed (``BufferError``) and parks in the graveyard
    instead — it is reclaimed when the worker process exits.
    """
    shm, view = handle
    try:
        view.release()
    except BufferError:
        pass
    try:
        shm.close()
    except BufferError:
        _GRAVEYARD.append(shm)
