"""Shared-memory transport lifecycle: no segment outlives its parse.

The zero-copy transport (``repro.runtime.shm``) trades per-task pickled
image copies for one named POSIX segment per run, which makes *cleanup*
the correctness property: a leaked ``/dev/shm/repro-img-*`` name is a
resource leak that survives the process.  This matrix pins the
guarantee ISSUE 6 demands — the coordinator unlinks the segment on
normal exit, on every rung of the degradation ladder and under a killed
worker — plus the unit behavior of
:class:`ImageSegment` itself (payload slicing over the page-rounded
mapping, idempotent unlink, the atexit sweep and the worker-side
graveyard for still-aliased mappings).

Leak checks look at both the coordinator registry
(:func:`live_segments`) and the kernel's view (``/dev/shm`` globbing,
where the mount exists) so a registry bug can't hide a real leak.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import parse_binary
from repro.runtime import ProcsRuntime, SerialRuntime
from repro.runtime.faults import FaultPlan
from repro.runtime.shm import (
    ImageSegment,
    SEGMENT_PREFIX,
    attach_view,
    live_segments,
    release_view,
    sweep,
    sweep_orphans,
)
from repro.synth import tiny_binary

_SRC = Path(__file__).resolve().parents[2] / "src"


def _pool_works() -> bool:
    try:
        with multiprocessing.get_context().Pool(1) as p:
            return p.apply(int, ("1",)) == 1
    except Exception:
        return False


needs_pool = pytest.mark.skipif(not _pool_works(),
                                reason="multiprocessing pool unavailable")


def _kernel_segments(owner: int | None = None) -> list[str]:
    """``repro-img-*`` names the kernel still knows about (best effort:
    only meaningful where shared memory is backed by a /dev/shm mount);
    with ``owner``, only those published by that pid.

    Leak checks pass this process's pid: only a coordinator publishes
    a segment, and the tests' coordinator is this process, so no leak
    of ours is filtered out, while another repro process running on the
    machine at the same time cannot fail the check.
    """
    owned = "" if owner is None else f"{owner}-"
    return sorted(os.path.basename(p)
                  for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{owned}*"))


@pytest.fixture(scope="module")
def workload():
    sb = tiny_binary(seed=5, n_functions=24)
    want = parse_binary(sb.binary, SerialRuntime()).signature()
    return sb, want


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test starts and ends with zero live segments."""
    sweep()
    before = _kernel_segments(os.getpid())
    yield
    assert live_segments() == []
    assert _kernel_segments(os.getpid()) == before


class TestImageSegment:
    def test_create_attach_roundtrip(self):
        # 5000 bytes is deliberately not page-aligned: the mapping is
        # page-rounded, so the attach must slice to the payload length.
        payload = bytes(range(256)) * 20 + b"tail"
        seg = ImageSegment.create(payload)
        try:
            assert seg.name.startswith(SEGMENT_PREFIX)
            assert seg.size == len(payload)
            assert seg.name in live_segments()
            view, handle = attach_view(seg.name, seg.size)
            assert len(view) == len(payload)
            assert bytes(view) == payload
            assert view.readonly
            release_view(handle)
        finally:
            seg.unlink()
        assert seg.name not in live_segments()

    def test_unlink_is_idempotent(self):
        seg = ImageSegment.create(b"x")
        seg.unlink()
        seg.unlink()  # second call is a no-op, not an error
        assert live_segments() == []

    def test_attach_after_unlink_fails_cleanly(self):
        seg = ImageSegment.create(b"payload")
        seg.unlink()
        with pytest.raises(FileNotFoundError):
            attach_view(seg.name, seg.size)

    def test_sweep_reclaims_leftovers(self):
        a = ImageSegment.create(b"a")
        b = ImageSegment.create(b"b")
        assert live_segments() == sorted([a.name, b.name])
        sweep()
        assert live_segments() == []

    def test_release_view_parks_aliased_mapping(self):
        # A mapping whose view still has exported buffers cannot close;
        # release_view must park it in the graveyard instead of raising.
        from repro.runtime import shm as shm_mod

        seg = ImageSegment.create(b"aliased-payload")
        try:
            view, handle = attach_view(seg.name, seg.size)
            alias = view[2:9]  # keeps the mapping's buffer exported
            depth = len(shm_mod._GRAVEYARD)
            release_view(handle)
            assert len(shm_mod._GRAVEYARD) == depth + 1
            assert bytes(alias) == b"iased-p"  # still readable
            alias.release()
        finally:
            seg.unlink()


@needs_pool
class TestParseLifecycle:
    """The coordinator unlinks its segment on every exit path."""

    def _run(self, workload, plan=None, shard_deadline=30.0):
        sb, want = workload
        fp = FaultPlan.from_spec(plan) if plan else None
        rt = ProcsRuntime(2, fault_plan=fp, shard_deadline=shard_deadline)
        assert parse_binary(sb.binary, rt).signature() == want
        return rt

    def test_normal_exit_unlinks(self, workload):
        rt = self._run(workload)
        assert rt.metrics.counter("procs.shm.segments") >= 1
        assert rt.metrics.counter("procs.shm.bytes") > 0

    def test_shard_retry_rung_unlinks(self, workload):
        rt = self._run(workload, plan="exc@0x1")
        assert rt.degradation["level"] == "none"

    def test_killed_worker_unlinks(self, workload):
        # The killed shard is only noticed at its deadline: keep it short.
        rt = self._run(workload, plan="kill@0x1", shard_deadline=1.0)
        # A killed worker surfaces as a pool-level fault on the ladder.
        assert any(e["kind"] in ("pool_error", "shard_timeout")
                   for e in rt.fault_events)

    def test_pool_broken_serial_rung_unlinks(self, workload):
        rt = self._run(workload, plan="pool")
        assert rt.degradation["level"] == "serial"
        assert [(e["kind"], e["action"]) for e in rt.fault_events] == [
            ("pool_create_failed", "serial")]
        assert rt.metrics.counter("procs.pool_fallback") == 1

    def test_serial_rung_unlinks(self, workload):
        rt = self._run(workload, plan="excx99")
        assert rt.degradation["level"] == "serial"

    def test_shm_fault_publishes_nothing(self, workload):
        rt = self._run(workload, plan="shm")
        assert rt.metrics.counter("procs.shm.segments") == 0
        assert rt.metrics.counter("procs.pool_fallback") == 1
        assert rt.degradation["level"] == "serial"
        assert [(e["kind"], e["action"]) for e in rt.fault_events] == [
            ("shm_unavailable", "serial")]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm mount")
class TestOrphanSweep:
    """Dead-owner segments are reaped; live owners are never touched.

    A coordinator that dies via SIGKILL or ``os._exit`` (the
    ``coordinator-kill`` fault site) skips atexit entirely, so its
    segments outlive it — the scenario the corpus driver's startup
    sweep exists for.
    """

    def _leak_orphan(self) -> str:
        """A child process publishes a segment and dies hard; returns
        the leaked segment's name (which embeds the now-dead pid).

        The child unregisters the segment from its resource tracker
        first: a surviving tracker would unlink it at child death,
        whereas the scenario being modeled — kill -9 of the whole
        process group, an OOM-killed container — takes the tracker
        down with the coordinator and leaks the name for real.
        """
        code = ("import os\n"
                "from multiprocessing import resource_tracker\n"
                "from repro.runtime.shm import ImageSegment\n"
                "seg = ImageSegment.create(b'orphaned payload')\n"
                "resource_tracker.unregister(seg._shm._name,"
                " 'shared_memory')\n"
                "print(seg.name, flush=True)\n"
                "os._exit(0)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(_SRC) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        return out.stdout.strip()

    def test_dead_owner_segment_is_reaped(self):
        name = self._leak_orphan()
        assert name in _kernel_segments()  # it really leaked
        assert name in sweep_orphans()
        assert name not in _kernel_segments()

    def test_live_owner_segment_survives(self):
        orphan = self._leak_orphan()
        mine = ImageSegment.create(b"still owned")
        try:
            reaped = sweep_orphans()
            assert orphan in reaped
            assert mine.name not in reaped
            assert mine.name in _kernel_segments()
        finally:
            mine.unlink()

    def test_unparseable_names_are_left_alone(self):
        # prefix matches but no pid is embedded: not ours to judge
        path = Path("/dev/shm") / f"{SEGMENT_PREFIX}bogus-name"
        path.write_bytes(b"")
        try:
            assert path.name not in sweep_orphans()
            assert path.exists()
        finally:
            path.unlink()


def test_in_process_mode_publishes_nothing(workload):
    sb, want = workload
    rt = ProcsRuntime(2, in_process=True)
    assert parse_binary(sb.binary, rt).signature() == want
    assert rt.metrics.counter("procs.shm.segments") == 0
