"""Vector-clock happens-before race detection for the vtime runtime.

The paper's correctness argument (Sections 5–6) rests on every access
to shared parser state being ordered by one of three synchronization
mechanisms: task spawn/wait (fork-join), ``SimLock`` critical sections
(the concurrent hash map's entry accessors), and the map's internal
shard locks.  This module checks that claim dynamically: the
virtual-time runtime reports every synchronization operation to a
:class:`RaceDetector`, instrumented shared structures report their
reads and writes, and the detector flags any pair of conflicting
accesses not ordered by the happens-before relation.

The detector is FastTrack-flavoured: one vector clock per worker, a
last-write epoch plus a per-worker read map per location.  Because the
vtime backend is token-serialized, detector state needs no locking of
its own — only the worker holding the execution token ever calls in.

A single vtime schedule only witnesses races that that interleaving
makes visible, so :func:`run_race_sweep` re-runs a workload across a
seeded family of schedules (``schedule_seed`` perturbs tie-break ranks
and spawn/pop jitter) and accumulates findings into one deterministic
report: same seeds in, byte-identical report out.  Schedule seeds are
*split* from the single ``base_seed`` via :mod:`repro.seeds` — never
derived arithmetically (overlapping ``base_seed`` ranges would share
schedules) and never drawn from module-level ``random`` state.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import PurePath
from typing import Any

from repro.schema import RACES_SCHEMA

#: Filenames whose frames are skipped when attributing an access to a
#: source site: the detector itself and the instrumented runtime layers.
_SKIP_FRAMES = ("races.py", "conchash.py", "vtime.py", "api.py")


def _format_path(filename: str) -> str:
    """Render a frame filename machine-independently (repo-relative)."""
    parts = PurePath(filename).parts
    for anchor in ("repro", "tests"):
        if anchor in parts:
            i = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[i:])
    return PurePath(filename).name


def _caller_site() -> str:
    """``file:line`` of the nearest frame outside the runtime layers."""
    frame = sys._getframe(1)
    while frame is not None:
        fname = frame.f_code.co_filename
        if not fname.endswith(_SKIP_FRAMES):
            return f"{_format_path(fname)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _fmt_loc(loc: Any) -> str:
    if isinstance(loc, tuple):
        if len(loc) >= 2 and loc[0] == "map":
            keys = ",".join(
                f"{k:#x}" if isinstance(k, int) else str(k)
                for k in loc[2:])
            return f"map.{loc[1]}[{keys}]"
        return ".".join(str(x) for x in loc)
    return str(loc)


class _Loc:
    """Per-location access state: last-write epoch + read map."""

    __slots__ = ("write", "write_site", "reads")

    def __init__(self) -> None:
        self.write: tuple[int, int] | None = None   # (wid, clk)
        self.write_site: str | None = None
        self.reads: dict[int, tuple[int, str]] = {}  # wid -> (clk, site)


class RaceDetector:
    """Happens-before checker fed by vtime hooks and shared-state probes.

    One detector instance can observe many runs (a schedule sweep);
    vector clocks and location state reset per run while findings
    accumulate, deduplicated by (location, kind, sites).
    """

    def __init__(self) -> None:
        self._vc: list[list[int]] = []
        self._locks: dict[int, list[int]] = {}
        self._groups: dict[int, list[int]] = {}
        self._locs: dict[Any, _Loc] = {}
        self._seed: int | None = None
        self.seeds: list[int | None] = []
        self.events = 0
        self.events_this_run = 0
        #: (location, kind, sites) -> {"count": n, "first_seed": seed}
        self.findings: dict[tuple, dict[str, Any]] = {}

    # ------------------------------------------------------------ lifecycle

    def begin_run(self, n_workers: int, seed: int | None) -> None:
        """Reset per-run state; called by the runtime at ``run()``."""
        self._vc = [[0] * n_workers for _ in range(n_workers)]
        for i in range(n_workers):
            self._vc[i][i] = 1
        self._locks.clear()
        self._groups.clear()
        self._locs.clear()
        self._seed = seed
        self.seeds.append(seed)
        self.events_this_run = 0

    def end_run(self) -> None:
        """Hook for symmetry; per-run state is reset by begin_run."""

    # ------------------------------------------------------ synchronization

    def _join(self, dst: list[int], src: list[int]) -> None:
        for i, v in enumerate(src):
            if v > dst[i]:
                dst[i] = v

    def on_spawn(self, wid: int) -> list[int]:
        """Task spawn: capture the spawner's clock as the task's token."""
        token = list(self._vc[wid])
        self._vc[wid][wid] += 1
        return token

    def on_task_start(self, wid: int, token: list[int] | None) -> None:
        if token is not None:
            self._join(self._vc[wid], token)

    def on_task_done(self, wid: int, group_id: int) -> None:
        """Task completion: publish the worker's clock to the group."""
        g = self._groups.setdefault(group_id, [0] * len(self._vc))
        self._join(g, self._vc[wid])
        self._vc[wid][wid] += 1

    def on_group_wait(self, wid: int, group_id: int) -> None:
        """Group wait return: the waiter sees every member's effects."""
        g = self._groups.get(group_id)
        if g is not None:
            self._join(self._vc[wid], g)

    def on_acquire(self, wid: int, lock_id: int) -> None:
        vc = self._locks.get(lock_id)
        if vc is not None:
            self._join(self._vc[wid], vc)

    def on_release(self, wid: int, lock_id: int) -> None:
        me = self._vc[wid]
        vc = self._locks.setdefault(lock_id, [0] * len(me))
        self._join(vc, me)
        me[wid] += 1

    # ------------------------------------------------------------- accesses

    def _record(self, kind: str, loc: Any, site_a: str, site_b: str) -> None:
        key = (_fmt_loc(loc), kind, tuple(sorted((site_a, site_b))))
        rec = self.findings.get(key)
        if rec is None:
            self.findings[key] = {"count": 1, "first_seed": self._seed}
        else:
            rec["count"] += 1

    def read(self, wid: int, loc: Any, site: str | None = None) -> None:
        self.events += 1
        self.events_this_run += 1
        if site is None:
            site = _caller_site()
        st = self._locs.get(loc)
        if st is None:
            st = self._locs[loc] = _Loc()
        vc = self._vc[wid]
        w = st.write
        if w is not None and w[0] != wid and w[1] > vc[w[0]]:
            self._record("write-read", loc, st.write_site or "?", site)
        st.reads[wid] = (vc[wid], site)

    def write(self, wid: int, loc: Any, site: str | None = None) -> None:
        self.events += 1
        self.events_this_run += 1
        if site is None:
            site = _caller_site()
        st = self._locs.get(loc)
        if st is None:
            st = self._locs[loc] = _Loc()
        vc = self._vc[wid]
        w = st.write
        if w is not None and w[0] != wid and w[1] > vc[w[0]]:
            self._record("write-write", loc, st.write_site or "?", site)
        for t, (clk, rsite) in st.reads.items():
            if t != wid and clk > vc[t]:
                self._record("read-write", loc, rsite, site)
        st.write = (wid, vc[wid])
        st.write_site = site
        st.reads.clear()

    # --------------------------------------------------------------- report

    def report(self, workload: str = "", n_workers: int = 0) -> dict:
        """Deterministic, JSON-ready findings document."""
        findings = [
            {
                "location": key[0],
                "kind": key[1],
                "sites": list(key[2]),
                "count": rec["count"],
                "first_seed": rec["first_seed"],
            }
            for key, rec in sorted(self.findings.items())
        ]
        return {
            "schema": RACES_SCHEMA,
            "workload": workload,
            "n_workers": n_workers,
            "seeds": list(self.seeds),
            "schedules": len(self.seeds),
            "events": self.events,
            "findings": findings,
        }


def run_race_sweep(
    workload: Callable[[Any], Any],
    *,
    n_workers: int = 4,
    schedules: int = 8,
    base_seed: int = 0,
    cost_model: Any = None,
    detector: RaceDetector | None = None,
    workload_name: str = "workload",
    metrics: Any = None,
) -> dict:
    """Run ``workload(rt)`` under ``schedules`` seeded vtime schedules.

    ``workload`` receives a fresh race-instrumented
    :class:`~repro.runtime.vtime.VirtualTimeRuntime` per schedule and
    must drive it itself (call ``rt.run``).  Findings accumulate across
    the whole sweep; the returned report is deterministic for a given
    (workload, n_workers, schedules, base_seed): schedule seeds are
    split off ``base_seed`` (see :mod:`repro.seeds`), so sweeps with
    different base seeds explore disjoint schedule families.  When
    ``metrics`` is a registry, ``sanity.race.*`` counters are recorded
    on it.
    """
    from repro.runtime.vtime import VirtualTimeRuntime
    from repro.seeds import derive_seeds

    det = detector if detector is not None else RaceDetector()
    for seed in derive_seeds(base_seed, schedules, "race-sweep"):
        rt = VirtualTimeRuntime(
            n_workers, cost_model=cost_model,
            schedule_seed=seed, race_detector=det)
        workload(rt)
        if metrics is not None:
            metrics.inc("sanity.race.schedules")
            metrics.inc("sanity.race.events", det.events_this_run)
    rep = det.report(workload=workload_name, n_workers=n_workers)
    if metrics is not None:
        metrics.inc("sanity.race.findings", len(rep["findings"]))
    return rep
