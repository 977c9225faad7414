"""One workload in one process: set-up, then the closed measuring loop.

Spawned by ``run.py`` (never run by hand), so that peak memory, heap
state and the worker pool belong to exactly one workload.  Modes:

- ``setup``   — set-up only; ``run.py`` repeats it to report the median;
- ``measure`` — set-up, the workload's further inputs if it takes turns
  on several, then one client issuing back-to-back operations until
  ``--seconds`` is spent (or ``--ops`` are done);
- ``trace``   — set-up, a short measuring loop, then the per-layer pass
  of ``layers.py``.

Around every operation, outside the timed region: ``gc.collect()`` (so
the previous CFG's cyclic garbage is not collected inside the next
operation), the calibration probe, and the validity check.  The last
stdout line is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import hostcal

ROOT = Path(__file__).resolve().parents[2]

#: Fewest operations a measuring loop reports on, whatever ``--seconds``
#: (and no fewer than two on each of the workload's inputs).
MIN_OPS = 3


def measure(op, verify, seconds: float | None, max_ops: int | None,
            wl=None) -> list[dict]:
    """The closed loop: one client, next op only after the previous one
    is complete and checked.  Each record carries the op's raw wall and
    process-tree CPU, the probes on either side, GC activity inside the
    op, ``input`` (which of ``wl``'s inputs it ran on) and ``fail``
    (``None`` or the reason)."""
    min_ops = max(MIN_OPS, 2 * len(wl.inputs)) if wl else MIN_OPS
    records: list[dict] = []
    gc.collect()
    before = hostcal.probe()
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        meter = hostcal.GcMeter()
        out, fail = None, None
        own0, kids0 = hostcal.tree_cpu()
        t0 = time.perf_counter()
        try:
            with meter:
                out = op()
        except Exception as exc:
            fail = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        own1, kids1 = hostcal.tree_cpu()
        if fail is None:
            fail = verify(out)
        del out
        gc.collect()
        after = hostcal.probe()
        records.append({
            "wall": wall, "cpu": (own1 - own0) + (kids1 - kids0),
            "cpu_workers": kids1 - kids0,
            "input": 0 if wl is None else wl.last_input,
            "probe_before": before, "probe_after": after,
            "gc_s": meter.seconds, "gc_gen2": meter.gen2, "fail": fail})
        before = after
        n = len(records)
        if (n >= max_ops if max_ops is not None
                else n >= min_ops and time.perf_counter() >= deadline):
            return records


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.perf_counter() at spawn")
    args = ap.parse_args()

    first_probe = hostcal.probe()
    scratch = ROOT / ".bench_e2e" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads            # imports repro: part of the set-up
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale,
                                                scratch)
        ready = time.perf_counter()
        gc.collect()
        doc = {
            "pins": {wl.pin_key: wl.pins()},
            "setup": {"raw_s": ready - args.spawned_at - first_probe[0],
                      "probe_before": first_probe,
                      "probe_after": hostcal.probe()},
        }
        if args.mode == "measure":
            wl.more_inputs()
            doc["ops"] = measure(wl.op, wl.verify, args.seconds, args.ops,
                                 wl)
        elif args.mode == "trace":
            import layers
            doc["ops"] = measure(wl.op, wl.verify, None,
                                 args.ops or layers.TRACE_OPS)
            doc["layers"] = layers.trace(wl, doc["ops"], measure)
        workers = hostcal.worker_pids()
        doc["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + sum(hostcal.pid_hwm_mb(pid) for pid in workers))
        # Cross-check of the /proc accounting: what we saw the workers
        # burn must be what the kernel bills for reaped children.
        seen = sum(hostcal.pid_cpu_s(pid) for pid in workers)
        from repro.runtime.procs import shutdown_pool
        shutdown_pool()
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        doc["workers_cpu_seen_s"] = seen
        doc["children_rusage_s"] = kids.ru_utime + kids.ru_stime
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:          # another child's scratch is in there
            pass
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
