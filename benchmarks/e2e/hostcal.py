"""Host calibration: what a second is worth on this machine, right now.

Sizing runs for this benchmark saw the same code drift by up to 1.7x
over minutes (in CPU seconds as much as in wall seconds), so no raw
time is comparable between two runs.  Every timed operation is
therefore bracketed by :func:`probe` — a fixed amount of interpreter
work (dict, slotted-object and method-call mix, the parser's own diet)
— and reported as ``op × PROBE_REF_S / probe``: seconds at the speed of
a reference host on which the probe takes exactly ``PROBE_REF_S``.

Also here: the 2-process effective-parallelism probe (the affinity mask
says 2 CPUs; what two CPU-bound processes actually get is measured),
process-tree CPU accounting from ``/proc``, GC accounting, and the
quartile summary every timing row prints.

Stdlib only — this module must import before ``repro`` does, so the
first probe of a child process can precede the imports it times.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import statistics
import time

#: Seconds :func:`probe` takes on the reference host.  A constant of
#: the benchmark, never re-measured: changing it rescales every
#: ``wall_s``/``cpu_s`` ever reported.
PROBE_REF_S = 0.1

#: Loop trips of one probe (~100 ms on the sizing host: long enough to
#: average over the host's sub-100 ms jitter, short next to a ~1 s op).
PROBE_ITERS = 500_000

_TICK = os.sysconf("SC_CLK_TCK")


class _Cell:
    __slots__ = ("v", "n")

    def __init__(self, v: int):
        self.v = v
        self.n = 0

    def bump(self, d: int) -> int:
        self.n += 1
        self.v = (self.v * 31 + d) & 0xFFFF
        return self.v


def probe(iters: int = PROBE_ITERS) -> tuple[float, float]:
    """Run the calibration loop; returns ``(wall_s, cpu_s)``.

    GC is disabled inside so a collection triggered by the caller's
    heap cannot land in the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        c0 = time.process_time()
        cells = [_Cell(i) for i in range(64)]
        table: dict[int, int] = {}
        get = table.get
        for i in range(iters):
            k = cells[i & 63].bump(i)
            table[k] = get(k, 0) + 1
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def normalise(value: float, probe_before: float, probe_after: float
              ) -> float:
    """``value`` in seconds at reference host speed."""
    return value * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


def op_times(ops: list[dict]) -> tuple[list[dict], list[float], list[float]]:
    """The measuring loop's records that count — those that passed
    (all of them if none did) — and their wall and process-tree CPU
    seconds at reference host speed."""
    good = [o for o in ops if o["fail"] is None] or ops
    return (good,
            [normalise(o["wall"], o["probe_before"][0], o["probe_after"][0])
             for o in good],
            [normalise(o["cpu"], o["probe_before"][1], o["probe_after"][1])
             for o in good])


def over_inputs(ops: list[dict], values: list[float]
                ) -> tuple[list[float], float]:
    """One number for a loop that took turns on several inputs: the
    mean over inputs of each input's median, so that every input weighs
    the same however many turns it got.  Returned after ``values`` with
    each input's samples rescaled to that number (what is left is the
    run-to-run spread, not the inputs' differences).  With one input:
    ``values`` themselves and their median."""
    by_input: dict[int, list[float]] = {}
    for o, v in zip(ops, values):
        by_input.setdefault(o["input"], []).append(v)
    medians = {j: statistics.median(vs) for j, vs in by_input.items()}
    value = statistics.fmean(medians.values())
    return [v * value / medians[o["input"]]
            for o, v in zip(ops, values)], value


def _burn(iters: int) -> float:
    return probe(iters)[0]


def effective_parallelism(iters: int = 4 * PROBE_ITERS) -> float:
    """Throughput of two concurrent CPU-bound processes relative to
    one: 2.0 on two real cores, ~1.0 on one core sold as two.

    Both sides run in forked children so neither pays for this
    process's heap; the serial side is one child run alone.
    """
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        pool.map(_burn, [1000, 1000])          # both workers are up
        alone = min(pool.apply(_burn, (iters,)) for _ in range(2))
        t0 = time.perf_counter()
        pool.map(_burn, [iters, iters], chunksize=1)
        together = time.perf_counter() - t0
    return 2.0 * alone / together


# -- process-tree CPU ---------------------------------------------------------

def pid_cpu_s(pid: int) -> float:
    """utime+stime of ``pid`` from ``/proc/<pid>/stat`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b") ", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def pid_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def tree_cpu() -> tuple[float, float]:
    """``(coordinator_cpu_s, workers_cpu_s)`` of this process tree."""
    return (time.process_time(),
            sum(pid_cpu_s(pid) for pid in worker_pids()))


# -- GC accounting ------------------------------------------------------------

class GcMeter:
    """Seconds spent in, and full collections run by, the cyclic GC
    while installed (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)


# -- summaries ----------------------------------------------------------------

def summarise(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile that still has at
    least ten samples beyond it (``None`` below 20 samples)."""
    vals = sorted(values)
    n = len(vals)
    if n >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    out = {"n": n, "median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0,
           "tail_pct": None, "tail": None}
    if n >= 20:
        pct = math.floor(100.0 * (n - 10) / n)
        out["tail_pct"] = pct
        out["tail"] = vals[n - 11]
    return out
