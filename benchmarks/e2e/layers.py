"""The traced pass: where one operation's time goes, layer by layer.

Everything here observes ``repro`` from outside — no edit under
``src/``.  Two sources:

(T1) **a cProfile'd operation**, after a warm-up, aggregated per
     module: ``<layer>.self_share`` and ``<layer>.calls`` with layers
     named after ``src/repro`` modules, ``op.calls`` (an exact count:
     it must repeat between two profiled operations, and
     ``op.calls_drift`` says by how much it did not), and the
     cumulative share of four public functions.  Process-backed
     workloads shard in-process here (``in_process=True``), with one
     profiler per thread, so the workers' work is in the profile.

(T2) **spans and counters around public calls** on the workload's own
     input: the hot-path microbenchmarks, the two-shard pipeline
     composed stage by stage, ``rt.metrics.snapshot()`` of one real
     procs operation, the shm / journal / call-graph spans.

Every group of spans is bracketed by calibration probes and its time
values are scaled to reference-host speed like the end-to-end metrics.
A layer that does no work on a workload reports 0 there.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pickle
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import hostcal
import repro
from repro.analyses.callgraph import build_call_graph, condensation_waves
from repro.analyses.interproc import run_checkers, snapshot_function
from repro.binary import load_image
from repro.core import ParallelParser, ParseOptions, parse_binary
from repro.core.shard_merge import StreamingMerge, export_fragment
from repro.corpus import Journal, corpus_program
from repro.isa.decoder import Decoder
from repro.runtime import (ConcurrentHashMap, MetricsRegistry, ProcsRuntime,
                           SerialRuntime)
from repro.runtime.procs import ADDRESS_CEILING, shard_regions
from repro.runtime.shm import ImageSegment, attach_view, release_view
from repro.synth import synthesize

#: Untraced operations a ``trace`` child measures before the traced pass
#: (the base of ``host.trace_overhead`` and of the derived ratios).
TRACE_OPS = 4

#: Keys of the conchash / metrics microbenchmarks.
MICRO_KEYS = 100_000

#: Where ``repro`` was imported from, as cProfile spells its filenames.
_PKG = os.path.dirname(repro.__file__) + os.sep

#: Blocked, not busy: a thread waiting for another is left out of the
#: shares, which are of busy self time summed over threads.
_WAITING = "python.waiting"

#: ``metric -> (module path under repro/, function)`` for ``cum_share``.
_CUMULATIVE = {
    "core.finalize.cum_share": ("core/finalize.py", "finalize"),
    "core.jump_table.analyze_cum_share":
        ("core/jump_table.py", "analyze_jump_table"),
    "core.shard_merge.accept_cum_share": ("core/shard_merge.py", "accept"),
    "analyses.interproc.analyze_unit_cum_share":
        ("analyses/interproc.py", "analyze_unit"),
}


# -- T1: profile ---------------------------------------------------------------

def _layer_of(filename: str, funcname: str) -> str:
    if filename == "~":          # built-ins have no file
        if any(w in funcname for w in ("acquire", "sleep", "poll")):
            return _WAITING
        return "python.builtins"
    stem = os.path.splitext(os.path.basename(filename))[0]
    if not filename.startswith(_PKG):
        return (f"python.{stem}" if stem in ("contextlib", "threading")
                else "python.other")
    package = filename[len(_PKG):].split(os.sep)[0]
    if package in ("runtime", "core"):
        return f"{package}.{stem}"
    return os.path.splitext(package)[0]


def _profiled(fn) -> tuple[list, float]:
    """Run ``fn()`` under cProfile in this thread and in every thread
    it starts; returns ``(entries, wall_s)``.

    The entries are raw ``Profile.getstats()`` rows, one per code
    object: ``pstats`` keys rows by (file, line, name) and lets
    same-keyed rows overwrite each other — every generated dataclass
    ``__init__`` is ``("<string>", 2, "__init__")`` — which loses calls
    in an address-dependent way and breaks the exactness of ``op.calls``.
    """
    main = cProfile.Profile()
    per_thread: list[cProfile.Profile] = []

    def on_thread_start(*_event):
        prof = cProfile.Profile()
        try:
            prof.enable()       # replaces this hook for the thread
        except ValueError:      # 3.12+: ``main`` already sees all threads
            sys.setprofile(None)
            return
        per_thread.append(prof)

    before = set(threading.enumerate())
    threading.setprofile(on_thread_start)
    t0 = time.perf_counter()
    main.enable()
    try:
        fn()
    finally:
        main.disable()
        threading.setprofile(None)
    wall = time.perf_counter() - t0
    for t in set(threading.enumerate()) - before:
        t.join(timeout=10)
    entries = []
    for prof in (main, *per_thread):
        prof.disable()
        entries.extend(prof.getstats())
    return entries, wall


def profile(traced_op) -> dict:
    """T1 metrics of one profiled operation (already warmed up), plus
    ``_profiled_wall_s``."""
    entries, wall = _profiled(traced_op)
    again, _ = _profiled(traced_op)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    cumulative: Counter = Counter()
    for e in entries:
        if isinstance(e.code, str):              # a built-in
            filename, func = "~", e.code
        else:
            filename, func = e.code.co_filename, e.code.co_name
        layer = _layer_of(filename, func)
        self_s[layer] += e.inlinetime
        calls[layer] += e.callcount
        cumulative[filename, func] += e.totaltime
    del self_s[_WAITING]
    total = sum(self_s.values())
    out = {f"{layer}.self_share": s / total for layer, s in self_s.items()}
    out.update({f"{layer}.calls": n for layer, n in calls.items()})
    out["op.calls"] = sum(calls.values())
    out["op.calls_drift"] = abs(sum(e.callcount for e in again)
                                - out["op.calls"])
    for metric, (module, func) in _CUMULATIVE.items():
        out[metric] = cumulative[_PKG + module.replace("/", os.sep),
                                 func] / total
    out["_profiled_wall_s"] = wall
    return out


# -- T2: spans -----------------------------------------------------------------

@contextmanager
def span(acc: Counter, name: str):
    """Add the body's wall seconds to ``acc[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        acc[name] += time.perf_counter() - t0


def hot_path(wl) -> dict:
    """Microbenchmarks of what every parse leans on: decode, one map
    operation, one counter increment, and what metrics cost a parse."""
    s: Counter = Counter()
    n_insns = 0
    for binary in wl.binaries:
        text = binary.image.text
        dec = Decoder(text.data, text.addr)
        addr = dec.base
        with span(s, "decode"):
            while addr < dec.limit:
                insns, _cf = dec.linear_scan(addr)
                n_insns += len(insns)
                addr = insns[-1].end if insns else addr + 1

    keys = range(0x400000, 0x400000 + 4 * MICRO_KEYS, 4)
    cmap = ConcurrentHashMap(SerialRuntime(), name="bench")
    with span(s, "accessor"):
        for _pass in (0, 1):                      # create, then find
            for k in keys:
                with cmap.accessor(k) as acc:
                    acc.value = k
    with span(s, "get"):
        for k in keys:
            cmap.get(k)
    items = [(k, k) for k in keys]
    fresh = ConcurrentHashMap(SerialRuntime(), name="bench")
    with span(s, "install_many"):
        fresh.install_many(items)
    reg = MetricsRegistry()
    with span(s, "inc"):
        for _ in keys:
            reg.inc("bench.counter")

    # Interleaved so host drift hits both sides alike.
    for _pair in (0, 1):
        for label, enabled in (("metrics_on", True), ("metrics_off", False)):
            for binary in wl.binaries:
                with span(s, label):
                    parse_binary(binary,
                                 SerialRuntime(enable_metrics=enabled))
    return {
        "isa.decode_ns_per_insn": s["decode"] / n_insns * 1e9,
        "runtime.conchash.accessor_ns":
            s["accessor"] / (2 * MICRO_KEYS) * 1e9,
        "runtime.conchash.get_ns": s["get"] / MICRO_KEYS * 1e9,
        "runtime.conchash.install_many_ns_per_item":
            s["install_many"] / MICRO_KEYS * 1e9,
        "runtime.metrics.inc_ns": s["inc"] / MICRO_KEYS * 1e9,
        "runtime.metrics.overhead_share":
            1.0 - s["metrics_off"] / s["metrics_on"],
    }


def shard_pipeline(wl) -> dict:
    """The two-shard parse composed stage by stage in this process:
    what sharding costs before any IPC or scheduling is paid."""
    s: Counter = Counter()
    kb = 0.0
    opts = ParseOptions()
    for binary in wl.binaries:
        with span(s, "shard_regions"):
            regions = shard_regions(binary.entry_addresses(), 2)
        shipped = []
        for i, seeds in enumerate(regions):
            lo = 0 if i == 0 else seeds[0]
            hi = (regions[i + 1][0] if i + 1 < len(regions)
                  else ADDRESS_CEILING)
            rt = SerialRuntime()
            parser = ParallelParser(binary, rt, opts,
                                    seed_entries=list(seeds),
                                    owned_range=(lo, hi))
            with span(s, "fragment_parse"):
                rt.run(parser.execute_fragment)
            with span(s, "export"):
                frag = export_fragment(parser, i)
                insns = dict(parser.local_decode_cache())
            with span(s, "pickle"):
                blob = pickle.dumps((frag, insns), pickle.HIGHEST_PROTOCOL)
                shipped.append(pickle.loads(blob))
            kb += len(blob) / 1024.0

        coordinator = SerialRuntime()

        def merge():
            m = StreamingMerge(binary, coordinator, opts)
            for frag, insns in shipped:
                with span(s, "accept"):
                    m.accept(frag, insns)
            with span(s, "finish"):
                m.finish()

        coordinator.run(merge)
    return {
        "runtime.procs.shard_regions_ms": s["shard_regions"] * 1e3,
        "core.parallel_parser.fragment_parse_s": s["fragment_parse"],
        "core.shard_merge.export_s": s["export"],
        "runtime.procs.pickle_s": s["pickle"],
        "runtime.procs.fragment_kb": kb,
        "core.shard_merge.accept_s": s["accept"],
        "core.shard_merge.finish_s": s["finish"],
        # What an in-process sharded parse also does: all but pickling.
        "_inproc_s": sum(s.values()) - s["pickle"],
    }


def procs_snapshot(wl) -> dict:
    """The coordinator's own phase timers and counters for one real
    (pooled) sharded parse."""
    rt = ProcsRuntime(2)
    parse_binary(wl.binary, rt)
    snap = rt.metrics.snapshot()

    def hist_s(name):
        return snap["histograms"].get(name, {"sum": 0})["sum"] / 1e9

    out = {f"runtime.procs.{phase}_s":
           hist_s(f"procs.phase.{phase}_wall_ns")
           for phase in ("fanout", "install", "frontier", "wave",
                         "finalize")}
    out["runtime.procs.overlap_install_s"] = \
        hist_s("procs.overlap.install_wall_ns")
    for metric, counter in (("frontier_records", "procs.frontier.records"),
                            ("duplicate_insns", "procs.duplicate_insns"),
                            ("shm_bytes", "procs.shm.bytes")):
        out[f"runtime.procs.{metric}"] = snap["counters"].get(counter, 0)
    return out


def shm_transport(wl) -> dict:
    """Per-binary fixed costs of the image transport."""
    s: Counter = Counter()
    for binary in wl.binaries:
        payload = binary.image.to_bytes()
        with span(s, "publish"):
            seg = ImageSegment.create(payload)
        try:
            with span(s, "attach"):
                release_view(attach_view(seg.name, seg.size)[1])
        finally:
            seg.unlink()
        with span(s, "load"):
            load_image(payload)
    return {"runtime.shm.publish_ms": s["publish"] * 1e3,
            "runtime.shm.attach_ms": s["attach"] * 1e3,
            "binary.load_ms": s["load"] * 1e3}


def corpus_fixed_costs(wl) -> dict:
    """What one corpus op pays besides sharded parsing."""
    s: Counter = Counter()
    binaries = []
    for i in range(wl.config.count):
        with span(s, "synth"):
            binaries.append(synthesize(corpus_program(i, wl.seed)).binary)
    for binary in binaries:
        with span(s, "serial_parse"):
            parse_binary(binary, SerialRuntime(enable_metrics=False))
    with span(s, "journal"):
        journal = Journal.create(wl.scratch / "bench-journal.jsonl",
                                 wl.config.header(),
                                 batch=wl.config.journal_batch)
        for i in range(wl.config.count):
            journal.append({"kind": "completed", "index": i})
        journal.close()
    journal.path.unlink()
    return {"_synth_s": s["synth"], "_serial_parse_s": s["serial_parse"],
            "corpus.journal.flush_ms": s["journal"] * 1e3}


def analysis_stages(wl) -> dict:
    """The analyze op split at its public seams."""
    s: Counter = Counter()
    with span(s, "parse"):
        cfg = parse_binary(wl.binary, SerialRuntime())
    with span(s, "callgraph"):
        graph = build_call_graph(cfg)
        condensation_waves(graph)
    jt_by_block: dict = {}
    for jt in cfg.jump_tables:
        jt_by_block.setdefault(jt.block_start, []).append(jt)
    entry_set = set(graph.entries)
    with span(s, "snapshot"):
        for f in cfg.functions():
            snapshot_function(f, entry_set, jt_by_block)
    with span(s, "checkers"):
        result = run_checkers(cfg)
    return {
        "analyses.callgraph.build_ms": s["callgraph"] * 1e3,
        "analyses.interproc.snapshot_ms": s["snapshot"] * 1e3,
        "analyses.checkers_s": s["checkers"],
        "analyses.us_per_block": s["checkers"] / len(cfg.blocks()) * 1e6,
        "analyses.interproc.sccs": result.stats["sccs"],
        "analyses.interproc.waves": result.stats["waves"],
        "analyses.interproc.rounds": result.stats["rounds"],
        "core.parse_share": s["parse"] / (s["parse"] + s["checkers"]),
    }


# -- the pass ------------------------------------------------------------------

_UNITS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    ["per_layer"]}


def _calibrated(fn, *args) -> dict:
    """Run one span group between two probes and scale its time-valued
    metrics to reference-host speed.  Keys starting with ``_`` are
    intermediate seconds, not metrics."""
    before = hostcal.probe()[0]
    out = fn(*args)
    factor = hostcal.normalise(1.0, before, hostcal.probe()[0])
    scale = {"s": factor, "ms": factor, "us": factor, "ns": factor,
             "1/s": 1.0 / factor}
    return {k: v * scale.get("s" if k.startswith("_") else _UNITS.get(k), 1.0)
            for k, v in out.items()}


def medians(ops: list[dict]) -> dict:
    """Normalised and raw medians of a measuring loop's good ops."""
    good, wall, cpu = hostcal.op_times(ops)
    med = statistics.median
    return {
        "wall_s": med(wall), "cpu_s": med(cpu),
        "wall_raw_s": med(o["wall"] for o in good),
        "cpu_raw_s": med(o["cpu"] for o in good),
        "worker_cpu_share": (sum(o["cpu_workers"] for o in good)
                             / sum(o["cpu"] for o in good)),
        "probe_s": med(o["probe_after"][0] for o in good),
        "gc_s": med(o["gc_s"] for o in good),
        "gc_gen2": med(o["gc_gen2"] for o in good),
    }


def trace(wl, ops: list[dict], measure) -> dict:
    """Every per-layer metric ``wl`` has work in (the rest are 0 by
    definition; ``run.py`` fills them in).  ``ops`` are the records of
    the untraced loop just run; ``measure`` is that loop."""
    from workloads import CorpusProcs2, Llnl2Analyze, TfProcs2, TfSerial

    base = medians(ops)
    report = getattr(wl, "last_report", None)   # of the loop's last op
    out = {f"host.{k}": base[k] for k in
           ("probe_s", "wall_raw_s", "cpu_raw_s", "gc_s", "gc_gen2")}
    out["host.effective_parallelism"] = hostcal.effective_parallelism()

    # T1.  Pool workers cannot be profiled from here, so process-backed
    # workloads shard in-process; ``plain`` is that same op unprofiled.
    sharded = isinstance(wl, (TfProcs2, CorpusProcs2))
    if sharded:
        def traced_op():
            return wl.op(in_process=True)
        plain = medians(measure(traced_op, wl.verify, None, 2))
    else:
        traced_op, plain = wl.op, base
    t1 = _calibrated(profile, traced_op)
    out["host.trace_overhead"] = t1.pop("_profiled_wall_s") / plain["wall_s"]
    out.update(t1)

    # T2.
    out.update(_calibrated(hot_path, wl))
    if sharded:
        stages = _calibrated(shard_pipeline, wl)
        inproc_s = stages.pop("_inproc_s")
        out.update(stages)
        out.update(_calibrated(shm_transport, wl))
    if isinstance(wl, TfProcs2):
        out.update(_calibrated(procs_snapshot, wl))
        serial = medians(measure(lambda: TfSerial.op(wl),
                                 lambda o: TfSerial.verify(wl, o),
                                 None, TRACE_OPS))
        out["runtime.procs.work_inflation"] = base["cpu_s"] / serial["cpu_s"]
        out["runtime.procs.speedup"] = serial["wall_s"] / base["wall_s"]
        out["runtime.procs.worker_cpu_share"] = base["worker_cpu_share"]
        out["core.shard_merge.inproc_inflation"] = inproc_s / serial["cpu_s"]
        # Reconciliation: the composed stages are the in-process op.
        out["runtime.procs.stage_coverage"] = inproc_s / plain["cpu_s"]
    if isinstance(wl, CorpusProcs2):
        fixed = _calibrated(corpus_fixed_costs, wl)
        out["corpus.synth_share"] = fixed.pop("_synth_s") / base["wall_s"]
        out["corpus.serial_parse_share"] = \
            fixed.pop("_serial_parse_s") / base["wall_s"]
        out["corpus.binaries_per_s"] = wl.config.count / base["wall_s"]
        out.update(fixed)
        # Per-binary latencies as the corpus report itself recorded
        # them, at the loop's median host speed.
        lat = sorted(b["latency_s"] for b in report["binaries"])
        to_ref_ms = base["wall_s"] / base["wall_raw_s"] * 1e3
        for q in (50, 95):
            rank = max(1, math.ceil(q / 100.0 * len(lat)))
            out[f"corpus.latency_p{q}_ms"] = lat[rank - 1] * to_ref_ms
    if isinstance(wl, Llnl2Analyze):
        out.update(_calibrated(analysis_stages, wl))
    return out
