"""Command-line interface: ``repro <command>``.

Commands:

- ``synth``     — generate a synthetic binary (optionally save to disk);
- ``parse``     — run parallel CFG construction and print statistics;
- ``hpcstruct`` — run the structure-recovery pipeline (Figure 2 phases);
- ``binfeat``   — run feature extraction over a generated corpus;
- ``check``     — run the correctness checker (Section 8.1); with
  ``--races`` sweep a workload across seeded schedules under the
  happens-before race detector, with ``--cfgsan`` parse the corpus with
  the CFG sanitizer enabled (see docs/SANITY.md);
- ``analyze``   — parallel interprocedural checkers over a workload or a
  seeded hostile corpus: call-graph SCC waves, summary fixpoint, and a
  deterministic ``repro.findings/1`` sidecar that is byte-identical
  across backends and worker counts (see docs/ANALYSES.md);
- ``fuzz``      — seeded differential-fuzzing campaign over the hostile
  synthesis presets: every case runs on all backends (plus fault-plan
  and sanity axes) and divergences are optionally delta-reduced to
  minimal spec-level repros (see docs/FUZZING.md);
- ``corpus``    — crash-isolated, resumable corpus driver: schedule a
  seeded corpus of synthesized binaries over the shared procs pool
  under per-binary supervision, journal every outcome, quarantine
  binaries that exhaust their attempt budget, and resume after any
  coordinator death with ``--resume`` (see docs/ROBUSTNESS.md);
- ``lint``      — static accessor-discipline lint over the source tree;
- ``trace``     — render the Figure-2 timeline plus the metrics table
  for one traced run, optionally exporting the versioned run-report
  JSON (schema: ``docs/OBSERVABILITY.md``).

Workloads are either preset names (``tiny``, ``llnl1``, ``llnl2``,
``camellia``, ``tensorflow``) or paths to ``.sbin`` images produced by
``synth --output``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.binary.loader import load_image
from repro.core.parallel_parser import ParseOptions, parse_binary
from repro.errors import (
    CorpusError,
    ImageFormatError,
    RuntimeConfigError,
    SynthesisError,
)
from repro.runtime import make_runtime
from repro.schema import (
    BACKENDS,
    CORPUS_BACKENDS,
    CORPUS_REPORT_SCHEMA,
    FINDINGS_SCHEMA,
    FUZZ_REPORT_SCHEMA,
    RACES_SCHEMA,
    RUN_REPORT_SCHEMA,
    write_sidecar,
)
from repro.synth import (
    camellia_like,
    llnl1_like,
    llnl2_like,
    tensorflow_like,
    tiny_binary,
)

_PRESETS = {
    "tiny": lambda scale: tiny_binary(),
    "llnl1": lambda scale: llnl1_like(scale=scale),
    "llnl2": lambda scale: llnl2_like(scale=scale),
    "camellia": lambda scale: camellia_like(scale=scale),
    "tensorflow": lambda scale: tensorflow_like(scale=scale),
}


def _load_workload(spec: str, scale: float):
    """Resolve a preset name or image path to (LoadedBinary, synth|None)."""
    if spec in _PRESETS:
        sb = _PRESETS[spec](scale)
        return sb.binary, sb
    return load_image(spec), None


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    """Runtime selection, plus the ``procs`` backend's sharding flags."""
    p.add_argument("--workers", "-j", type=int, default=8,
                   help="number of (simulated or real) workers")
    p.add_argument("--runtime", "--backend", dest="runtime",
                   choices=list(BACKENDS),
                   default="vtime", help="execution backend")
    p.add_argument("--scale", type=scale_factor, default=0.1,
                   help="workload scale factor for presets")
    p.add_argument("--no-metrics", action="store_true",
                   help="opt out of structured metrics collection")
    p.add_argument("--shard-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="procs only: per-shard deadline for one pool "
                        "attempt (0 disables the deadline)")
    p.add_argument("--fault-plan", type=str, default=None, metavar="SPEC",
                   help="procs only: deterministic fault-injection plan, "
                        "e.g. 'exc@1x1,delay@0=2' "
                        "(grammar in docs/ROBUSTNESS.md; also read from "
                        "the REPRO_FAULT_PLAN environment variable)")


# argparse ``type=`` callables; a ValueError becomes the usage error
# "invalid <function name> value: <text>", so the names are the message.

def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


def scale_factor(text: str) -> float:
    x = float(text)
    if not 0 < x < math.inf:  # NaN fails both comparisons
        raise ValueError(text)
    return x


def comma_separated_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def check_names(text: str) -> tuple[str, ...]:
    from repro.analyses.checkers import resolve_checks

    try:
        return resolve_checks(text)
    except ValueError as e:  # its message lists the choices: keep it
        raise argparse.ArgumentTypeError(str(e)) from None


def _stray(needs: str, *options: tuple[str, object]) -> bool:
    """Print the usage error for the first ``(flag, value)`` the command
    line gave (each such option defaults to None) — a flag that only
    works with ``needs``; True if there was one."""
    for flag, value in options:
        if value is not None:
            print(f"error: {flag} needs {needs}", file=sys.stderr)
            return True
    return False


def _make_rt(args, **kw):
    n = 1 if args.runtime == "serial" else args.workers
    kw.setdefault("enable_metrics", not getattr(args, "no_metrics", False))
    if args.runtime == "procs":
        if getattr(args, "shard_deadline", None) is not None:
            # 0 disables the deadline; a negative one is the
            # runtime's config error.
            kw.setdefault("shard_deadline", args.shard_deadline or None)
        if getattr(args, "fault_plan", None) is not None:
            from repro.runtime.faults import FaultPlan
            kw.setdefault("fault_plan",
                          FaultPlan.from_spec(args.fault_plan))
    return make_runtime(args.runtime, n, **kw)


def _makespan_field(args, rt) -> tuple[str, int | float]:
    """(key, value) for the makespan: wall-clock backends report seconds."""
    if args.runtime in ("threads", "procs"):
        return "makespan_seconds", rt.makespan
    return "makespan_cycles", rt.makespan


def cmd_synth(args) -> int:
    binary, sb = _load_workload(args.workload, args.scale)
    img = binary.image
    info = {
        "name": img.name,
        "total_bytes": img.total_size,
        "text_bytes": img.text_size,
        "debug_bytes": img.debug_size,
        "symbols": len(binary.symtab),
        "entries": len(binary.entry_addresses()),
    }
    if sb is not None:
        info["functions"] = len(sb.spec.functions)
        info["jump_tables"] = len(sb.ground_truth.jump_tables)
    if args.output:
        img.save(args.output)
        info["saved_to"] = args.output
    print(json.dumps(info, indent=2))
    return 0


def cmd_parse(args) -> int:
    binary, _ = _load_workload(args.workload, args.scale)
    rt = _make_rt(args)
    cfg = parse_binary(binary, rt, ParseOptions())
    s = cfg.stats
    out = {
        "binary": binary.name,
        "workers": rt.num_workers,
        "functions": s.n_functions,
        "blocks": s.n_blocks,
        "edges": s.n_edges,
        "splits": s.n_splits,
        "waves": s.n_waves,
        "jump_tables": {
            "resolved": s.n_jt_resolved,
            "unresolved": s.n_jt_unresolved,
            "over_approximated": s.n_jt_overapprox,
            "edges_trimmed": s.n_edges_trimmed,
        },
        "tailcall_flips": s.n_tailcall_flips,
    }
    key, value = _makespan_field(args, rt)
    out[key] = value
    if args.runtime == "procs" and rt.metrics.enabled:
        # The coordinator's procs.* counters, under their catalog names
        # (docs/OBSERVABILITY.md; a counter never incremented is absent).
        counters = rt.metrics.snapshot()["counters"]
        out["procs"] = {name: n for name, n in counters.items()
                        if name.startswith("procs.")}
        out["procs"]["degraded_to"] = rt.degradation["level"]
        out["procs"]["fault_events"] = len(rt.fault_events)
    print(json.dumps(out, indent=2))
    return 0


def cmd_hpcstruct(args) -> int:
    from repro.apps.hpcstruct import hpcstruct

    binary, _ = _load_workload(args.workload, args.scale)
    rt = _make_rt(args)
    res = hpcstruct(binary, rt)
    out = {
        "binary": binary.name,
        "workers": rt.num_workers,
        "functions": len(res.structure),
        "phases_cycles": res.phase_durations,
        "dwarf_cycles": res.dwarf_time,
        "cfg_cycles": res.cfg_time,
        "makespan_cycles": res.makespan,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_binfeat(args) -> int:
    from repro.apps.binfeat import binfeat
    from repro.synth import forensics_corpus

    corpus = forensics_corpus(n_binaries=args.n_binaries,
                              scale=args.scale)
    rt = _make_rt(args)
    res = binfeat([sb.binary for sb in corpus], rt)
    out = {
        "binaries": res.n_binaries,
        "workers": rt.num_workers,
        "functions": res.n_functions,
        "stages_cycles": res.stage_durations,
        "distinct_features": len(res.feature_index),
        "makespan_cycles": res.makespan,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_sweep(args) -> int:
    """Worker-count sweep: the Figure 3 experiment for one binary."""
    binary, _ = _load_workload(args.workload, args.scale)
    rows = []
    base = None
    for n in args.workers_list:
        rt = make_runtime("vtime", n)
        parse_binary(binary, rt, ParseOptions())
        if base is None:
            base = rt.makespan
        rows.append({"workers": n, "makespan_cycles": rt.makespan,
                     "speedup": round(base / rt.makespan, 2)})
    print(json.dumps({"binary": binary.name, "sweep": rows}, indent=2))
    return 0


def cmd_trace(args) -> int:
    """One traced vtime run: Figure-2 timeline + metrics table (+ JSON)."""
    from repro.runtime.tracefmt import (
        render_metrics,
        render_phase_table,
        render_trace,
        run_report,
    )

    binary, _ = _load_workload(args.workload, args.scale)
    rt = make_runtime("vtime", args.workers, enable_trace=True,
                      enable_metrics=not args.no_metrics)
    if args.app == "parse":
        parse_binary(binary, rt, ParseOptions())
    else:
        from repro.apps.hpcstruct import hpcstruct

        hpcstruct(binary, rt)
    print(f"{args.app} trace of {binary.name}: {rt.num_workers} workers, "
          f"makespan {rt.makespan:,} cycles")
    print()
    print(render_trace(rt.trace, width=args.width))
    print()
    print(render_phase_table(rt.trace))
    if not args.no_metrics:
        print()
        print(render_metrics(rt.metrics.snapshot()))
    if args.json:
        write_sidecar(run_report(rt, workload=args.workload),
                      RUN_REPORT_SCHEMA, args.json)
        print(f"\nrun report written to {args.json}")
    return 0


def cmd_check(args) -> int:
    if not args.races and _stray(
            "--races", ("--fixture", args.fixture),
            ("--race-schedules", args.race_schedules), ("--seed", args.seed)):
        return 2
    if args.races and args.runtime != "vtime":
        print("error: --races sweeps vtime schedules; it takes no other "
              "--backend", file=sys.stderr)
        return 2
    if args.races:
        return _check_races(args)
    if args.cfgsan:
        return _check_cfgsan(args)
    from repro.apps.checker import check_binary, summarize
    from repro.synth import coreutils_like_corpus

    corpus = coreutils_like_corpus(n_binaries=args.n_binaries)
    reports = []
    for sb in corpus:
        rt = _make_rt(args)
        cfg = parse_binary(sb.binary, rt)
        reports.append(check_binary(sb, cfg))
    if args.json:
        from repro.analyses.findings import findings_document
        from repro.apps.checker import GROUNDTRUTH_CHECKS, report_to_findings

        doc = findings_document(
            "groundtruth", list(GROUNDTRUTH_CHECKS),
            report_to_findings(reports),
            subject={"corpus": "coreutils_like_corpus",
                     "n_binaries": args.n_binaries})
        write_sidecar(doc, FINDINGS_SCHEMA, args.json)
        print(f"ground-truth findings written to {args.json}",
              file=sys.stderr)
    print(json.dumps(summarize(reports), indent=2))
    return 0


def _emit_race_report(args, report: dict) -> int:
    text = write_sidecar(report, RACES_SCHEMA, args.json).decode()
    if args.json:
        print(f"race report written to {args.json}", file=sys.stderr)
    print(text, end="")
    return 1 if report["findings"] else 0


def _check_races(args) -> int:
    """Happens-before race sweep: fixture or ground-truth corpus."""
    from repro.sanity.races import RaceDetector, run_race_sweep

    schedules = args.race_schedules or 6
    seed = args.seed or 0
    if args.fixture:
        from repro.sanity.fixtures import fixture_workload

        report = run_race_sweep(
            fixture_workload(args.fixture), n_workers=args.workers,
            schedules=schedules, base_seed=seed,
            workload_name=f"fixture:{args.fixture}")
        return _emit_race_report(args, report)

    from repro.synth import coreutils_like_corpus

    det = RaceDetector()
    corpus = coreutils_like_corpus(n_binaries=args.n_binaries)
    for sb in corpus:
        def workload(rt, binary=sb.binary):
            parse_binary(binary, rt, ParseOptions())

        run_race_sweep(
            workload, n_workers=args.workers,
            schedules=schedules, base_seed=seed,
            detector=det,
            workload_name=f"coreutils_like_corpus({args.n_binaries})")
    report = det.report(
        workload=f"coreutils_like_corpus({args.n_binaries})",
        n_workers=args.workers)
    return _emit_race_report(args, report)


def _check_cfgsan(args) -> int:
    """Parse the corpus with the CFG/op-trace sanitizer enabled."""
    from repro.errors import SanityCheckError
    from repro.synth import coreutils_like_corpus

    corpus = coreutils_like_corpus(n_binaries=args.n_binaries)
    checks = violations = 0
    failed: list[str] = []
    for sb in corpus:
        rt = _make_rt(args)
        try:
            parse_binary(sb.binary, rt, ParseOptions(sanitize=True))
        except SanityCheckError as e:
            failed.append(sb.binary.name)
            violations += len(e.findings)
            print(f"{sb.binary.name}: {len(e.findings)} violation(s) "
                  f"at {e.where}", file=sys.stderr)
            for f in e.findings:
                print(f"  {f}", file=sys.stderr)
        if rt.metrics.enabled:
            checks += rt.metrics.counter("sanity.cfgsan.checks")
    print(json.dumps({
        "binaries": len(corpus),
        "checks": checks,
        "violations": violations,
        "failed": failed,
    }, indent=2))
    return 1 if failed else 0


def cmd_analyze(args) -> int:
    """Interprocedural checkers over a workload or a seeded corpus."""
    from repro.analyses.findings import findings_document
    from repro.analyses.interproc import run_checkers

    checks = args.checks
    if (args.corpus is None) == (args.workload is None):
        print("error: give one workload or --corpus N", file=sys.stderr)
        return 2
    if args.workload is not None and _stray(
            "--corpus", ("--seed", args.seed), ("--preset", args.presets),
            ("--n-functions", args.n_functions)):
        return 2
    if args.corpus is not None:
        from repro.synth.hostile import HOSTILE_PRESETS, hostile_binary

        presets = tuple(args.presets) if args.presets else HOSTILE_PRESETS
        seed = args.seed or 0
        binaries = [
            hostile_binary(presets[i % len(presets)], seed=seed + i,
                           n_functions=args.n_functions).binary
            for i in range(args.corpus)]
        subject = {"corpus": {"count": args.corpus, "seed": seed,
                              "presets": list(presets),
                              "n_functions": args.n_functions}}
    else:
        binary, _ = _load_workload(args.workload, args.scale)
        binaries = [binary]
        subject = {"workload": args.workload, "scale": args.scale}

    findings: list[dict] = []
    stats = {"binaries": len(binaries), "functions": 0, "call_edges": 0,
             "sccs": 0, "waves": 0, "rounds": 0, "capped_units": 0}
    for binary in binaries:
        cfg = parse_binary(binary, _make_rt(args))
        # Runtime.run is single-use: analysis gets its own fresh runtime.
        res = run_checkers(cfg, checks, rt=_make_rt(args),
                           binary=binary.name)
        findings.extend(res.findings)
        for k in ("functions", "call_edges", "sccs", "waves", "rounds",
                  "capped_units"):
            stats[k] += res.stats[k]

    doc = findings_document("checkers", list(checks), findings,
                            subject=subject)
    write_sidecar(doc, FINDINGS_SCHEMA, args.json)
    if args.json:
        print(f"findings written to {args.json}", file=sys.stderr)
    print(json.dumps({
        "backend": args.runtime,
        "checks": list(checks),
        **stats,
        "findings": doc["summary"]["findings"],
        "by_rule": doc["summary"]["by_rule"],
    }, indent=2))
    return 0


def cmd_fuzz(args) -> int:
    """Seeded differential-fuzzing campaign (docs/FUZZING.md)."""
    from repro.fuzz.driver import fuzz_run
    from repro.runtime.metrics import MetricsRegistry

    metrics = None if args.no_metrics else MetricsRegistry()
    report = fuzz_run(
        args.runs, args.seed,
        presets=tuple(args.presets) if args.presets else None,
        minimize=args.minimize, n_functions=args.n_functions,
        workers=args.workers, procs_workers=args.procs_workers,
        procs_inline=not args.procs_pool,
        race_schedules=args.race_schedules, metrics=metrics)
    write_sidecar(report, FUZZ_REPORT_SCHEMA, args.json)
    if args.json:
        print(f"fuzz report written to {args.json}", file=sys.stderr)
    # stdout gets the digest-free view; the full per-case rows and any
    # minimized repro specs live in the --json sidecar.
    out = {k: report[k] for k in
           ("schema", "seed", "runs", "presets", "axes", "summary")}
    out["divergences"] = [
        {k: d[k] for k in ("index", "preset", "case_seed", "binary",
                           "failing", "reduce")}
        for d in report["divergences"]
    ]
    if metrics is not None:
        out["metrics"] = {
            k: v for k, v in sorted(
                metrics.snapshot()["counters"].items())
            if k.startswith("fuzz.")}
    print(json.dumps(out, indent=2))
    return 1 if report["divergences"] else 0


def cmd_corpus(args) -> int:
    """Crash-isolated, resumable corpus driver (docs/ROBUSTNESS.md)."""
    from dataclasses import fields
    from pathlib import Path

    from repro.corpus import CorpusConfig, run_corpus
    from repro.corpus.report import REPORT_NAME
    from repro.runtime.faults import FaultPlan
    from repro.runtime.metrics import MetricsRegistry

    plan = (FaultPlan.from_spec(args.fault_plan)
            if args.fault_plan else None)
    # The config flags default to None: CorpusConfig holds the defaults.
    # One given with --resume reaches CorpusDriver, which refuses it.
    given = {f.name: getattr(args, f.name) for f in fields(CorpusConfig)
             if getattr(args, f.name) is not None}
    if "presets" in given:
        given["presets"] = tuple(given["presets"])
    config = CorpusConfig(**given) if given or not args.resume else None
    metrics = None if args.no_metrics else MetricsRegistry()
    summary = run_corpus(args.dir, config, resume=args.resume,
                         in_process=args.in_process, fault_plan=plan,
                         metrics=metrics)
    # run_corpus writes without validating; check what landed on disk.
    with open(Path(args.dir) / REPORT_NAME) as f:
        write_sidecar(json.load(f), CORPUS_REPORT_SCHEMA)
    if metrics is not None:
        summary["metrics"] = {
            k: v for k, v in sorted(
                metrics.snapshot()["counters"].items())
            if k.startswith("corpus.")}
    print(json.dumps(summary, indent=2))
    return 1 if summary["quarantined"] else 0


def cmd_lint(args) -> int:
    from repro.sanity.lint import LINT_RULES, run_lint

    findings = run_lint(paths=args.paths or None)
    if args.json is not None:
        from repro.analyses.findings import finding, findings_document

        doc = findings_document(
            "lint", list(LINT_RULES),
            [finding(f.rule, f.message, path=f.path, line=f.line)
             for f in findings],
            subject={"paths": list(args.paths) if args.paths else None})
        if args.json == "-":
            print(write_sidecar(doc, FINDINGS_SCHEMA).decode(), end="")
        else:
            write_sidecar(doc, FINDINGS_SCHEMA, args.json)
            print(f"lint findings written to {args.json}",
                  file=sys.stderr)
    else:
        for f in findings:
            print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
        n = len(findings)
        print(f"{n} finding(s)" if n else "lint clean", file=sys.stderr)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.sanity.fixtures import FIXTURES
    from repro.synth.hostile import HOSTILE_PRESETS

    p = argparse.ArgumentParser(
        prog="repro",
        description="Parallel binary code analysis (PPoPP 2021 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic binary")
    sp.add_argument("workload", help="preset name")
    sp.add_argument("--output", "-o", help="save image to this path")
    sp.add_argument("--scale", type=scale_factor, default=0.1)
    sp.set_defaults(fn=cmd_synth)

    pp = sub.add_parser("parse", help="parallel CFG construction")
    pp.add_argument("workload", help="preset name or .sbin path")
    _add_runtime_args(pp)
    pp.set_defaults(fn=cmd_parse)

    hp = sub.add_parser("hpcstruct", help="program structure recovery")
    hp.add_argument("workload", help="preset name or .sbin path")
    _add_runtime_args(hp)
    hp.set_defaults(fn=cmd_hpcstruct)

    bp = sub.add_parser("binfeat", help="forensic feature extraction")
    bp.add_argument("--n-binaries", type=positive_int, default=8)
    _add_runtime_args(bp)
    bp.set_defaults(fn=cmd_binfeat)

    cp = sub.add_parser(
        "check", help="correctness vs ground truth / sanity analyses")
    cp.add_argument("--n-binaries", type=positive_int, default=10)
    mode = cp.add_mutually_exclusive_group()
    mode.add_argument("--races", action="store_true",
                      help="sweep seeded vtime schedules under the "
                           "happens-before race detector instead of "
                           "the ground-truth checker")
    mode.add_argument("--cfgsan", action="store_true",
                      help="parse the corpus with the CFG/op-trace "
                           "sanitizer enabled; violations fail the run")
    cp.add_argument("--race-schedules", type=positive_int, default=None,
                    metavar="N",
                    help="races only: schedules per workload (default 6)")
    cp.add_argument("--seed", type=int, default=None,
                    help="races only: base schedule seed (default 0)")
    cp.add_argument("--fixture", metavar="NAME", choices=sorted(FIXTURES),
                    help="races only: sweep a repro.sanity.fixtures "
                         "workload (e.g. counter-racy) instead of the "
                         "corpus")
    cp.add_argument("--json", metavar="PATH",
                    help="with --races: write the repro.races/1 report "
                         "to this path; otherwise write the ground-"
                         "truth repro.findings/1 sidecar")
    _add_runtime_args(cp)
    cp.set_defaults(fn=cmd_check)

    ap = sub.add_parser(
        "analyze",
        help="parallel interprocedural checkers (findings sidecar)")
    ap.add_argument("workload", nargs="?", default=None,
                    help="preset name or .sbin path (alternative to "
                         "--corpus)")
    ap.add_argument("--corpus", type=positive_int, default=None, metavar="N",
                    help="analyze a seeded hostile corpus of N binaries "
                         "instead of one workload; binary i is a pure "
                         "function of (seed, i)")
    ap.add_argument("--seed", type=int, default=None,
                    help="corpus only: master seed (default 0)")
    ap.add_argument("--preset", action="append", dest="presets",
                    metavar="NAME",
                    help="corpus only: hostile preset to round-robin "
                         "through (repeatable; default: all presets)")
    ap.add_argument("--n-functions", type=int, default=None,
                    help="corpus only: override the per-binary function "
                         "count")
    ap.add_argument("--checks", type=check_names, default="all",
                    help="comma-separated check names, or 'all' "
                         "(default)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the repro.findings/1 sidecar to this "
                         "path (canonical bytes, backend-independent)")
    _add_runtime_args(ap)
    ap.set_defaults(fn=cmd_analyze)

    fz = sub.add_parser(
        "fuzz", help="seeded differential-fuzzing campaign")
    fz.add_argument("--runs", type=positive_int, default=30,
                    help="number of fuzz cases (default 30)")
    fz.add_argument("--seed", type=int, default=0,
                    help="master seed; every per-case RNG is split off "
                         "this one value (default 0)")
    fz.add_argument("--preset", action="append", dest="presets",
                    metavar="NAME", choices=HOSTILE_PRESETS,
                    help="hostile preset axis to fuzz (repeatable; "
                         "default: all presets, round-robin)")
    fz.add_argument("--minimize", action="store_true",
                    help="delta-reduce each divergence to a minimal "
                         "spec-level repro")
    fz.add_argument("--n-functions", type=int, default=None,
                    help="override the per-case function count")
    fz.add_argument("--workers", "-j", type=positive_int, default=4,
                    help="worker count for the vtime/threads axes")
    fz.add_argument("--procs-workers", type=positive_int, default=2,
                    help="worker count for the procs axes")
    fz.add_argument("--procs-pool", action="store_true",
                    help="run the procs axes on a real process pool "
                         "(default is the in-process sharded pipeline)")
    fz.add_argument("--race-schedules", type=positive_int, default=2,
                    metavar="N",
                    help="vtime schedules per case for the race-sweep "
                         "axis (default 2)")
    fz.add_argument("--json", metavar="PATH",
                    help="write the full repro.fuzz-report/1 document "
                         "(per-case digests, minimized repro specs) "
                         "to this path")
    fz.add_argument("--no-metrics", action="store_true",
                    help="opt out of fuzz.* metrics collection")
    fz.set_defaults(fn=cmd_fuzz)

    co = sub.add_parser(
        "corpus", help="crash-isolated, resumable corpus driver")
    co.add_argument("dir",
                    help="run directory (journal, quarantine bundles, "
                         "final corpus report)")
    co.add_argument("--resume", action="store_true",
                    help="replay the directory's journal, skip "
                         "completed work and finish the run (the "
                         "config is restored from the journal header)")
    co.add_argument("--count", type=int,
                    help="number of corpus binaries (default 50)")
    co.add_argument("--seed", type=int,
                    help="master seed; binary i is a pure function of "
                         "(seed, i) (default 0)")
    co.add_argument("--preset", action="append", dest="presets",
                    metavar="NAME",
                    help="preset to round-robin through (repeatable; "
                         "'benign' or any hostile preset; default: "
                         "benign + all hostile presets)")
    co.add_argument("--n-functions", type=int,
                    help="override the per-binary function count")
    co.add_argument("--attempts", type=int,
                    help="attempt budget per binary before quarantine "
                         "(default 3)")
    co.add_argument("--window", type=int,
                    help="inflight-binary window: attempts supervised "
                         "at once (default 2)")
    co.add_argument("--binary-deadline", type=float,
                    metavar="SECONDS",
                    help="per-attempt deadline for one binary "
                         "(default 120)")
    co.add_argument("--backend", choices=list(CORPUS_BACKENDS),
                    help="analysis backend (default procs)")
    co.add_argument("--procs-workers", type=int,
                    help="worker count per procs parse (default 2)")
    co.add_argument("--in-process", action="store_true",
                    help="run procs shards in-process (no worker "
                         "pool; test/CI escape hatch)")
    co.add_argument("--no-verify", action="store_false", dest="verify",
                    default=None,
                    help="skip the serial reference parse per binary "
                         "(disables divergence detection)")
    co.add_argument("--journal-batch", type=int,
                    metavar="N",
                    help="journal records per fsync batch (default 8)")
    co.add_argument("--fault-plan", metavar="SPEC",
                    help="deterministic fault injection, including the "
                         "corpus sites binary-crash/binary-hang/"
                         "journal-torn/coordinator-kill "
                         "(docs/ROBUSTNESS.md)")
    co.add_argument("--no-metrics", action="store_true",
                    help="opt out of corpus.* metrics collection")
    co.set_defaults(fn=cmd_corpus)

    lp = sub.add_parser(
        "lint", help="static accessor-discipline / determinism lint")
    lp.add_argument("paths", nargs="*",
                    help="files or directories to lint "
                         "(default: the repro source tree)")
    lp.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH",
                    help="emit a repro.findings/1 document (to PATH, "
                         "or stdout when no path is given)")
    lp.set_defaults(fn=cmd_lint)

    tp = sub.add_parser(
        "trace", help="render Figure-2 timeline + metrics for one run")
    tp.add_argument("workload", help="preset name or .sbin path")
    tp.add_argument("--workers", "-j", type=int, default=8,
                    help="number of simulated workers")
    tp.add_argument("--scale", type=scale_factor, default=0.1,
                    help="workload scale factor for presets")
    tp.add_argument("--app", choices=["hpcstruct", "parse"],
                    default="hpcstruct",
                    help="pipeline to trace (default: hpcstruct)")
    tp.add_argument("--width", type=positive_int, default=96,
                    help="timeline width in columns")
    tp.add_argument("--json", metavar="PATH",
                    help="also export the versioned run-report JSON")
    tp.add_argument("--no-metrics", action="store_true",
                    help="opt out of structured metrics collection")
    tp.set_defaults(fn=cmd_trace)

    wp = sub.add_parser("sweep", help="worker-count speedup sweep")
    wp.add_argument("workload", help="preset name or .sbin path")
    wp.add_argument("--workers-list", type=comma_separated_ints,
                    default="1,2,4,8,16",
                    help="comma-separated worker counts")
    wp.add_argument("--scale", type=scale_factor, default=0.1)
    wp.set_defaults(fn=cmd_sweep)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every other backend would silently ignore the procs-only flags.
    if getattr(args, "runtime", None) not in (None, "procs") and _stray(
            "--backend procs", ("--fault-plan", args.fault_plan),
            ("--shard-deadline", args.shard_deadline)):
        return 2
    try:
        return args.fn(args)
    except (RuntimeConfigError, ImageFormatError, SynthesisError,
            CorpusError, OSError) as e:
        # Bad input argparse cannot judge: a worker count the runtime
        # refuses, a fault plan, an image path, a preset, a run dir.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
