"""The fuzzing campaign driver behind ``repro fuzz``.

One master seed fans out — via :mod:`repro.seeds` splitting, never
arithmetic — into per-case generation seeds and per-case race-sweep
seeds, so a campaign is a pure function of ``(runs, seed, presets,
options)``: the same invocation regenerates the same binaries, the
same schedules, and a byte-identical ``repro.fuzz-report/1`` document.

Each case round-robins the hostile preset axes
(:mod:`repro.synth.hostile`), synthesizes one binary, and hands it to
the differential oracle.  Divergent cases are (optionally) delta-
reduced to minimal spec-level repros, which the report embeds as
``repro.fuzz-case/1`` documents ready to pin into
``tests/fuzz/corpus/``.
"""

from __future__ import annotations

from typing import Any

from repro.fuzz.oracle import OracleAxis, default_axes, run_oracle
from repro.fuzz.reduce import divergence_predicate, reduce
from repro.fuzz.specio import case_to_json
from repro.schema import FUZZ_REPORT_SCHEMA
from repro.seeds import derive_seed
from repro.synth.hostile import HOSTILE_PRESETS, hostile_binary


def fuzz_run(runs: int, seed: int, *, presets: tuple[str, ...] | None = None,
             minimize: bool = False, n_functions: int | None = None,
             axes: list[OracleAxis] | None = None,
             workers: int = 4, procs_workers: int = 2,
             procs_inline: bool = True, race_schedules: int = 2,
             metrics: Any = None) -> dict:
    """Run a seeded differential-fuzzing campaign; return the report.

    ``axes`` overrides the whole axis battery (tests use this to inject
    the strict-jt ablation as a real divergence source); by default the
    battery is :func:`~repro.fuzz.oracle.default_axes` with a per-case
    race-sweep seed split off the master seed.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    chosen = tuple(presets) if presets else HOSTILE_PRESETS
    unknown = [p for p in chosen if p not in HOSTILE_PRESETS]
    if unknown:
        raise ValueError(f"unknown preset(s): {', '.join(unknown)}")

    cases: list[dict] = []
    divergences: list[dict] = []
    axis_names: list[str] = []
    for i in range(runs):
        preset = chosen[i % len(chosen)]
        case_seed = derive_seed(seed, "fuzz-case", i)
        sb = hostile_binary(preset, seed=case_seed,
                            n_functions=n_functions)
        if metrics is not None:
            metrics.inc("fuzz.cases")
            metrics.inc(f"fuzz.preset.{preset}")
        case_axes = axes if axes is not None else default_axes(
            workers=workers, procs_workers=procs_workers,
            procs_inline=procs_inline,
            race_seed=derive_seed(seed, "fuzz-race", i),
            race_schedules=race_schedules)
        if not axis_names:
            axis_names = [a.name for a in case_axes]
        res = run_oracle(sb.binary, case_axes, metrics=metrics,
                         name=sb.name)
        n_findings = sum(len(v) for v in res.findings.values())
        if metrics is not None and n_findings:
            metrics.inc("fuzz.sanity.findings", n_findings)
        cases.append({"index": i, "preset": preset,
                      "case_seed": case_seed, **res.to_row()})
        if not res.diverged:
            continue

        div: dict = {"index": i, "preset": preset, "case_seed": case_seed,
                     "binary": sb.name, "failing": list(res.failing),
                     "minimized": None, "reduce": None}
        if minimize:
            rr = reduce(sb.spec,
                        divergence_predicate(case_axes, metrics=metrics),
                        seed=derive_seed(seed, "fuzz-reduce", i),
                        metrics=metrics)
            min_res = run_oracle(_resynth(rr.spec), case_axes,
                                 name=rr.spec.name)
            div["minimized"] = case_to_json(
                rr.spec, signature_sha256=min_res.reference_digest,
                origin=f"repro fuzz --seed {seed} (case {i})",
                preset=preset, failing_axes=min_res.failing)
            div["reduce"] = {
                "attempts": rr.attempts, "accepted": rr.accepted,
                "size_before": list(rr.size_before),
                "size_after": list(rr.size_after),
            }
        divergences.append(div)

    return {
        "schema": FUZZ_REPORT_SCHEMA,
        "seed": seed,
        "runs": runs,
        "presets": list(chosen),
        "axes": axis_names,
        "minimize": bool(minimize),
        "cases": cases,
        "divergences": divergences,
        "summary": {
            "cases": len(cases),
            "diverged": len(divergences),
            "failing_axes": sorted({a for d in divergences
                                    for a in d["failing"]}),
            "sanity_findings": sum(
                len(v) for c in cases for v in c["findings"].values()),
        },
    }


def _resynth(spec):
    from repro.synth.codegen import synthesize

    return synthesize(spec).binary
