"""benchmarks/e2e driver: end-to-end and per-layer metrics by name.

Two ways in:

``python3 benchmarks/e2e/run.py --seed 0 [--json OUT] [--repeat K]``
    every workload, untraced pass then traced pass, one table with
    every metric of ``BENCHMARK.json`` by name and unit;

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1``
    one workload, one pass; the last stdout line is the JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` the benchmark
    contract asks for.

This process only spawns and aggregates; each workload runs in
``child.py`` processes (see there for the measuring loop).  README.md
has the metric definitions and the reasons for each design choice.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import hostcal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

#: Set-ups per untraced run (``setup_s`` is their median).
SETUP_REPEATS = 3

SMOKE_SCALE, SMOKE_OPS = 0.1, 2

#: The seed whose outputs ``expected.json`` pins (both scales).
PINNED_SEED = 0


def spawn(mode: str, workload: str, seed: int, scale: float,
          seconds: float, ops: int | None) -> dict:
    """Run one ``child.py`` to completion; returns its JSON document."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--seconds", repr(seconds),
           "--spawned-at", repr(time.perf_counter())]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child ({mode}) exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])


def _tally(ops: list[dict]) -> dict:
    why = sorted({o["fail"] for o in ops if o["fail"]})
    return {"attempted": len(ops),
            "failed": sum(o["fail"] is not None for o in ops),
            "failures": why}


def _row(values: list[float], value: float | None = None) -> dict:
    """A metric's value (the samples' median unless given) with the
    summary of its samples."""
    s = hostcal.summarise(values)
    return {"value": s["median"] if value is None else value, **s}


def untraced(workload: str, seed: int, scale: float, seconds: float,
             ops: int | None) -> dict:
    """The end-to-end metrics of one workload."""
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    setups = [spawn("setup", workload, seed, scale, seconds, ops)
              for _ in range(SETUP_REPEATS - 1)]
    doc = spawn("measure", workload, seed, scale, seconds, ops)
    setups.append(doc)
    timed, wall, cpu = hostcal.op_times(doc["ops"])
    rows = {
        "setup_s": _row([hostcal.normalise(d["setup"]["raw_s"],
                                           d["setup"]["probe_before"][0],
                                           d["setup"]["probe_after"][0])
                         for d in setups]),
        "wall_s": _row(*hostcal.over_inputs(timed, wall)),
        "cpu_s": _row(*hostcal.over_inputs(timed, cpu)),
        "peak_rss_mb": _row([doc["peak_rss_mb"]]),
    }
    seen, billed = doc["workers_cpu_seen_s"], doc["children_rusage_s"]
    if abs(seen - billed) > 0.05 + 0.05 * billed:
        print(f"# warning {workload}: /proc saw {seen:.2f}s of worker "
              f"CPU, RUSAGE_CHILDREN billed {billed:.2f}s")
    return {**_tally(doc["ops"]),
            "end_to_end": {k: {**row, "unit": units[k]}
                           for k, row in rows.items()}}


def traced(workload: str, seed: int, scale: float, seconds: float,
           ops: int | None) -> dict:
    """The per-layer metrics of one workload (0 where a layer is idle)."""
    doc = spawn("trace", workload, seed, scale, seconds, ops)
    per_layer = {m["name"]: {"value": doc["layers"].get(m["name"], 0.0),
                             "unit": m["unit"]}
                 for m in CONTRACT["per_layer"]}
    return {**_tally(doc["ops"]), "per_layer": per_layer}


def show(workload: str, result: dict) -> None:
    """One row per metric: name, unit, value and, for timings, the
    sample count, quartiles and tail percentile."""
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    share = result["failed"] / result["attempted"]
    print(f"{workload:14s} {'failed_share':44s} {share:14.6g} ratio"
          f"   ({result['failed']}/{result['attempted']})"
          + "".join(f"  !{why}" for why in result["failures"]))
    for name, row in result.get("end_to_end", {}).items():
        tail = (f" p{row['tail_pct']}={row['tail']:.4g}"
                if row["tail"] is not None else "")
        print(f"{workload:14s} {name:44s} {row['value']:14.6g} "
              f"{row['unit']:6s} n={row['n']} q1={row['q1']:.4g} "
              f"q3={row['q3']:.4g}{tail}")
        if name != "setup_s" and row["spread"] > bounds[name]:
            print(f"# warning {workload}: {name} spread "
                  f"{row['spread']:.1%} exceeds its bound "
                  f"{bounds[name]:.0%}; treat this run as unresolved")
    for name, row in result.get("per_layer", {}).items():
        print(f"{workload:14s} {name:44s} {row['value']:14.6g} "
              f"{row['unit']}")


def contract_line(result: dict) -> str:
    rows = result.get("end_to_end") or result["per_layer"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": r["value"], "unit": r["unit"]}
                    for k, r in rows.items()}})


def suite(seed: int, scale: float, seconds: float, ops: int | None
          ) -> dict:
    """Both passes of every workload."""
    out = {}
    for w in WORKLOADS:
        result = untraced(w, seed, scale, seconds, ops)
        layers = traced(w, seed, scale, seconds, ops)
        result["per_layer"] = layers["per_layer"]
        result["traced_failed"] = layers["failed"]
        show(w, result)
        out[w] = result
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload, contract output (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(CONTRACT["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"scale {SMOKE_SCALE}, {SMOKE_OPS} ops: checks "
                         "the harness, measures nothing")
    ap.add_argument("--repeat", type=int, default=1,
                    help="suite repetitions kept as samples in --json")
    ap.add_argument("--json", metavar="OUT",
                    help="write the suite's results here")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite expected.json from this checkout's "
                         "results (after an intended change of outputs)")
    args = ap.parse_args()
    scale, ops = (SMOKE_SCALE, SMOKE_OPS) if args.smoke else (1.0, None)

    if args.pin:
        scales = {}
        for s in (1.0, SMOKE_SCALE):
            scales[repr(s)] = pins = {}
            for w in WORKLOADS:
                pins.update(spawn("setup", w, PINNED_SEED, s, 0.0, None)
                            ["pins"])
        (HERE / "expected.json").write_text(json.dumps(
            {"seed": PINNED_SEED, "scales": scales}, indent=1) + "\n")
        return 0

    if args.workload:
        one = traced if args.trace else untraced
        result = one(args.workload, args.seed, scale, args.seconds, ops)
        show(args.workload, result)
        print(contract_line(result))
        return 0

    runs = [suite(args.seed, scale, args.seconds, ops)
            for _ in range(args.repeat)]
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"schema": "bench-e2e/1", "seed": args.seed, "scale": scale,
             "runs": runs}, indent=1) + "\n")
    failed = sum(r[w]["failed"] + r[w]["traced_failed"]
                 for r in runs for w in WORKLOADS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
