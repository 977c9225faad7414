"""compare.py A.json B.json — is B worse than A, per metric and workload?

A and B are ``run.py --json`` files (same seed and scale).  For every
(end-to-end metric, workload) pair one row: A's median as the base, B's
median, their ratio, the run-to-run spread, and a verdict against the
metric's bound in ``BENCHMARK.json``:

``same``        B is within the bound of A;
``better``      B is better than A by more than the bound;
``worse``       B is worse than A by more than the bound (exit status 1);
``unresolved``  the spread is wider than the bound, so neither can be
                said — unless every B sample beats every A sample.

The spread is (q3 - q1) / median over the files' repeated suites
(``run.py --repeat K``, K >= 4); with fewer repeats it is estimated from
the operations of a run as their spread / sqrt(n).  ``failed_share`` has
an absolute bound of +0.  ``--layers`` adds the per-layer metrics, which
have no bound: ratio and base only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import hostcal
from run import CONTRACT


def _samples(doc: dict, workload: str, group: str, metric: str
             ) -> list[dict]:
    return [run[workload][group][metric] for run in doc["runs"]]


def _spread(rows: list[dict]) -> float:
    if len(rows) >= 4:
        return hostcal.summarise([r["value"] for r in rows])["spread"]
    return max(r["spread"] / math.sqrt(r["n"]) for r in rows)


def verdict(a: list[dict], b: list[dict], bound: float, better: str
            ) -> tuple[str, float, float, float]:
    """``(verdict, base, value, spread)`` for one metric on one workload."""
    va = [r["value"] for r in a]
    vb = [r["value"] for r in b]
    base, value = statistics.median(va), statistics.median(vb)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (value - base) / base
    spread = max(_spread(a), _spread(b))
    if va == vb:                 # the same measurement, not two alike
        return "same", base, value, spread
    if spread > bound:
        clear = (max(vb) < min(va) if better == "lower"
                 else min(vb) > max(va))
        return ("better" if clear else "unresolved"), base, value, spread
    if worse_by > bound:
        return "worse", base, value, spread
    if worse_by < -bound:
        return "better", base, value, spread
    return "same", base, value, spread


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--layers", action="store_true",
                    help="also print the per-layer metrics (no verdict)")
    args = ap.parse_args()
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("seed or scale differ: the files are not comparable")
        return 2

    worse = 0
    print(f"{'workload':14s} {'metric':28s} {'base (A)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in (x["name"] for x in CONTRACT["workloads"]):
        fa, fb = (sum(r[w]["failed"] for r in d["runs"])
                  / sum(r[w]["attempted"] for r in d["runs"])
                  for d in (a, b))
        v = "worse" if fb > fa else "better" if fb < fa else "same"
        worse += v == "worse"
        print(f"{w:14s} {'failed_share':28s} {fa:12.6g} {fb:12.6g} "
              f"{'':7s} {'':7s} {'+0':>6s}  {v}")
        for m in CONTRACT["end_to_end"]:
            v, base, value, spread = verdict(
                _samples(a, w, "end_to_end", m["name"]),
                _samples(b, w, "end_to_end", m["name"]),
                m["bound"], m["better"])
            worse += v == "worse"
            print(f"{w:14s} {m['name']:28s} {base:12.6g} {value:12.6g} "
                  f"{value / base:7.3f} {spread:7.1%} {m['bound']:6.0%}  {v}")
        if not args.layers:
            continue
        for m in CONTRACT["per_layer"]:
            base, value = (statistics.median(
                r["value"] for r in _samples(d, w, "per_layer", m["name"]))
                for d in (a, b))
            ratio = f"{value / base:7.3f}" if base else f"{'':7s}"
            print(f"{w:14s} {m['name']:44s} {base:12.6g} {value:12.6g} "
                  f"{ratio} {m['unit']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
