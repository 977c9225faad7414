"""Bottom-up interprocedural scheduler: SCC waves, summaries, findings.

The driver behind ``repro analyze``.  Given a parsed (read-only) CFG it

1. builds the whole-program call graph and its SCC condensation
   (:mod:`repro.analyses.callgraph`);
2. walks the condensation bottom-up in *waves* — every callee SCC is
   finished before any of its callers starts — running the registered
   checkers (:mod:`repro.analyses.checkers`) over each SCC;
3. inside an SCC, iterates the members' summaries to a fixpoint
   (finite join-semilattices; cycles converge) over plans compiled
   once per run; the findings are those of the round that changed no
   summary.

SCCs within one wave are mutually independent, so a runtime fans them
out with ``rt.parallel_for`` — the paper's Listing 7: a dynamic
parallel loop over the read-only CFG, nothing copied — and no runtime
means a plain loop.  Either way :func:`analyze_unit` analyzes each SCC
against the run's one summary table, which holds only earlier waves
and is written only between waves, in wave order: the findings
sidecar is byte-identical across backends and worker counts by
construction (the differential battery pins this).  ``ProcsRuntime``
shards the *parse*; its checkers run here, where the CFG is.

Work charged to the runtime uses the liveness cost model, so the vtime
backend produces meaningful utilization traces for analysis runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analyses.callgraph import build_call_graph, condensation_waves
from repro.analyses.checkers import (Checker, FuncPlan, make_checker,
                                     resolve_checks)
from repro.analyses.common import INTRA_EDGES
from repro.analyses.findings import finding, sort_findings
from repro.core.cfg import EdgeType, Function, JumpTableInfo, ParsedCFG


def snapshot_function(func: Function, entry_set: set[int],
                      jt_by_block: dict[int, list[JumpTableInfo]]
                      ) -> FuncPlan:
    """Build one parsed function's plan, without block effects.

    Order is part of the contract — it fixes the worklist's visit
    order and therefore ``rounds``: blocks by address; per block,
    successors by (target start, edge-type value) with exact
    duplicates dropped; predecessors in ascending source order; of
    several tail-call edges leaving one block the largest target wins
    (unknown, ``None``, lowest).
    """
    live = sorted((b for b in func.blocks if not b.is_empty),
                  key=lambda b: b.start)
    index = {b.start: i for i, b in enumerate(live)}
    insns = tuple(tuple(b.insns) for b in live)
    preds: list[list[int]] = [[] for _ in live]
    succs: list[tuple[int, ...]] = []
    exits: list[tuple[int, str, int, int | None]] = []
    tables: list[JumpTableInfo] = []
    for i, b in enumerate(live):
        out: set[tuple[int, str]] = set()
        tails: list[int] = []  # tail-call targets; -1 = not an entry
        for e in b.out_edges:
            dst = e.dst.start
            if e.etype in INTRA_EDGES and dst in index:
                out.add((index[dst], e.etype.value))
            elif e.etype is EdgeType.TAILCALL:
                tails.append(dst if dst in entry_set else -1)
        succs.append(tuple(j for j, _ in sorted(out)))
        for j in succs[i]:
            preds[j].append(i)
        body = insns[i]
        is_ret = bool(body) and body[-1].is_ret
        if is_ret or tails:
            target = max(tails, default=-1)
            exits.append((i, "ret" if is_ret else "tailcall",
                          body[-1].address if body else b.start,
                          None if target < 0 else target))
        tables.extend(jt_by_block.get(b.start, ()))
    return FuncPlan(
        entry=func.addr, name=func.name,
        starts=tuple(b.start for b in live), insns=insns,
        preds=tuple(map(tuple, preds)), succs=tuple(succs),
        at_entry=tuple(b.start == func.addr for b in live),
        exits=tuple(exits), jump_tables=tuple(tables), effects={})


def analyze_unit(plans: list[FuncPlan], checkers: list[Checker],
                 summaries: dict[str, dict[int, Any]]) -> dict:
    """Analyze one SCC to summary fixpoint; deterministic.

    ``plans`` are the members' plans with the checkers' block effects;
    ``summaries`` is the run's table, per check, of the SCCs of earlier
    waves — read, never written.  A lookup resolves a member to its
    current summary, an entry of an earlier wave to its final one,
    anything else to the checker's ``unknown()``.  Returns
    ``{"summaries", "findings", "rounds", "capped"}``; findings carry
    function attribution but not yet the binary name.

    A round analyzes every member with every checker against the
    current summaries.  Findings are those of the round in which no
    summary changed: every ``analyze`` of that round saw the final
    summaries, so it *is* the reporting pass.  Only a unit that hits
    the round cap (``capped``) gets a separate one, against the
    summaries the cap left.
    """
    members = {p.entry: p for p in plans}
    entries = sorted(members)
    local: dict[str, dict[int, Any]] = {
        c.name: {e: c.bottom() for e in entries} for c in checkers}

    def lookup(checker, loc):
        done = summaries[checker.name]

        def getsumm(target: int | None):
            if target in loc:
                return loc[target]
            return done[target] if target in done else checker.unknown()
        return getsumm

    def sweep(commit: bool) -> tuple[bool, list[dict]]:
        """Analyze every member with every checker against the current
        summaries; ``commit`` stores the summaries that come back."""
        changed = False
        findings: list[dict] = []
        for c in checkers:
            loc = local[c.name]
            getsumm = lookup(c, loc)
            for e in entries:
                new, raw = c.analyze(members[e], getsumm)
                if commit and new != loc[e]:
                    loc[e] = new
                    changed = True
                for f in raw:
                    findings.append({**f, "function": members[e].name})
        return changed, findings

    # Finite lattices converge; the cap is a deterministic safety valve.
    max_rounds = 4 * len(entries) + 16
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        rounds += 1
        changed, findings = sweep(commit=True)
    if changed:
        _, findings = sweep(commit=False)
    return {"summaries": local, "findings": findings, "rounds": rounds,
            "capped": changed}


@dataclass
class AnalysisResult:
    """Everything one interprocedural run produced."""

    findings: list[dict]                     #: normalized, sorted
    summaries: dict[str, dict[int, Any]]     #: per check, per entry
    stats: dict[str, int] = field(default_factory=dict)


def _unit_cost(plans: list[FuncPlan]) -> int:
    return sum(len(body) for p in plans for body in p.insns)


def run_checkers(cfg: ParsedCFG, checks: Any = "all",
                 rt: Any = None, binary: str | None = None
                 ) -> AnalysisResult:
    """Run the interprocedural checkers over one parsed CFG.

    ``rt`` is an optional *fresh* runtime (``Runtime.run`` is
    single-use, so the runtime that parsed the binary cannot be
    reused): each wave is one ``rt.parallel_for`` inside ``rt.run``.
    ``None`` runs inline — same :func:`analyze_unit`, same bytes.
    """
    names = resolve_checks(checks)
    checkers = [make_checker(n) for n in names]
    graph = build_call_graph(cfg)
    sccs, waves = condensation_waves(graph)
    jt_by_block: dict[int, list[JumpTableInfo]] = {}
    for jt in cfg.jump_tables:
        jt_by_block.setdefault(jt.block_start, []).append(jt)
    entry_set = set(graph.entries)
    plans = {f.addr: snapshot_function(f, entry_set, jt_by_block)
             .with_effects(checkers) for f in cfg.functions()}

    summaries: dict[str, dict[int, Any]] = {n: {} for n in names}
    findings: list[dict] = []
    stats = {
        "functions": len(graph.entries),
        "call_edges": graph.n_edges,
        "unresolved_calls": sum(graph.unresolved.values()),
        "sccs": len(sccs),
        "waves": len(waves),
        "rounds": 0,
        "capped_units": 0,
    }

    def absorb(res: dict) -> None:
        stats["rounds"] += res["rounds"]
        stats["capped_units"] += res["capped"]
        for n in names:
            summaries[n].update(res["summaries"][n])
        for f in res["findings"]:
            findings.append(finding(
                f["rule"], f["detail"], binary=binary,
                function=f.get("function"), address=f.get("address")))

    def drain(units: list[list[FuncPlan]]) -> list[dict]:
        if rt is None:
            return [analyze_unit(u, checkers, summaries) for u in units]
        results: list[dict] = [{}] * len(units)
        lock = rt.make_lock()

        def work(k: int) -> None:
            rt.charge(rt.cost.liveness_per_insn * len(checkers)
                      * max(1, _unit_cost(units[k])))
            res = analyze_unit(units[k], checkers, summaries)
            with lock:
                results[k] = res
        rt.parallel_for(range(len(units)), work,
                        sort_key=lambda k: _unit_cost(units[k]),
                        reverse=True)
        return results

    def run_waves() -> None:
        # The table takes a wave's results after the wave, in wave
        # order: no SCC reads a summary of its own wave.
        for wave in waves:
            for res in drain([[plans[e] for e in sccs[i]] for i in wave]):
                absorb(res)

    def main() -> None:
        with rt.phase("interproc"):
            run_waves()

    if rt is not None:
        rt.run(main)
    else:
        run_waves()

    result = AnalysisResult(findings=sort_findings(findings),
                            summaries=summaries, stats=stats)
    stats["findings"] = len(result.findings)

    if rt is not None and rt.metrics.enabled:
        m = rt.metrics
        m.inc("analysis.functions", stats["functions"])
        m.inc("analysis.call_edges", stats["call_edges"])
        m.inc("analysis.unresolved_calls", stats["unresolved_calls"])
        m.inc("analysis.sccs", stats["sccs"])
        m.inc("analysis.waves", stats["waves"])
        m.inc("analysis.scc_rounds", stats["rounds"])
        m.inc("analysis.capped_units", stats["capped_units"])
        m.inc("analysis.findings", stats["findings"])
        for f in result.findings:
            m.inc(f"analysis.findings.{f['rule']}")
    return result
