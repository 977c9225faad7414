"""Bottom-up interprocedural scheduler: SCC waves, summaries, findings.

The driver behind ``repro analyze``.  Given a parsed (read-only) CFG it

1. builds the whole-program call graph and its SCC condensation
   (:mod:`repro.analyses.callgraph`);
2. walks the condensation bottom-up in *waves* — every callee SCC is
   finished before any of its callers starts — running the registered
   checkers (:mod:`repro.analyses.checkers`) over each SCC;
3. inside an SCC, compiles each member once into a plan and iterates
   the members' summaries to a fixpoint (finite join-semilattices;
   cycles converge); the findings are those of the round that changed
   no summary.

SCCs within one wave are mutually independent, so a runtime fans them
out with ``rt.parallel_for`` — the paper's Listing 7: a dynamic
parallel loop over the read-only CFG, nothing copied — and no runtime
means a plain loop.  Either way each SCC is a self-contained
:class:`SCCUnit` analyzed by the pure top-level function
:func:`analyze_unit`, so the result is schedule-independent by
construction and the findings sidecar is byte-identical across
backends and worker counts (the differential battery pins this).
``ProcsRuntime`` shards the *parse*; its checkers run here, on the
coordinator, where the CFG is.

Work charged to the runtime uses the liveness cost model, so the vtime
backend produces meaningful utilization traces for analysis runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analyses.callgraph import build_call_graph, condensation_waves
from repro.analyses.checkers import FuncPlan, make_checker, resolve_checks
from repro.analyses.common import INTRA_EDGES
from repro.analyses.findings import finding, sort_findings
from repro.core.cfg import (
    EdgeType,
    Function,
    JumpTableInfo,
    ParsedCFG,
)


@dataclass
class SCCUnit:
    """One SCC of the call graph, ready to analyze anywhere.

    Self-contained and picklable: the members' effect-free plans, the
    checks to run, and the summaries of every external callee the SCC
    references.  Targets missing from ``external`` resolve to the
    checker's conservative ``unknown()`` summary.
    """

    index: int
    funcs: tuple[FuncPlan, ...]
    checks: tuple[str, ...]
    external: dict[str, dict[int, Any]]


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


def analyze_unit(unit: SCCUnit) -> dict:
    """Analyze one SCC to summary fixpoint; pure and deterministic.

    Both dispatch paths — inline and ``rt.parallel_for`` task — call
    exactly this function, which is what makes the findings
    independent of backend and schedule.  Returns
    ``{"index", "summaries", "findings", "rounds", "capped"}``;
    findings carry function attribution but not yet the binary name.

    Each member's plan gets its block effects for the unit's checkers
    once (:meth:`FuncPlan.with_effects`), here, on whichever worker
    got the unit; a round analyzes every member with every checker
    against the current summaries.  Findings are those of the round
    in which no summary changed: every ``analyze`` of that round saw
    the final summaries, so it *is* the reporting pass.  Only a unit
    that hits the round cap (``capped``) gets a separate one, against
    the summaries the cap left.
    """
    checkers = [make_checker(n) for n in unit.checks]
    plans = {p.entry: p.with_effects(checkers) for p in unit.funcs}
    entries = sorted(plans)
    local: dict[str, dict[int, Any]] = {
        c.name: {e: c.bottom() for e in entries} for c in checkers}

    def lookup(checker, loc):
        ext = unit.external.get(checker.name, {})

        def getsumm(target: int | None):
            if target is None:
                return checker.unknown()
            if target in loc:
                return loc[target]
            if target in ext:
                return ext[target]
            return checker.unknown()
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
                new, raw = c.analyze(plans[e], getsumm)
                if commit and new != loc[e]:
                    loc[e] = new
                    changed = True
                for f in raw:
                    findings.append({**f, "function": plans[e].name})
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
    return {"index": unit.index, "summaries": local,
            "findings": findings, "rounds": rounds, "capped": changed}


@dataclass
class AnalysisResult:
    """Everything one interprocedural run produced."""

    findings: list[dict]                     #: normalized, sorted
    summaries: dict[str, dict[int, Any]]     #: per check, per entry
    stats: dict[str, int] = field(default_factory=dict)


def _unit_cost(unit: SCCUnit) -> int:
    return sum(len(body) for p in unit.funcs for body in p.insns)


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
    graph = build_call_graph(cfg)
    sccs, waves = condensation_waves(graph)
    jt_by_block: dict[int, list[JumpTableInfo]] = {}
    for jt in cfg.jump_tables:
        jt_by_block.setdefault(jt.block_start, []).append(jt)
    entry_set = set(graph.entries)
    plans = {f.addr: snapshot_function(f, entry_set, jt_by_block)
             for f in cfg.functions()}

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

    def build_wave(wave: list[int]) -> list[SCCUnit]:
        out = []
        for i in wave:
            members = sccs[i]
            need: set[int] = set()
            for e in members:
                need.update(graph.callees.get(e, ()))
            need -= set(members)
            external = {
                n: {t: summaries[n][t] for t in sorted(need)
                    if t in summaries[n]}
                for n in names}
            out.append(SCCUnit(index=i,
                               funcs=tuple(plans[e] for e in members),
                               checks=names, external=external))
        return out

    def absorb(results: list[dict]) -> None:
        for res in sorted(results, key=lambda r: r["index"]):
            stats["rounds"] += res["rounds"]
            stats["capped_units"] += res["capped"]
            for n in names:
                summaries[n].update(res["summaries"][n])
            for f in res["findings"]:
                findings.append(finding(
                    f["rule"], f["detail"], binary=binary,
                    function=f.get("function"),
                    address=f.get("address")))

    def drain(wave_units: list[SCCUnit]) -> list[dict]:
        if rt is None:
            return [analyze_unit(u) for u in wave_units]
        results: dict[int, dict] = {}
        lock = rt.make_lock()

        def work(u: SCCUnit) -> None:
            rt.charge(rt.cost.liveness_per_insn * len(u.checks)
                      * max(1, _unit_cost(u)))
            res = analyze_unit(u)
            with lock:
                results[res["index"]] = res
        rt.parallel_for(wave_units, work, sort_key=_unit_cost,
                        reverse=True)
        return [results[u.index] for u in wave_units]

    def run_waves() -> None:
        for wave in waves:
            drained = drain(build_wave(wave))
            absorb(drained)

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
