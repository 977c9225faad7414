"""Interprocedural scheduler: plans, fixpoint, backends, metrics."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, fields

import pytest

from repro.analyses import checkers, interproc
from repro.analyses.callgraph import build_call_graph, condensation_waves
from repro.analyses.checkers import (
    ALL_CHECKS,
    Checker,
    FuncPlan,
    make_checker,
)
from repro.analyses.common import INTRA_EDGES
from repro.analyses.findings import canonical_bytes, findings_document
from repro.analyses.interproc import (
    analyze_unit,
    run_checkers,
    snapshot_function,
)
from repro.core import parse_binary
from repro.core.cfg import EdgeType
from repro.isa import Cond, Opcode, Reg
from repro.runtime import (
    ProcsRuntime,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
    procs,
)
from repro.synth import hostile_binary, tiny_binary
from repro.synth.asm import L
from tests.analyses.test_interproc_pins import CORPUS


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_binary(tiny_binary().binary, SerialRuntime())


# The two-step ``snapshot_function`` replaced, verbatim from its last
# commit: flatten the function into address-keyed tuples, then re-derive
# the plan's index arrays from them.  Kept as the oracle for the order
# contract (successor, predecessor and tail-call tie-break order fix the
# worklist's visit order, hence ``rounds``).

@dataclass(frozen=True)
class _OracleUnit:
    entry: int
    name: str
    blocks: tuple
    edges: tuple
    tailcalls: tuple
    jump_tables: tuple

    def compile(self, checkers):
        starts = tuple(start for start, _, _ in self.blocks)
        insns = tuple(body for _, _, body in self.blocks)
        index = {start: i for i, start in enumerate(starts)}
        preds = [[] for _ in starts]
        succs = [[] for _ in starts]
        for src, dst, _ in self.edges:
            succs[index[src]].append(index[dst])
            preds[index[dst]].append(index[src])
        tailcalls = dict(self.tailcalls)
        exits = []
        for i, body in enumerate(insns):
            if body and body[-1].is_ret:
                kind = "ret"
            elif starts[i] in tailcalls:
                kind = "tailcall"
            else:
                continue
            exits.append((i, kind, body[-1].address if body else starts[i],
                          tailcalls.get(starts[i])))
        return FuncPlan(
            entry=self.entry, name=self.name, starts=starts, insns=insns,
            preds=tuple(map(tuple, preds)), succs=tuple(map(tuple, succs)),
            at_entry=tuple(start == self.entry for start in starts),
            exits=tuple(exits), jump_tables=self.jump_tables,
            effects={c.name: tuple(map(c.compile_block, insns))
                     for c in checkers})


def _oracle_snapshot(func, entry_set, jt_by_block):
    live = sorted((b for b in func.blocks if not b.is_empty),
                  key=lambda b: b.start)
    member = {b.start for b in live}
    blocks = tuple((b.start, b.end, tuple(b.insns)) for b in live)
    edges = []
    tailcalls = []
    tables = []
    for b in live:
        for e in b.out_edges:
            if e.etype in INTRA_EDGES and e.dst.start in member:
                edges.append((b.start, e.dst.start, e.etype.value))
            elif e.etype is EdgeType.TAILCALL:
                target = (e.dst.start if e.dst.start in entry_set
                          else None)
                tailcalls.append((b.start, target))
        tables.extend(jt_by_block.get(b.start, ()))
    return _OracleUnit(
        entry=func.addr, name=func.name, blocks=blocks,
        edges=tuple(sorted(set(edges))),
        tailcalls=tuple(sorted(set(tailcalls),
                               key=lambda t: (t[0], t[1] or -1))),
        jump_tables=tuple(sorted(tables, key=lambda j: j.block_start)))


def _snapshot_args(cfg):
    jt_by_block = {}
    for jt in cfg.jump_tables:
        jt_by_block.setdefault(jt.block_start, []).append(jt)
    return set(build_call_graph(cfg).entries), jt_by_block


@pytest.mark.parametrize("key", list(CORPUS))
def test_plan_equals_the_two_step_it_replaced(key):
    """Field for field, on every function of the pinned binaries: any
    reordering of preds / succs or a changed tail-call tie-break fails
    here before it shows up as a different ``rounds``."""
    cfg = parse_binary(CORPUS[key]().binary, SerialRuntime())
    entry_set, jt_by_block = _snapshot_args(cfg)
    for func in cfg.functions():
        plan = snapshot_function(func, entry_set, jt_by_block)
        want = _oracle_snapshot(func, entry_set, jt_by_block).compile([])
        assert plan.effects == {}
        for f in fields(FuncPlan):
            assert getattr(plan, f.name) == getattr(want, f.name), \
                (func.name, f.name)


class TestUnits:
    def test_snapshot_is_picklable_and_self_contained(self, tiny_cfg):
        func = max(tiny_cfg.functions(), key=lambda f: len(f.blocks))
        plan = snapshot_function(func, *_snapshot_args(tiny_cfg))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and plan.effects == {}
        plan = clone.with_effects([make_checker(n) for n in ALL_CHECKS])
        assert clone.effects == {}  # a new plan; units share the old one
        assert plan.entry == func.addr
        assert len(plan.starts) == len(plan.insns) == sum(
            1 for b in func.blocks if not b.is_empty)
        assert sorted(plan.effects) == sorted(ALL_CHECKS)
        assert all(len(effects) == len(plan.starts)
                   for effects in plan.effects.values())

    def test_plan_rebuilds_edges_both_ways(self, tiny_cfg):
        func = max(tiny_cfg.functions(), key=lambda f: len(f.blocks))
        entry_set = {f.addr for f in tiny_cfg.functions()}
        plan = snapshot_function(func, entry_set, {})
        n_edges = len(_oracle_snapshot(func, entry_set, {}).edges)
        assert sum(map(len, plan.succs)) == n_edges > 0
        for src, out in enumerate(plan.succs):
            for dst in out:
                assert plan.preds[dst].count(src) == out.count(dst)
        assert sum(map(len, plan.preds)) == n_edges
        assert plan.at_entry.count(True) == 1
        assert plan.starts[plan.at_entry.index(True)] == func.addr

    def test_analyze_unit_is_pure(self, tiny_cfg):
        """Same inputs, same result, and the run's table is only read."""
        checks = ("stack-balance", "uninit-reg")
        table = run_checkers(tiny_cfg, checks).summaries
        graph = build_call_graph(tiny_cfg)
        sccs, _ = condensation_waves(graph)
        singletons = [scc[0] for scc in sccs if len(scc) == 1]
        entry = max(singletons, key=lambda e: len(graph.callees.get(e, ())))
        assert graph.callees.get(entry)  # it reads callee summaries
        func = next(f for f in tiny_cfg.functions() if f.addr == entry)
        cs = [make_checker(n) for n in checks]
        plan = snapshot_function(func, *_snapshot_args(tiny_cfg)) \
            .with_effects(cs)
        before = copy.deepcopy(table)
        a = analyze_unit([plan], cs, table)
        b = analyze_unit([plan], cs, table)
        assert a == b
        assert a["rounds"] >= 1
        assert a["summaries"] == {n: {entry: table[n][entry]}
                                  for n in checks}
        assert table == before
        assert [list(per) for per in table.values()] \
            == [list(per) for per in before.values()]


def _recursive_program(a):
    """Mutual recursion A<->B with a third caller C, a self-recursive
    singleton S, and a tail-call cycle T1<->T2.  The defects are placed
    so that early rounds see findings the converged round must not
    (B's unbalanced push makes A's height -8, then TOP) and miss one
    it must (R5 after ``call B`` is defined only under bottom)."""
    a.label("A")
    a.cmp_ri(Reg.R1, 0)
    a.jcc(Cond.EQ, L("A_base"))
    a.call(L("B"))
    a.insn(Opcode.ADD, Reg.R0, Reg.R5)
    a.ret()
    a.label("A_base")
    a.mov_ri(Reg.R0, 1)
    a.mov_ri(Reg.R4, 2)
    a.ret()
    a.label("B")
    a.insn(Opcode.PUSH, Reg.R9)
    a.mov_ri(Reg.FP, 3)
    a.call(L("A"))
    a.ret()
    a.label("C")
    a.call(L("A"))
    a.insn(Opcode.MOV_RR, Reg.R5, Reg.R4)
    a.ret()
    a.label("S")
    a.cmp_ri(Reg.R1, 0)
    a.jcc(Cond.EQ, L("S_base"))
    a.insn(Opcode.PUSH, Reg.R1)
    a.call(L("S"))
    a.insn(Opcode.MOV_RR, Reg.R6, Reg.R5)
    a.ret()
    a.label("S_base")
    a.mov_ri(Reg.R5, 1)
    a.ret()
    a.label("T1")
    a.cmp_ri(Reg.R1, 0)
    a.jcc(Cond.EQ, L("T_base"))
    a.mov_ri(Reg.R6, 1)
    a.jmp(L("T2"))
    a.label("T_base")
    a.insn(Opcode.MOV_RR, Reg.R0, Reg.R6)
    a.ret()
    a.label("T2")
    a.insn(Opcode.PUSH, Reg.R2)
    a.mov_ri(Reg.FP, 1)
    a.jmp(L("T1"))


@pytest.fixture
def unit_log(monkeypatch):
    """Every (member entries, result) pair of the ``analyze_unit``
    calls ``run_checkers`` makes while the fixture is live."""
    log = []
    real = interproc.analyze_unit

    def recording(plans, checkers, summaries):
        result = real(plans, checkers, summaries)
        log.append((tuple(p.entry for p in plans), result))
        return result

    monkeypatch.setattr(interproc, "analyze_unit", recording)
    return log


def _assert_real_procs_runtime_equals_inline(cfg):
    ref = run_checkers(cfg, "all")
    res = run_checkers(cfg, "all", rt=ProcsRuntime(2))
    assert res.findings == ref.findings
    assert res.summaries == ref.summaries
    assert res.stats == ref.stats and res.stats["rounds"] >= 1
    assert not any(key.startswith("pool_") for key in res.stats)


class _FlipChecker(Checker):
    """Deliberately non-monotone: a recursive function's summary is the
    negation of what it just looked up, so no round is ever stable."""

    name = "flip"

    def bottom(self):
        return 0

    def unknown(self):
        return 0

    def analyze(self, plan, getsumm):
        if not any(insn.opcode is Opcode.CALL
                   and insn.direct_target == plan.entry
                   for body in plan.insns for insn in body):
            return 0, []
        seen = getsumm(plan.entry)
        return 1 - seen, [{"rule": self.name, "address": plan.entry,
                           "detail": f"looked up {seen}"}]


class _ProbeChecker(Checker):
    """Records every summary lookup.  A function's summary is its own
    entry, so the answer to a lookup names whose summary was read."""

    name = "probe"

    def __init__(self):
        self.lookups = []  # (caller entry, target, answer)

    def bottom(self):
        return None

    def unknown(self):
        return "unknown"

    def analyze(self, plan, getsumm):
        targets = [insn.direct_target for body in plan.insns
                   for insn in body
                   if insn.opcode in (Opcode.CALL, Opcode.ICALL)]
        targets += [t for _, kind, _, t in plan.exits if kind == "tailcall"]
        for t in targets:
            self.lookups.append((plan.entry, t, getsumm(t)))
        return plan.entry, []


class TestFixpointRounds:
    @pytest.fixture(scope="class")
    def recursive_cfg(self):
        # make_binary's module needs hypothesis; the plan oracle above
        # must also run on the minimal install (CI's no-hypothesis step).
        pytest.importorskip("hypothesis")
        from tests.core.test_parallel_parser import make_binary

        names = ("A", "B", "C", "S", "T1", "T2")
        binary, _ = make_binary(_recursive_program, {n: n for n in names})
        return parse_binary(binary, SerialRuntime())

    def test_converged_round_equals_a_from_scratch_reporting_pass(
            self, recursive_cfg, unit_log):
        res = run_checkers(recursive_cfg, "all", binary="rec.bin")
        assert res.stats["capped_units"] == 0
        funcs = {f.addr: f for f in recursive_cfg.functions()}
        cs = [make_checker(n) for n in ALL_CHECKS]
        by_members = {}
        for entries, result in unit_log:
            by_members[tuple(funcs[e].name for e in entries)] = result
            plans = {e: snapshot_function(funcs[e], set(funcs), {})
                     .with_effects(cs) for e in entries}
            scratch = []
            for c in cs:
                final = res.summaries[c.name]
                assert result["summaries"][c.name] == {
                    e: final[e] for e in entries}
                for e in sorted(plans):
                    summary, raw = c.analyze(
                        plans[e], lambda t, c=c, final=final:
                        final.get(t, c.unknown()))
                    assert summary == final[e]  # it is a fixpoint
                    scratch += [{**f, "function": plans[e].name}
                                for f in raw]
            assert result["findings"] == scratch
        assert sorted(by_members) == [("A", "B"), ("C",), ("S",),
                                      ("T1", "T2")]
        # Early rounds had phantom stack-balance findings in A and B;
        # the converged one has none, and has A's late R5 read.
        assert by_members["A", "B"]["rounds"] >= 3
        assert sorted((f["function"], f["rule"])
                      for f in by_members["A", "B"]["findings"]) == [
            ("A", "callee-saved"), ("A", "uninit-reg"),
            ("B", "callee-saved")]
        assert by_members["T1", "T2"]["rounds"] >= 3

    def test_a_singleton_that_calls_itself_is_recursive(
            self, recursive_cfg, unit_log):
        """Its first round reads its own bottom summary, so that round
        must never be taken for the converged one."""
        run_checkers(recursive_cfg, "all")
        s = next(f for f in recursive_cfg.functions() if f.name == "S")
        (_, result), = [(e, r) for e, r in unit_log if e == (s.addr,)]
        assert any(insn.opcode is Opcode.CALL
                   and insn.direct_target == s.addr
                   for b in s.blocks for insn in b.insns)
        assert result["rounds"] >= 2 and not result["capped"]
        # bottom (all defined) would have hidden S's undefined R5.
        assert result["summaries"]["uninit-reg"][s.addr] \
            != make_checker("uninit-reg").bottom()

    @pytest.mark.parametrize("backend", [None, "threads"])
    def test_a_lookup_reads_a_member_an_earlier_wave_or_unknown(
            self, recursive_cfg, monkeypatch, backend):
        """The invariant the run's one summary table rests on: a lookup
        names a member of the SCC (its current summary), a callee SCC
        of an earlier wave (its final summary), or a non-entry (the
        checker's ``unknown()``) — never a summary of its own wave."""
        probe = _ProbeChecker()
        monkeypatch.setitem(checkers._CHECKER_FACTORIES, "probe",
                            lambda: probe)
        from tests.core.test_parallel_parser import make_binary

        def indirect(a):
            a.label("U")
            a.insn(Opcode.ICALL, Reg.R1)
            a.call(L("V"))
            a.ret()
            a.label("V")
            a.ret()

        cfgs = [recursive_cfg, parse_binary(
            make_binary(indirect, {"U": "U", "V": "V"})[0], SerialRuntime())]
        cfgs.append(parse_binary(hostile_binary(
            "hostile-all", seed=9, n_functions=40).binary, SerialRuntime()))
        seen = set()
        for cfg in cfgs:
            probe.lookups.clear()
            rt = None if backend is None else ThreadRuntime(4)
            run_checkers(cfg, ("probe",), rt=rt)
            graph = build_call_graph(cfg)
            sccs, waves = condensation_waves(graph)
            scc_of = {e: i for i, scc in enumerate(sccs) for e in scc}
            wave_of = {i: w for w, wave in enumerate(waves) for i in wave}
            assert probe.lookups
            for caller, target, got in probe.lookups:
                if target not in scc_of:
                    kind = "unknown"
                    assert got == "unknown", (caller, target)
                elif scc_of[target] == scc_of[caller]:
                    kind = "member"
                    assert got in (None, target), (caller, target)
                else:
                    kind = "earlier wave"
                    assert target in graph.callees[caller]
                    assert wave_of[scc_of[target]] \
                        < wave_of[scc_of[caller]], (caller, target)
                    assert got == target, (caller, target)
                seen.add(kind)
        assert seen == {"unknown", "member", "earlier wave"}

    def test_procs_runtime_equals_inline(self, recursive_cfg):
        _assert_real_procs_runtime_equals_inline(recursive_cfg)

    def test_round_cap_is_reported_and_deterministic(
            self, recursive_cfg, unit_log, monkeypatch):
        monkeypatch.setitem(checkers._CHECKER_FACTORIES, "flip",
                            _FlipChecker)
        rt = VirtualTimeRuntime(2)
        res = run_checkers(recursive_cfg, ("flip",), rt=rt)
        assert res.stats["capped_units"] == 1
        assert rt.metrics.counter("analysis.capped_units") == 1
        (entries, result), = [(e, r) for e, r in unit_log if r["capped"]]
        s = next(f for f in recursive_cfg.functions() if f.name == "S")
        assert entries == (s.addr,)
        assert result["rounds"] == 4 * 1 + 16
        # The fallback reporting pass reads the summaries the cap left
        # and does not move them: an even number of flips is back at 0.
        assert result["summaries"]["flip"] == {s.addr: 0}
        assert [f["detail"] for f in result["findings"]] == ["looked up 0"]
        flip = [_FlipChecker()]
        plan = snapshot_function(s, {s.addr}, {}).with_effects(flip)
        assert analyze_unit([plan], flip, {"flip": {}}) == result
        again = run_checkers(recursive_cfg, ("flip",))
        assert again.findings == res.findings
        assert again.stats["capped_units"] == 1


class TestScheduleIndependence:
    def _bytes(self, binary, rt):
        cfg = parse_binary(binary, SerialRuntime())
        res = run_checkers(cfg, "all", rt=rt, binary=binary.name)
        doc = findings_document("checkers", list(res.summaries), res.findings)
        return canonical_bytes(doc)

    @pytest.mark.parametrize("preset,seed", [("jt-overapprox", 5),
                                             ("hostile-all", 9)], ids=str)
    def test_backends_agree_byte_for_byte(self, preset, seed):
        binary = hostile_binary(preset, seed=seed, n_functions=14).binary
        ref = self._bytes(binary, None)
        for rt in (SerialRuntime(), VirtualTimeRuntime(4),
                   ThreadRuntime(4), ProcsRuntime(2, in_process=True)):
            assert self._bytes(binary, rt) == ref, type(rt).__name__

    def test_worker_counts_agree_byte_for_byte(self):
        binary = hostile_binary("hostile-all", seed=9, n_functions=14).binary
        ref = self._bytes(binary, None)
        for n in (1, 2, 4):
            assert self._bytes(binary, VirtualTimeRuntime(n)) == ref, n
            assert self._bytes(
                binary, ProcsRuntime(n, in_process=True)) == ref, n


    def test_procs_runtime_equals_inline_and_forks_nothing(
            self, monkeypatch):
        """A ``ProcsRuntime`` shards the parse; its checkers run here,
        where the CFG is.  They used to ask the shared pool for
        ``num_workers`` processes, which tore down and re-forked the
        pool the parse had sized to the core count."""
        asked = []

        def no_pool(ctx, size):
            asked.append(size)
            raise RuntimeError("the checkers asked for a worker pool")

        monkeypatch.setattr(procs, "_shared_pool", no_pool)
        binary = hostile_binary("hostile-all", seed=9, n_functions=14).binary
        cfg = parse_binary(binary, SerialRuntime())
        _assert_real_procs_runtime_equals_inline(cfg)
        run_checkers(cfg, "all", rt=ProcsRuntime(8))
        assert asked == []


class TestRun:
    def test_stats_shape(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "all")
        s = res.stats
        assert s["functions"] == len(list(tiny_cfg.functions()))
        assert s["sccs"] >= 1 and s["waves"] >= 1
        assert s["rounds"] >= s["sccs"]  # every SCC iterates at least once
        assert s["findings"] == len(res.findings)
        assert not any(key.startswith("pool_") for key in s)

    def test_summaries_cover_every_entry_and_check(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "all")
        entries = {f.addr for f in tiny_cfg.functions()}
        for check, per_entry in res.summaries.items():
            assert set(per_entry) == entries, check

    def test_findings_are_sorted_and_attributed(self, tiny_cfg):
        from repro.analyses.findings import finding_sort_key

        res = run_checkers(tiny_cfg, "all", binary="tiny.bin")
        keys = [finding_sort_key(f) for f in res.findings]
        assert keys == sorted(keys)
        assert all(f["binary"] == "tiny.bin" for f in res.findings)
        assert all(f["function"] for f in res.findings)

    def test_metrics_counters(self):
        cfg = parse_binary(tiny_binary().binary, SerialRuntime())
        rt = VirtualTimeRuntime(4)
        res = run_checkers(cfg, "all", rt=rt)
        m = rt.metrics
        assert m.counter("analysis.functions") == res.stats["functions"]
        assert m.counter("analysis.sccs") == res.stats["sccs"]
        assert m.counter("analysis.waves") == res.stats["waves"]
        assert m.counter("analysis.findings") == len(res.findings)
        for f in res.findings:
            assert m.counter(f"analysis.findings.{f['rule']}") >= 1
        # Analysis work is on the virtual clock: phase + charge visible.
        assert rt.makespan > 0

    def test_check_subset_only_runs_those(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "jt-bounds")
        assert list(res.summaries) == ["jt-bounds"]
        assert all(f["rule"] == "jt-bounds" for f in res.findings)
