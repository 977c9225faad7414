"""Checker clients: true-positive AND true-negative pins per checker.

Every checker gets at least one hand-assembled known-dirty binary (the
defect is present and must be flagged) and one known-clean binary (the
idiomatic code must stay silent).  Interprocedural cases pin that
summaries actually flow bottom-up: a defect in a callee surfaces in the
caller exactly when the ABI says it must.
"""

from __future__ import annotations

import pytest

from repro.analyses.interproc import run_checkers
from repro.core import parse_binary
from repro.isa import Cond, Opcode, Reg
from repro.runtime import SerialRuntime
from repro.synth import hostile_binary, tiny_binary
from repro.synth.asm import L
from tests.core.test_parallel_parser import make_binary


def _analyze(build, symbols, checks):
    binary, labels = make_binary(build, symbols)
    cfg = parse_binary(binary, SerialRuntime())
    res = run_checkers(cfg, checks, binary=binary.name)
    return res, labels


def _rules(res):
    return sorted(f["rule"] for f in res.findings)


def _by_function(res):
    return sorted((f["function"], f["rule"]) for f in res.findings)


class TestCalleeSaved:
    def test_clobbered_fp_is_flagged(self):
        def build(a):
            a.label("dirty")
            a.mov_ri(Reg.FP, 5)
            a.ret()

        res, _ = _analyze(build, {"dirty": "dirty"}, "callee-saved")
        assert _rules(res) == ["callee-saved"]
        assert "FP" in res.findings[0]["detail"]

    def test_enter_leave_discipline_is_clean(self):
        def build(a):
            a.label("framed")
            a.enter(16)
            a.mov_ri(Reg.R0, 1)
            a.leave()
            a.ret()

        res, _ = _analyze(build, {"framed": "framed"}, "callee-saved")
        assert res.findings == []

    def test_push_pop_save_restores_a_checked_register(self):
        def build(a):
            a.label("saved")
            a.insn(Opcode.PUSH, Reg.FP)
            a.mov_ri(Reg.FP, 7)
            a.insn(Opcode.POP, Reg.FP)
            a.ret()

        res, _ = _analyze(build, {"saved": "saved"}, "callee-saved")
        assert res.findings == []

    def test_callee_clobber_propagates_to_caller(self):
        def build(a):
            a.label("top")
            a.call(L("dirty"))
            a.ret()
            a.label("dirty")
            a.mov_ri(Reg.FP, 5)
            a.ret()

        res, _ = _analyze(build, {"top": "top", "dirty": "dirty"},
                          "callee-saved")
        assert _by_function(res) == [("dirty", "callee-saved"),
                                     ("top", "callee-saved")]

    def test_framed_caller_shields_a_dirty_callee(self):
        def build(a):
            a.label("top")
            a.enter(8)
            a.call(L("dirty"))
            a.leave()
            a.ret()
            a.label("dirty")
            a.mov_ri(Reg.FP, 5)
            a.ret()

        res, _ = _analyze(build, {"top": "top", "dirty": "dirty"},
                          "callee-saved")
        assert _by_function(res) == [("dirty", "callee-saved")]


class TestUninitReg:
    def test_read_before_write_is_flagged(self):
        def build(a):
            a.label("bad")
            a.insn(Opcode.MOV_RR, Reg.R0, Reg.R4)
            a.ret()

        res, _ = _analyze(build, {"bad": "bad"}, "uninit-reg")
        assert _rules(res) == ["uninit-reg"]
        assert "R4" in res.findings[0]["detail"]

    def test_args_and_locals_are_defined(self):
        def build(a):
            a.label("good")
            a.insn(Opcode.MOV_RR, Reg.R0, Reg.R1)   # arg register
            a.mov_ri(Reg.R4, 3)
            a.insn(Opcode.ADD, Reg.R0, Reg.R4)      # local write
            a.ret()

        res, _ = _analyze(build, {"good": "good"}, "uninit-reg")
        assert res.findings == []

    def test_scratch_registers_are_not_checked(self):
        def build(a):
            a.label("scratch")
            a.insn(Opcode.MOV_RR, Reg.R0, Reg.R10)  # no ABI contract
            a.ret()

        res, _ = _analyze(build, {"scratch": "scratch"}, "uninit-reg")
        assert res.findings == []

    def test_maybe_path_is_flagged(self):
        """Defined on one branch only: a *maybe*-uninitialized read."""
        def build(a):
            a.label("maybe")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.EQ, L("skip"))
            a.mov_ri(Reg.R4, 1)
            a.label("skip")
            a.insn(Opcode.MOV_RR, Reg.R0, Reg.R4)
            a.ret()

        res, _ = _analyze(build, {"maybe": "maybe"}, "uninit-reg")
        assert _rules(res) == ["uninit-reg"]

    def test_callee_defined_register_survives_the_call(self):
        def build(a):
            a.label("top")
            a.call(L("defines"))
            a.insn(Opcode.MOV_RR, Reg.R6, Reg.R4)   # defined by callee
            a.mov_ri(Reg.R0, 0)
            a.ret()
            a.label("defines")
            a.mov_ri(Reg.R4, 9)
            a.mov_ri(Reg.R0, 0)
            a.ret()

        res, _ = _analyze(build, {"top": "top", "defines": "defines"},
                          "uninit-reg")
        assert res.findings == []

    def test_call_clobbers_caller_saved_definitions(self):
        """R4 defined before the call does not survive it unless the
        callee's must-defined-at-return summary says so."""
        def build(a):
            a.label("top")
            a.mov_ri(Reg.R4, 1)
            a.call(L("empty"))
            a.insn(Opcode.MOV_RR, Reg.R0, Reg.R4)   # clobbered by call
            a.ret()
            a.label("empty")
            a.mov_ri(Reg.R0, 0)
            a.ret()

        res, _ = _analyze(build, {"top": "top", "empty": "empty"},
                          "uninit-reg")
        assert _by_function(res) == [("top", "uninit-reg")]


class TestStackBalance:
    def test_unbalanced_push_is_flagged(self):
        def build(a):
            a.label("lopsided")
            a.insn(Opcode.PUSH, Reg.R1)
            a.ret()

        res, _ = _analyze(build, {"lopsided": "lopsided"}, "stack-balance")
        assert _rules(res) == ["stack-balance"]
        assert "-8" in res.findings[0]["detail"]

    def test_balanced_frames_are_clean(self):
        def build(a):
            a.label("balanced")
            a.insn(Opcode.PUSH, Reg.R1)
            a.insn(Opcode.POP, Reg.R4)
            a.ret()
            a.label("framed")
            a.enter(24)
            a.mov_ri(Reg.R0, 1)
            a.leave()
            a.ret()

        res, _ = _analyze(build, {"balanced": "balanced",
                                  "framed": "framed"}, "stack-balance")
        assert res.findings == []

    def test_callee_imbalance_propagates_to_caller(self):
        def build(a):
            a.label("top")
            a.call(L("popper"))
            a.ret()
            a.label("popper")
            a.insn(Opcode.POP, Reg.R4)
            a.ret()

        res, _ = _analyze(build, {"top": "top", "popper": "popper"},
                          "stack-balance")
        assert _by_function(res) == [("popper", "stack-balance"),
                                     ("top", "stack-balance")]
        assert all("+8" in f["detail"] for f in res.findings)

    def test_conflicting_heights_stay_silent(self):
        """Unknown (TOP) is not a finding: only a *definite* nonzero
        height at a return is flagged."""
        def build(a):
            a.label("forked")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.EQ, L("join"))
            a.insn(Opcode.PUSH, Reg.R1)
            a.label("join")
            a.ret()

        res, _ = _analyze(build, {"forked": "forked"}, "stack-balance")
        assert res.findings == []

    def test_top_summary_survives_a_process_boundary(self):
        """A unit that crossed a process boundary carries *unpickled*
        external summaries, so the TOP sentinel arrives as an
        equal-but-not-identical string.  The transfer must compare by
        equality, not identity (found by the 30-binary
        analysis-differential corpus when units went to a worker pool:
        ``h + "top"`` raised TypeError)."""
        import pickle

        from repro.analyses.checkers import TOP, make_checker
        from repro.analyses.interproc import snapshot_function

        def build(a):
            a.label("caller")
            a.call(L("forked"))
            a.ret()
            a.label("forked")
            a.ret()

        binary, _ = make_binary(build, {"caller": "caller",
                                        "forked": "forked"})
        cfg = parse_binary(binary, SerialRuntime())
        func = next(f for f in cfg.functions() if f.name == "caller")
        checker = make_checker("stack-balance")
        plan = snapshot_function(func, set(), {}).with_effects([checker])
        top_copy = pickle.loads(pickle.dumps(TOP))
        if top_copy is TOP:  # in case unpickling ever interns
            top_copy = "".join(TOP)
        assert top_copy == TOP
        summary, findings = checker.analyze(plan, lambda target: top_copy)
        assert summary == TOP
        assert findings == []  # TOP stays silent


class TestJumpTableBounds:
    def test_overapprox_tables_are_flagged(self):
        sb = hostile_binary("jt-overapprox", seed=5, n_functions=12)
        cfg = parse_binary(sb.binary, SerialRuntime())
        res = run_checkers(cfg, "jt-bounds", binary=sb.name)
        assert res.findings
        assert set(_rules(res)) == {"jt-bounds"}
        assert any("no recoverable bound check" in f["detail"]
                   for f in res.findings)

    def test_benign_tables_are_clean(self):
        sb = tiny_binary()
        cfg = parse_binary(sb.binary, SerialRuntime())
        assert cfg.jump_tables, "tiny must actually contain jump tables"
        res = run_checkers(cfg, "jt-bounds", binary=sb.name)
        assert res.findings == []


class TestSelection:
    def test_resolve_checks_rejects_unknown(self):
        from repro.analyses.checkers import resolve_checks

        with pytest.raises(ValueError, match="unknown check"):
            resolve_checks("callee-saved,bogus")

    @pytest.mark.parametrize("spec", ["", ",", " , ", ()])
    def test_resolve_checks_rejects_an_empty_selection(self, spec):
        from repro.analyses.checkers import resolve_checks

        with pytest.raises(ValueError, match="no check selected"):
            resolve_checks(spec)

    def test_single_check_runs_alone(self):
        def build(a):
            a.label("dirty")
            a.mov_ri(Reg.FP, 5)
            a.insn(Opcode.PUSH, Reg.R1)
            a.ret()

        res, _ = _analyze(build, {"dirty": "dirty"}, "stack-balance")
        assert set(_rules(res)) == {"stack-balance"}
