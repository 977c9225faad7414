"""Tests for the CodeObject facade (the Listing 7 programming model)."""

import pytest

from repro.api import (
    CodeObject,
    LivenessAnalyzer,
    LoopAnalyzer,
    StackAnalysis,
    analyze_binary,
)
from repro.errors import ReproError
from repro.runtime import ProcsRuntime, SerialRuntime, VirtualTimeRuntime
from repro.synth import tiny_binary


@pytest.fixture(scope="module")
def tiny():
    return tiny_binary(seed=13, n_functions=24)


class TestCodeObject:
    def test_parse_and_funcs(self, tiny):
        co = CodeObject(tiny.binary, VirtualTimeRuntime(4))
        cfg = co.parse()
        assert co.funcs() == cfg.functions()
        assert len(co.blocks()) == cfg.stats.n_blocks
        entry = tiny.binary.symtab.functions()[0].offset
        assert co.function_at(entry) is not None

    def test_queries_before_parse_rejected(self, tiny):
        co = CodeObject(tiny.binary)
        with pytest.raises(ReproError):
            co.funcs()
        with pytest.raises(ReproError):
            _ = co.cfg

    def test_double_parse_rejected(self, tiny):
        co = CodeObject(tiny.binary)
        co.parse()
        with pytest.raises(ReproError):
            co.parse()

    def test_unknown_analysis_rejected(self, tiny):
        co = CodeObject(tiny.binary)
        with pytest.raises((ReproError, Exception)):
            co.parse(analyses=("bogus",))

    def test_parallel_analyzer_loop(self, tiny):
        co = analyze_binary(tiny.binary, VirtualTimeRuntime(4),
                            analyses=("loops", "liveness", "stack"))
        results = co.analysis()
        assert len(results) == len(co.funcs())
        for fa in results:
            assert isinstance(fa.results["loops"], LoopAnalyzer)
            assert isinstance(fa.results["liveness"], LivenessAnalyzer)
            assert isinstance(fa.results["stack"], StackAnalysis)

    def test_analysis_results_independent_of_workers(self, tiny):
        a = analyze_binary(tiny.binary, VirtualTimeRuntime(2),
                           analyses=("loops",))
        b = analyze_binary(tiny.binary, VirtualTimeRuntime(8),
                           analyses=("loops",))
        loops_a = [(fa.func.addr, fa.results["loops"].n_loops)
                   for fa in a.analysis()]
        loops_b = [(fa.func.addr, fa.results["loops"].n_loops)
                   for fa in b.analysis()]
        assert loops_a == loops_b

    def test_analysis_without_request_rejected(self, tiny):
        co = CodeObject(tiny.binary)
        co.parse()
        with pytest.raises(ReproError):
            co.analysis()

    def test_default_runtime_is_serial(self, tiny):
        co = CodeObject(tiny.binary)
        assert isinstance(co.rt, SerialRuntime)
        co.parse()
        assert co.funcs()

    def test_parse_shards_on_procs(self, tiny):
        """``co.parse()`` goes through the same call as
        ``parse_binary``: a procs runtime shards it."""
        want = CodeObject(tiny.binary).parse().signature()
        rt = ProcsRuntime(2, in_process=True)
        assert CodeObject(tiny.binary, rt).parse().signature() == want
        assert len(rt.shard_deltas) == 2


class TestAnalyzers:
    def test_loop_analyzer_surface(self, tiny):
        co = analyze_binary(tiny.binary, analyses=("loops",))
        any_loops = [fa for fa in co.analysis()
                     if fa.results["loops"].n_loops > 0]
        assert any_loops
        la = any_loops[0].results["loops"]
        assert la.max_nesting >= 1
        assert len(la.loops()) == la.n_loops

    def test_liveness_analyzer_surface(self, tiny):
        co = analyze_binary(tiny.binary, analyses=("liveness",))
        fa = co.analysis()[0]
        live = fa.results["liveness"]
        assert live.max_live >= 1
        assert isinstance(live.live_at_entry(), set)

    def test_stack_analysis_surface(self, tiny):
        co = analyze_binary(tiny.binary, analyses=("stack",))
        for fa in co.analysis():
            sa = fa.results["stack"]
            h = sa.height_at(fa.func.addr)
            assert h == 0 or h is None or isinstance(h, (int, str))
