"""Tests for the parallel CFG parser: invariants, equivalence, correctness.

The single most important property (Section 5.2's closing claim): "the
relative speed of threads will not impact the final results" — the parse
signature must be identical for every worker count and for the serial
runtime.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EdgeType, ParseOptions, ReturnStatus, parse_binary
from repro.core.parallel_parser import ParallelParser
from repro.errors import RuntimeConfigError
from repro.isa import Cond, Opcode, Reg
from repro.runtime import SerialRuntime, ThreadRuntime, VirtualTimeRuntime
from repro.synth import GenParams, generate_program, synthesize, tiny_binary
from repro.synth.asm import Assembler, L
from repro.binary.format import BinaryImage, Section, SectionFlags
from repro.binary import format as fmt
from repro.binary.loader import LoadedBinary, encode_eh_frame
from repro.binary.symtab import Symbol, SymbolTable


def make_binary(build, symbols, base=0x1000, rodata=b"", rodata_base=0x100000):
    """Assemble a hand-written binary: build(asm) defines the code."""
    a = Assembler(base)
    build(a)
    code, labels = a.assemble()
    img = BinaryImage(name="hand.bin")
    img.add_section(Section(fmt.TEXT, base, code, SectionFlags.EXEC))
    if rodata:
        img.add_section(Section(fmt.RODATA, rodata_base, rodata,
                                SectionFlags.DATA))
    st_ = SymbolTable([Symbol(name, labels[lbl], 0)
                       for name, lbl in symbols.items()])
    img.add_section(Section(fmt.SYMTAB, 0, st_.to_bytes(),
                            SectionFlags.DEBUG_INFO))
    img.add_section(Section(
        fmt.EH_FRAME, 0,
        encode_eh_frame([labels[lbl] for lbl in symbols.values()]),
        SectionFlags.DEBUG_INFO))
    return LoadedBinary(img), labels


@pytest.fixture(scope="module")
def tiny():
    return tiny_binary(seed=7)


@pytest.fixture(scope="module")
def tiny_cfg(tiny):
    rt = VirtualTimeRuntime(4)
    return parse_binary(tiny.binary, rt)


class TestBasicShapes:
    def test_single_function(self):
        def build(a):
            a.label("main")
            a.mov_ri(Reg.R1, 5)
            a.ret()

        binary, labels = make_binary(build, {"main": "main"})
        cfg = parse_binary(binary, SerialRuntime())
        assert cfg.stats.n_functions == 1
        f = cfg.function_at(labels["main"])
        assert f.status is ReturnStatus.RETURN
        assert f.ranges() == [(labels["main"], labels["main"] + 7)]

    def test_diamond(self):
        def build(a):
            a.label("main")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.EQ, L("else_"))
            a.nop()
            a.jmp(L("join"))
            a.label("else_")
            a.nop()
            a.label("join")
            a.ret()

        binary, labels = make_binary(build, {"main": "main"})
        cfg = parse_binary(binary, SerialRuntime())
        types = sorted(e.etype.value for e in cfg.edges())
        assert types == ["cond_ft", "cond_taken", "direct", "fallthrough"]
        # else_ falls through into join: split-induced fallthrough edge.

    def test_loop_back_edge(self):
        def build(a):
            a.label("main")
            a.mov_ri(Reg.R1, 3)
            a.label("head")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.EQ, L("out"))
            a.insn(Opcode.ADDI, Reg.R1, (1 << 32) - 1)
            a.jmp(L("head"))
            a.label("out")
            a.ret()

        binary, labels = make_binary(build, {"main": "main"})
        cfg = parse_binary(binary, SerialRuntime())
        back = [e for e in cfg.edges()
                if e.etype is EdgeType.DIRECT
                and e.dst.start == labels["head"]]
        assert len(back) == 1
        # The block [main, head) was split at the back-edge target.
        b = cfg.block_at(labels["main"])
        assert b.end == labels["head"]

    def test_call_and_fallthrough(self):
        def build(a):
            a.label("main")
            a.call(L("callee"))
            a.nop()
            a.ret()
            a.label("callee")
            a.ret()

        binary, labels = make_binary(build, {"main": "main",
                                             "callee": "callee"})
        cfg = parse_binary(binary, SerialRuntime())
        kinds = {e.etype for e in cfg.edges()}
        assert EdgeType.CALL in kinds and EdgeType.CALL_FT in kinds
        assert cfg.function_at(labels["callee"]).status is ReturnStatus.RETURN

    def test_call_to_known_noreturn_no_fallthrough(self):
        def build(a):
            a.label("main")
            a.call(L("exit"))
            # No code after: next function starts immediately.
            a.label("exit")
            a.halt()

        binary, labels = make_binary(build, {"main": "main", "exit": "exit"})
        cfg = parse_binary(binary, SerialRuntime())
        assert not any(e.etype is EdgeType.CALL_FT for e in cfg.edges())
        assert cfg.function_at(labels["exit"]).status is ReturnStatus.NORETURN

    def test_undecodable_candidate(self):
        def build(a):
            a.label("main")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.EQ, L("junk"))
            a.ret()
            a.label("junk")
            a.raw(b"\x00\x00")

        binary, labels = make_binary(build, {"main": "main"})
        cfg = parse_binary(binary, SerialRuntime())  # must not crash
        junk_block = [b for b in cfg.blocks() if b.start == labels["junk"]]
        assert all(b.is_empty for b in junk_block)


class TestSharedCode:
    def test_two_functions_share_block(self):
        """Both functions' boundaries include the shared block."""

        def build(a):
            a.label("f1")
            a.cmp_ri(Reg.R1, 0)
            a.jcc(Cond.NE, L("shared"))
            a.ret()
            a.label("f2")
            a.cmp_ri(Reg.R2, 0)
            a.jcc(Cond.NE, L("shared"))
            a.ret()
            a.label("shared")
            a.mov_ri(Reg.R0, 1)
            a.ret()

        binary, labels = make_binary(build, {"f1": "f1", "f2": "f2"})
        cfg = parse_binary(binary, VirtualTimeRuntime(4))
        f1 = cfg.function_at(labels["f1"])
        f2 = cfg.function_at(labels["f2"])
        shared_start = labels["shared"]
        assert any(b.start == shared_start for b in f1.blocks)
        assert any(b.start == shared_start for b in f2.blocks)
        # Exactly one block object exists at the shared address.
        assert len([b for b in cfg.blocks() if b.start == shared_start]) == 1

    def test_branch_into_middle_splits(self):
        """A branch into an existing block's interior splits it."""

        def build(a):
            a.label("f1")
            a.nop()
            a.label("mid")
            a.nop()
            a.nop()
            a.ret()
            a.label("f2")
            a.jmp(L("mid"))

        binary, labels = make_binary(build, {"f1": "f1", "f2": "f2"})
        cfg = parse_binary(binary, VirtualTimeRuntime(4))
        b1 = cfg.block_at(labels["f1"])
        assert b1.end == labels["mid"]
        bm = cfg.block_at(labels["mid"])
        assert bm is not None
        ft = [e for e in b1.out_edges if e.etype is EdgeType.FALLTHROUGH]
        assert len(ft) == 1 and ft[0].dst is bm


class TestEquivalence:
    """The headline property: identical results at any parallelism."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8, 16])
    def test_worker_count_invariance(self, tiny, tiny_cfg, workers):
        rt = VirtualTimeRuntime(workers)
        cfg = parse_binary(tiny.binary, rt)
        assert cfg.signature() == tiny_cfg.signature()

    def test_serial_runtime_matches(self, tiny, tiny_cfg):
        cfg = parse_binary(tiny.binary, SerialRuntime())
        assert cfg.signature() == tiny_cfg.signature()

    def test_thread_backend_matches(self, tiny, tiny_cfg):
        cfg = parse_binary(tiny.binary, ThreadRuntime(8))
        assert cfg.signature() == tiny_cfg.signature()

    def test_round_mode_matches_task_mode(self, tiny, tiny_cfg):
        opts = ParseOptions(task_parallel=False)
        cfg = parse_binary(tiny.binary, VirtualTimeRuntime(4), opts)
        assert cfg.signature() == tiny_cfg.signature()

    def test_options_do_not_change_result(self, tiny, tiny_cfg):
        for opts in (ParseOptions(sort_functions=False),
                     ParseOptions(thread_local_cache=False),
                     ParseOptions(eager_noreturn_notify=False)):
            cfg = parse_binary(tiny.binary, VirtualTimeRuntime(4), opts)
            assert cfg.signature() == tiny_cfg.signature()

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equivalence_random_binaries(self, seed):
        sb = synthesize(generate_program(
            seed, GenParams(n_functions=25, n_shared_error_groups=1,
                            shared_group_size=2, noreturn_chain_len=2,
                            n_noreturn_cycles=1, n_listing1_pairs=1,
                            pct_error_call=0.1)))
        sig1 = parse_binary(sb.binary, SerialRuntime()).signature()
        sig8 = parse_binary(sb.binary, VirtualTimeRuntime(8)).signature()
        assert sig1 == sig8

    def test_vt_runs_are_bit_identical(self, tiny):
        r1, r2 = VirtualTimeRuntime(6), VirtualTimeRuntime(6)
        c1 = parse_binary(tiny.binary, r1)
        c2 = parse_binary(tiny.binary, r2)
        assert c1.signature() == c2.signature()
        assert r1.makespan == r2.makespan


class TestAgainstGroundTruth:
    def test_symtab_functions_all_found(self, tiny, tiny_cfg):
        for sym in tiny.binary.symtab.functions():
            assert tiny_cfg.function_at(sym.offset) is not None

    def test_most_ranges_match_ground_truth(self, tiny, tiny_cfg):
        """The known difference categories aside, ranges match GT."""
        gt = tiny.ground_truth
        matched = 0
        mismatched = []
        for entry, name in gt.entry_names.items():
            f = tiny_cfg.function_at(entry)
            if f is None:
                mismatched.append((name, "missing"))
                continue
            if f.ranges() == gt.range_of(name):
                matched += 1
            else:
                mismatched.append((name, "range"))
        # Known sources of difference: error_report callers, cold parents.
        assert matched >= len(gt.entry_names) * 0.75, mismatched

    def test_jump_table_sizes(self, tiny, tiny_cfg):
        found = {jt.table_addr: jt.n_entries for jt in tiny_cfg.jump_tables
                 if jt.table_addr is not None}
        for addr, size in tiny.ground_truth.jump_tables.items():
            assert found.get(addr) == size

    def test_scaling_is_monotone(self, tiny):
        spans = []
        for n in (1, 4, 16):
            rt = VirtualTimeRuntime(n)
            parse_binary(tiny.binary, rt)
            spans.append(rt.makespan)
        assert spans[0] > spans[1] >= spans[2]


class TestDecodeCache:
    def test_cache_survives_an_undecodable_first_entry(self, tiny):
        """Regression: when the first block a thread parsed decoded
        nothing, its stored cache was an empty (falsy) dict that
        ``or {}`` kept replacing with a throwaway — every later block
        decoded afresh and the procs worker shipped no instructions."""
        binary = tiny.binary
        real = binary.entry_addresses()[0]
        bogus = 0x10
        assert not binary.decoder.contains(bogus)
        rt = SerialRuntime()
        parser = ParallelParser(binary, rt,
                                ParseOptions(sort_functions=False),
                                seed_entries=[bogus, real])
        rt.run(parser.execute_fragment)
        assert parser.blocks_by_start.get(bogus).is_empty
        cache = parser.local_decode_cache()
        assert real in cache
        # Decoded once: a second pass is all hits, so nothing to charge.
        insns, _ended_cf, misses = parser.decoder.scan_run(real, cache)
        assert insns and misses == 0


class TestSeedEntries:
    def test_execute_needs_the_full_f0(self, tiny):
        """Finalization relies on every F0 entry having its function, so
        a shard-seeded parser runs ``execute_fragment`` only."""
        rt = SerialRuntime()
        parser = ParallelParser(tiny.binary, rt, seed_entries=[
            tiny.binary.entry_addresses()[0]])
        with pytest.raises(RuntimeConfigError, match="full F0"):
            rt.run(parser.execute)


class TestStats:
    def test_stats_populated(self, tiny_cfg):
        s = tiny_cfg.stats
        assert s.n_functions > 20
        assert s.n_blocks > s.n_functions
        assert s.n_edges > s.n_blocks * 0.5
        assert s.n_waves >= 1

    def test_parse_binary_runs_all_phases(self, tiny):
        rt = VirtualTimeRuntime(2, enable_trace=True)
        parse_binary(tiny.binary, rt)
        names = [p.name for p in rt.trace.phases]
        assert names == ["cfg_init", "cfg_traversal", "cfg_finalize"]
