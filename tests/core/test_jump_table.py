"""Jump-table analysis tests: bounds, union scans, spills, trimming."""

import pytest

from repro.core import EdgeType, JumpTableOptions, ParseOptions, parse_binary
from repro.isa import Cond, Opcode, Reg
from repro.runtime import SerialRuntime, VirtualTimeRuntime, make_runtime
from repro.synth.asm import Assembler, L

from tests.core.test_parallel_parser import make_binary

RODATA = 0x100000


def table_bytes(labels, case_names, pad_zero=True):
    out = b"".join(labels[c].to_bytes(8, "little") for c in case_names)
    if pad_zero:
        out += b"\x00" * 8
    return out


def build_switch(a: Assembler, n_cases: int, obscured=False, spill=False,
                 table_addr=RODATA, prefix=""):
    """Emit the standard bounded-switch idiom; returns case label names."""
    cases = [f"{prefix}case{i}" for i in range(n_cases)]
    a.insn(Opcode.LOAD, Reg.R4, Reg.FP, 24)  # runtime index (opaque)
    if obscured:
        a.insn(Opcode.LOAD, Reg.R8, Reg.FP, 8)
        a.insn(Opcode.CMP_RR, Reg.R4, Reg.R8)
    else:
        a.cmp_ri(Reg.R4, n_cases - 1)
    a.jcc(Cond.A, L(f"{prefix}default"))
    if spill:
        a.insn(Opcode.LEA, Reg.R5, table_addr)
        a.insn(Opcode.STORE, Reg.FP, 16, Reg.R5)
        a.insn(Opcode.LOAD, Reg.R9, Reg.FP, 16)
        a.insn(Opcode.LOADIDX, Reg.R6, Reg.R9, Reg.R4)
    else:
        a.insn(Opcode.LEA, Reg.R5, table_addr)
        a.insn(Opcode.LOADIDX, Reg.R6, Reg.R5, Reg.R4)
    a.insn(Opcode.IJMP, Reg.R6)
    for c in cases:
        a.label(c)
        a.nop()
        a.jmp(L(f"{prefix}merge"))
    a.label(f"{prefix}default")
    a.nop()
    a.label(f"{prefix}merge")
    a.ret()
    return cases


class TestBoundedTable:
    def test_resolves_all_targets(self):
        cases_box = {}

        def build(a):
            a.label("main")
            cases_box["cases"] = build_switch(a, 5)

        binary, labels = make_binary(
            build, {"main": "main"},
            rodata=b"\x00" * 48, rodata_base=RODATA)
        # Rebuild rodata with resolved case addresses.
        binary.image.sections[".rodata"].data = table_bytes(
            labels, cases_box["cases"])
        cfg = parse_binary(binary, VirtualTimeRuntime(2))
        [jt] = cfg.jump_tables
        assert jt.bounded
        assert jt.table_addr == RODATA
        assert jt.n_entries == 5
        assert sorted(jt.targets) == sorted(labels[c]
                                            for c in cases_box["cases"])
        ind = [e for e in cfg.edges() if e.etype is EdgeType.INDIRECT]
        assert len(ind) == 5

    def test_case_blocks_in_function(self):
        cases_box = {}

        def build(a):
            a.label("main")
            cases_box["cases"] = build_switch(a, 3)

        binary, labels = make_binary(build, {"main": "main"},
                                     rodata=b"\x00" * 32,
                                     rodata_base=RODATA)
        binary.image.sections[".rodata"].data = table_bytes(
            labels, cases_box["cases"])
        cfg = parse_binary(binary, SerialRuntime())
        f = cfg.function_at(labels["main"])
        starts = {b.start for b in f.blocks}
        for c in cases_box["cases"]:
            assert labels[c] in starts


class TestStackSpill:
    def test_spilled_base_unresolved(self):
        """Difference category 3: table base through the stack."""

        def build(a):
            a.label("main")
            build_switch(a, 4, spill=True)

        binary, labels = make_binary(build, {"main": "main"},
                                     rodata=b"\x00" * 40,
                                     rodata_base=RODATA)
        cfg = parse_binary(binary, SerialRuntime())
        [jt] = cfg.jump_tables
        assert jt.table_addr is None
        assert jt.targets == []
        assert not any(e.etype is EdgeType.INDIRECT for e in cfg.edges())


class TestObscuredBound:
    def _build(self, union: bool):
        boxes = {}

        def build(a):
            a.label("f1")
            boxes["c1"] = build_switch(a, 3, obscured=True,
                                       table_addr=RODATA, prefix="a_")
            a.label("f2")
            boxes["c2"] = build_switch(a, 4, table_addr=RODATA + 24,
                                       prefix="b_")

        binary, labels = make_binary(build, {"f1": "f1", "f2": "f2"},
                                     rodata=b"\x00" * 80,
                                     rodata_base=RODATA)
        binary.image.sections[".rodata"].data = (
            table_bytes(labels, boxes["c1"], pad_zero=False)
            + table_bytes(labels, boxes["c2"]))
        opts = ParseOptions(
            jt_options=JumpTableOptions(union_mode=union))
        return binary, labels, boxes, opts

    def test_union_mode_overapproximates_then_trims(self):
        binary, labels, boxes, opts = self._build(union=True)
        cfg = parse_binary(binary, VirtualTimeRuntime(2), opts)
        jt1 = next(j for j in cfg.jump_tables if j.table_addr == RODATA)
        # The unbounded scan ran into f2's adjacent table and was trimmed
        # back at finalization (tables never overlap).
        assert not jt1.bounded
        assert jt1.trimmed > 0
        assert jt1.n_entries == 3
        assert sorted(jt1.targets) == sorted(labels[c] for c in boxes["c1"])
        assert cfg.stats.n_edges_trimmed > 0
        # f2's own table is unaffected.
        jt2 = next(j for j in cfg.jump_tables
                   if j.table_addr == RODATA + 24)
        assert jt2.bounded and jt2.n_entries == 4

    def test_strict_mode_loses_all_targets(self):
        """Pre-fix Dyninst behaviour: unknown bound -> empty target set."""
        binary, labels, boxes, opts = self._build(union=False)
        cfg = parse_binary(binary, VirtualTimeRuntime(2), opts)
        jt1 = next(j for j in cfg.jump_tables if j.table_addr == RODATA)
        assert jt1.targets == []
        # Case blocks of the obscured switch were never discovered.
        f1 = cfg.function_at(labels["f1"])
        starts = {b.start for b in f1.blocks}
        assert labels[boxes["c1"][0]] not in starts

    def test_trim_cleanup_is_deterministic(self):
        binary, labels, boxes, opts = self._build(union=True)
        sigs = {parse_binary(binary, VirtualTimeRuntime(n), opts).signature()
                for n in (1, 2, 4)}
        assert len(sigs) == 1


class TestTerminatorStopsScan:
    def test_last_table_scan_stops_at_zero_word(self):
        boxes = {}

        def build(a):
            a.label("main")
            boxes["c"] = build_switch(a, 3, obscured=True)

        binary, labels = make_binary(build, {"main": "main"},
                                     rodata=b"\x00" * 40,
                                     rodata_base=RODATA)
        binary.image.sections[".rodata"].data = table_bytes(
            labels, boxes["c"], pad_zero=True)
        cfg = parse_binary(binary, SerialRuntime())
        [jt] = cfg.jump_tables
        # Unbounded, but the zero terminator stopped the scan exactly.
        assert not jt.bounded
        assert jt.n_entries == 3
        assert jt.trimmed == 0


def build_late_base_switch():
    """A switch whose table base is defined on the path parsed second.

    ``main`` branches to ``lea_blk`` (defines the base) and falls through
    to a trampoline whose path reaches ``disp`` without defining it.  The
    traversal pops the fall-through first, so ``disp``'s first analysis
    is unresolved; ``lea_blk`` sits at a lower address than ``nolea``, so
    the fixed-point retry slices through it and reads ``[c0, c1, c0]``.
    """

    def build(a):
        a.label("main")
        a.insn(Opcode.LOAD, Reg.R4, Reg.FP, 24)
        a.cmp_ri(Reg.R4, 2)
        a.jcc(Cond.A, L("lea_blk"))
        a.jmp(L("nolea"))
        a.label("lea_blk")
        a.insn(Opcode.LEA, Reg.R5, RODATA)
        a.jmp(L("disp"))
        a.label("disp")
        a.insn(Opcode.LOADIDX, Reg.R6, Reg.R5, Reg.R4)
        a.insn(Opcode.IJMP, Reg.R6)
        for c in ("c0", "c1"):
            a.label(c)
            a.nop()
            a.ret()
        a.label("nolea")
        a.nop()
        a.jmp(L("disp"))

    binary, labels = make_binary(build, {"main": "main"},
                                 rodata=b"\x00" * 32, rodata_base=RODATA)
    binary.image.sections[".rodata"].data = table_bytes(
        labels, ["c0", "c1", "c0"])
    return binary, labels


class TestRetriedTableLinksEachTargetOnce:
    @pytest.mark.parametrize("backend,workers,kw", [
        ("serial", 1, {}), ("vtime", 4, {}), ("threads", 4, {}),
        ("procs", 2, {"in_process": True})])
    def test_one_indirect_edge_per_distinct_target(self, backend, workers,
                                                   kw):
        binary, labels = build_late_base_switch()
        cfg = parse_binary(binary, make_runtime(backend, workers, **kw))
        [jt] = cfg.jump_tables
        assert jt.targets == [labels["c0"], labels["c1"], labels["c0"]]
        ind = sorted(e.dst.start for e in cfg.edges()
                     if e.etype is EdgeType.INDIRECT)
        assert ind == [labels["c0"], labels["c1"]]
        serial = parse_binary(binary, SerialRuntime())
        assert cfg.signature() == serial.signature()


class TestSynthesizedTables:
    def test_all_ground_truth_tables_found(self):
        from repro.synth import tiny_binary

        sb = tiny_binary(seed=21)
        cfg = parse_binary(sb.binary, VirtualTimeRuntime(4))
        found = {j.table_addr for j in cfg.jump_tables
                 if j.table_addr is not None}
        for addr in sb.ground_truth.jump_tables:
            assert addr in found
