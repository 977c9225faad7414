"""Tests for the hpcstruct application pipeline."""

import os

import pytest

from repro.apps.hpcstruct import hpcstruct
from repro.runtime import ProcsRuntime, SerialRuntime, VirtualTimeRuntime
from repro.synth import tiny_binary

from tests.runtime.test_faults import needs_pool

PROCS_WORKERS = int(os.environ.get("REPRO_PROCS_WORKERS", "2"))

PHASES = ["read", "dwarf_types", "line_map", "cfg", "skeleton",
          "queries", "output"]


@pytest.fixture(scope="module")
def tiny():
    return tiny_binary(seed=9, n_functions=30)


@pytest.fixture(scope="module")
def result(tiny):
    rt = VirtualTimeRuntime(4)
    return hpcstruct(tiny.binary, rt)


class TestPipeline:
    def test_all_seven_phases_present(self, result):
        assert list(result.phase_durations) == PHASES
        assert all(d >= 0 for d in result.phase_durations.values())

    def test_dwarf_decode_runs_inside_its_phase(self, tiny, monkeypatch):
        """A freshly loaded image decodes ``.debug`` on its first
        ``debug_info`` access; that access is inside ``dwarf_types``,
        so a wall clock charges the decode to the DWARF column."""
        from repro.binary.dwarf import DebugInfo
        from repro.binary.loader import load_image

        events = []
        decode = DebugInfo.from_bytes.__func__

        def logged_decode(cls, raw):
            events.append("decode")
            return decode(cls, raw)

        monkeypatch.setattr(DebugInfo, "from_bytes",
                            classmethod(logged_decode))
        rt = SerialRuntime()
        phase = rt.phase

        def logged_phase(name):
            events.append(f"open {name}")
            return phase(name)

        rt.phase = logged_phase
        hpcstruct(load_image(tiny.binary.image.to_bytes()), rt)
        assert events[:3] == ["open read", "open dwarf_types", "decode"]

    def test_phase_sum_is_makespan(self, result):
        assert sum(result.phase_durations.values()) == result.makespan

    def test_structure_covers_functions(self, tiny, result):
        entries = {fs.entry for fs in result.structure}
        for sym in tiny.binary.symtab.functions():
            if sym.name.endswith("__entry2"):
                continue
            assert sym.offset in entries

    def test_dwarf_names_win_over_synthetic(self, tiny, result):
        by_entry = {fs.entry: fs for fs in result.structure}
        for sym in tiny.binary.symtab.functions():
            fs = by_entry.get(sym.offset)
            if fs is not None and not sym.name.endswith(".cold"):
                assert fs.name == sym.name or fs.name.startswith("func_")

    def test_loops_recovered(self, result):
        total_loops = sum(_count_loops(fs.loops) for fs in result.structure)
        assert total_loops > 0

    def test_inline_trees_attached(self, tiny, result):
        expected = sum(1 for f in tiny.binary.debug_info.all_functions()
                       if f.inlines)
        got = sum(1 for fs in result.structure if fs.inlines)
        assert got >= max(1, expected // 2)

    def test_counts(self, tiny, result):
        assert result.n_symbols == len(tiny.binary.symtab)
        assert result.n_dies == tiny.binary.debug_info.die_count()
        assert result.n_line_rows == tiny.binary.debug_info.line_count()


class TestScaling:
    def test_parallel_beats_serial(self, tiny):
        rt1 = VirtualTimeRuntime(1)
        r1 = hpcstruct(tiny.binary, rt1)
        rt8 = VirtualTimeRuntime(8)
        r8 = hpcstruct(tiny.binary, rt8)
        assert r8.makespan < r1.makespan
        # The parallel phases shrink...
        assert r8.dwarf_time <= r1.dwarf_time
        assert r8.cfg_time < r1.cfg_time
        # ...while the serial phases stay essentially constant (Amdahl).
        assert r8.phase_durations["line_map"] == \
            r1.phase_durations["line_map"]
        assert r8.phase_durations["read"] == r1.phase_durations["read"]

    def test_deterministic(self, tiny):
        a = hpcstruct(tiny.binary, VirtualTimeRuntime(4))
        b = hpcstruct(tiny.binary, VirtualTimeRuntime(4))
        assert a.phase_durations == b.phase_durations
        assert [fs.entry for fs in a.structure] == \
            [fs.entry for fs in b.structure]

    def test_structure_independent_of_workers(self, tiny):
        a = hpcstruct(tiny.binary, VirtualTimeRuntime(2))
        b = hpcstruct(tiny.binary, VirtualTimeRuntime(8))
        assert [(fs.entry, fs.name, fs.ranges) for fs in a.structure] == \
            [(fs.entry, fs.name, fs.ranges) for fs in b.structure]

    def test_runs_on_serial_runtime(self, tiny):
        res = hpcstruct(tiny.binary, SerialRuntime())
        assert res.makespan > 0
        assert len(res.structure) > 0


class TestOnProcs:
    """hpcstruct parses through the same call as ``parse_binary``, so a
    procs runtime shards its CFG phase."""

    def test_on_procs_in_process_matches_serial(self, tiny):
        want = hpcstruct(tiny.binary, SerialRuntime()).structure
        rt = ProcsRuntime(2, in_process=True)
        assert hpcstruct(tiny.binary, rt).structure == want
        assert rt.metrics.counter("procs.shards") >= 1
        assert len(rt.shard_deltas) == 2

    @needs_pool
    def test_on_procs_pool_matches_serial(self, tiny):
        want = hpcstruct(tiny.binary, SerialRuntime()).structure
        rt = ProcsRuntime(PROCS_WORKERS, shard_deadline=30.0)
        assert hpcstruct(tiny.binary, rt).structure == want
        assert rt.metrics.counter("procs.shards") >= 2
        assert rt.metrics.counter("procs.shm.segments") == 1  # pool image
        assert rt.degradation["level"] == "none"


def _count_loops(loops):
    return len(loops) + sum(_count_loops(l.children) for l in loops)
