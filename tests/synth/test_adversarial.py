"""Per-preset pins: hostile synthesis does what it claims, and the
parser's behaviour on each pathology is the one we rely on.

One test class per hostile preset (see ``repro.synth.hostile``).  Each
asserts two layers against ground truth:

1. the *generator* actually manufactured the pathology (stripped
   symtab, dense secondary entries, all-obscured switches, long junk
   runs, unwind-only entries);
2. the *parser's* pinned response to it — most importantly the
   jump-table over-approximation bound: union-mode scans past an
   obscured bound, bleeds into the neighboring table, and finalization
   trims every table back to its exact ground-truth size.
"""

from __future__ import annotations

import pytest

import repro.binary.format as fmt
from repro.apps.checker import DiffCategory, check_binary
from repro.core import parse_binary
from repro.core.jump_table import MAX_SCAN, JumpTableOptions
from repro.core.parallel_parser import ParseOptions
from repro.errors import SynthesisError
from repro.runtime import SerialRuntime, VirtualTimeRuntime
from repro.synth import HOSTILE_PRESETS, hostile_binary, hostile_params

SEED = 11


@pytest.fixture(scope="module")
def built():
    """One synthesized binary + serial parse per preset."""
    out = {}
    for preset in HOSTILE_PRESETS:
        sb = hostile_binary(preset, seed=SEED)
        out[preset] = (sb, parse_binary(sb.binary, SerialRuntime()))
    return out


class TestPresetAxes:
    def test_presets_are_exposed_via_synth_namespace(self):
        from repro.synth import corpus

        assert corpus.HOSTILE_PRESETS == HOSTILE_PRESETS
        assert len(HOSTILE_PRESETS) == 6

    def test_unknown_preset_rejected(self):
        with pytest.raises(SynthesisError, match="unknown hostile preset"):
            hostile_params("benign")

    def test_determinism(self):
        a = hostile_binary("hostile-all", seed=SEED)
        b = hostile_binary("hostile-all", seed=SEED)
        assert a.binary.image.text.data == b.binary.image.text.data
        assert a.ground_truth.function_ranges == \
            b.ground_truth.function_ranges

    @pytest.mark.parametrize("preset", HOSTILE_PRESETS, ids=str)
    def test_backends_agree_on_every_preset(self, built, preset):
        sb, cfg = built[preset]
        got = parse_binary(sb.binary, VirtualTimeRuntime(4)).signature()
        assert got == cfg.signature()


class TestStripped:
    def test_symtab_gone_dynsym_kept(self, built):
        sb, _ = built["stripped"]
        img = sb.binary.image
        assert not img.has_section(fmt.SYMTAB)
        assert img.has_section(fmt.DYNSYM)
        assert img.has_section(fmt.EH_FRAME)

    def test_f0_shrinks_but_nothing_is_missed(self, built):
        """F0 (symbols + unwind info) loses the symtab entries, yet call
        traversal still discovers every ground-truth function."""
        sb, cfg = built["stripped"]
        gt_entries = set(sb.ground_truth.entry_names)
        f0 = set(sb.binary.entry_addresses())
        assert f0 < gt_entries or len(f0) < len(gt_entries)
        rep = check_binary(sb, cfg)
        assert rep.count(DiffCategory.MISSING_FUNCTION) == 0


class TestOverlapEntry:
    def test_secondary_entries_are_dense(self, built):
        sb, _ = built["overlap-entry"]
        multi = [f for f in sb.spec.functions if f.secondary_entry]
        assert len(multi) >= 3

    def test_parser_finds_both_entries(self, built):
        sb, cfg = built["overlap-entry"]
        gt = sb.ground_truth
        entry2 = {a for a, n in gt.entry_names.items()
                  if n.endswith("__entry2")}
        assert entry2
        for addr in entry2:
            assert cfg.function_at(addr) is not None

    def test_shared_error_blocks_overlap_functions(self, built):
        """Several functions' GT ranges include the same shared error
        block — overlapping code, the Section 2.1 sharing construct."""
        sb, _ = built["overlap-entry"]
        gt = sb.ground_truth
        shared = [f.name for f in sb.spec.functions
                  if f.shared_error_group == 0]
        assert len(shared) >= 2
        # every group-0 member's ranges include one identical range: the
        # group's shared block.
        common = set(map(tuple, gt.range_of(shared[0])))
        for name in shared[1:]:
            common &= set(map(tuple, gt.range_of(name)))
        assert common, "no shared range across the error group"


class TestJumpTableOverApprox:
    def test_every_switch_is_obscured(self, built):
        sb, _ = built["jt-overapprox"]
        switches = [seg.switch for f in sb.spec.functions
                    for seg in f.segments if seg.switch is not None]
        assert len(switches) >= 5
        assert all(sw.obscured_bound and not sw.stack_spill
                   for sw in switches)

    def test_overapproximation_bound(self, built):
        """The pinned union-mode contract: every obscured table scans
        unbounded (over-approximating into the neighbor table), is
        trimmed at finalization to its exact ground-truth size, and the
        scan never exceeds the ``MAX_SCAN`` cap."""
        sb, cfg = built["jt-overapprox"]
        gt = sb.ground_truth
        resolved = {j.table_addr: j for j in cfg.jump_tables
                    if j.table_addr is not None}
        assert set(resolved) == set(gt.jump_tables)
        for addr, want in sorted(gt.jump_tables.items()):
            jt = resolved[addr]
            assert not jt.bounded, f"table@{addr:#x} should be unbounded"
            assert jt.n_entries == want, f"table@{addr:#x} not trimmed"
            assert jt.n_entries + jt.trimmed <= MAX_SCAN
        assert cfg.stats.n_jt_overapprox == len(gt.jump_tables)
        assert cfg.stats.n_edges_trimmed > 0

    def test_strict_mode_genuinely_diverges(self, built):
        """The pre-fix ablation loses obscured-switch targets — the real
        divergence the fuzz oracle and reducer tests are built on."""
        sb, cfg = built["jt-overapprox"]
        strict = parse_binary(
            sb.binary, SerialRuntime(),
            ParseOptions(jt_options=JumpTableOptions(union_mode=False)))
        assert strict.signature() != cfg.signature()


class TestDataInText:
    def test_junk_runs_exist_between_functions(self, built):
        sb, _ = built["data-in-text"]
        gt = sb.ground_truth
        text = sb.binary.image.text
        covered = sorted(r for rs in gt.function_ranges.values()
                         for r in rs)
        gaps = 0
        prev_hi = covered[0][0]
        for lo, hi in covered:
            if lo > prev_hi:
                gaps += lo - prev_hi
            prev_hi = max(prev_hi, hi)
        # 70% junk probability with runs up to 24 bytes: a large share
        # of .text is non-code.
        assert gaps > len(sb.spec.functions) * 4
        assert text.addr <= covered[0][0]

    def test_no_blocks_inside_junk(self, built):
        """The parser never lifts junk bytes into the CFG: every parsed
        block lies inside some ground-truth range."""
        sb, cfg = built["data-in-text"]
        gt = sb.ground_truth
        ranges = sorted(r for rs in gt.function_ranges.values()
                        for r in rs)

        def in_gt(lo: int, hi: int) -> bool:
            return any(glo <= lo and hi <= ghi for glo, ghi in ranges)

        for b in cfg.blocks():
            if b.is_empty:
                continue
            lo, hi = b.range
            assert in_gt(lo, hi), f"block {lo:#x}-{hi:#x} outside GT code"


class TestOobEntry:
    def test_eh_only_functions_are_invisible_to_symbols(self, built):
        sb, _ = built["oob-entry"]
        gt = sb.ground_truth
        eh_only = [f for f in sb.spec.functions if f.eh_only]
        assert len(eh_only) >= 3
        sym_addrs = {s.offset for s in sb.binary.symtab.functions()}
        dyn_addrs = {s.offset for s in sb.binary.dynsym.functions()}
        eh_starts = set(sb.binary.eh_frame_starts)
        by_name = {n: a for a, n in gt.entry_names.items()}
        for f in eh_only:
            entry = by_name[f.name]
            assert entry in eh_starts, f"{f.name} missing from eh_frame"
            assert entry not in sym_addrs
            assert entry not in dyn_addrs

    def test_parser_discovers_out_of_band_entries(self, built):
        sb, cfg = built["oob-entry"]
        by_name = {n: a for a, n in sb.ground_truth.entry_names.items()}
        for f in sb.spec.functions:
            if f.eh_only:
                assert cfg.function_at(by_name[f.name]) is not None


class TestHostileAll:
    def test_all_pathologies_at_once(self, built):
        sb, _ = built["hostile-all"]
        img = sb.binary.image
        assert not img.has_section(fmt.SYMTAB)
        assert any(f.eh_only for f in sb.spec.functions)
        assert any(f.secondary_entry for f in sb.spec.functions)
        assert any(seg.switch is not None and seg.switch.obscured_bound
                   for f in sb.spec.functions for seg in f.segments)

    def test_cfgsan_clean(self, built):
        """The invariant sanitizer holds even on the worst-case layout."""
        sb, _ = built["hostile-all"]
        parse_binary(sb.binary, SerialRuntime(),
                     ParseOptions(sanitize=True))
