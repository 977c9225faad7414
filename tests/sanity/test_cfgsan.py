"""cfgsan tests: clean on real parses, corruption negatives, op traces."""

import pytest

from repro.core.cfg import Edge, EdgeType
from repro.core.parallel_parser import ParallelParser, ParseOptions, \
    parse_binary
from repro.errors import SanityCheckError
from repro.runtime import make_runtime
from repro.runtime.procs import ProcsRuntime
from repro.sanity.cfgsan import (
    check_cfg,
    check_op_trace,
    check_parser_state,
    run_cfgsan,
)
from repro.synth import tiny_binary


def _parsed(sanitize=True, backend="serial", workers=1):
    """A completed parse; returns (rt, parser, cfg)."""
    sb = tiny_binary()
    rt = make_runtime(backend, workers)
    parser = ParallelParser(sb.binary, rt, ParseOptions(sanitize=sanitize))
    box = []
    rt.run(lambda: box.append(parser.execute()))
    return rt, parser, box[0]


class TestCleanParses:
    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("vtime", 4)])
    def test_sanitized_parse_passes_and_records_metrics(self, backend,
                                                        workers):
        rt, parser, cfg = _parsed(backend=backend, workers=workers)
        assert parser.op_trace, "sanitize=True must record a trace"
        # finalize ran both hooks without raising; counters prove it.
        assert rt.metrics.counter("sanity.cfgsan.checks") == 2
        assert rt.metrics.counter("sanity.cfgsan.violations") == 0
        assert check_cfg(cfg) == []

    def test_sanitize_off_records_no_trace_and_no_checks(self):
        rt, parser, _ = _parsed(sanitize=False)
        assert parser.op_trace is None
        assert rt.metrics.counter("sanity.cfgsan.checks") == 0

    def test_sanitized_signature_matches_unsanitized(self):
        sb = tiny_binary()
        sigs = []
        for sanitize in (False, True):
            rt = make_runtime("vtime", 4)
            cfg = parse_binary(sb.binary, rt, ParseOptions(sanitize=sanitize))
            sigs.append(cfg.signature())
        assert sigs[0] == sigs[1]

    def test_procs_shard_merge_hook_passes(self):
        sb = tiny_binary()
        rt = ProcsRuntime(2, in_process=True)
        cfg = parse_binary(sb.binary, rt, ParseOptions(sanitize=True))
        # shard-merge hook + finalize entry/exit all ran clean — on the
        # sharded pipeline, not on a quiet serial re-parse.
        assert rt.metrics.counter("sanity.cfgsan.checks") >= 3
        assert rt.metrics.counter("sanity.cfgsan.violations") == 0
        assert rt.degradation["level"] == "none"
        assert check_cfg(cfg) == []

    def test_procs_shard_merge_violation_reaches_the_caller(
            self, monkeypatch):
        """A sanitizer verdict is not a fault to recover from: the procs
        ladder must not swallow it into a serial re-parse."""
        from repro.sanity import cfgsan

        real = cfgsan.run_cfgsan

        def failing(parser, where, **kw):
            if where == "shard-merge":
                raise SanityCheckError(where, ["injected violation"])
            return real(parser, where, **kw)

        monkeypatch.setattr(cfgsan, "run_cfgsan", failing)
        rt = ProcsRuntime(2, in_process=True)
        with pytest.raises(SanityCheckError, match="shard-merge"):
            parse_binary(tiny_binary().binary, rt,
                         ParseOptions(sanitize=True))
        assert rt.degradation["level"] == "none"

    def test_procs_hook_runs_after_the_frontier_replay(self):
        """Mid-function claim boundaries make shards overrun each other:
        until its deferred "end" record replays, such a block overlaps
        its owner's.  The hook sits after the replay, where the
        invariants are supposed to hold — so the sweep is clean."""
        from tests.core.test_shard_merge import (
            _SB,
            _SERIAL_SIG,
            _fragment_parse,
        )

        entries = sorted(_SB.binary.entry_addresses())
        n_end = 0
        for k in range(1, len(entries) - 1):
            cut = entries[k] + 4  # one insn into function k's body
            cfg, rt, frags = _fragment_parse(_SB, cut,
                                             ParseOptions(sanitize=True))
            assert cfg.signature() == _SERIAL_SIG, hex(cut)
            assert rt.metrics.counter("sanity.cfgsan.checks") >= 3
            assert rt.metrics.counter("sanity.cfgsan.violations") == 0
            n_end += sum(r.kind == "end" for f in frags for r in f.frontier)
        assert n_end, "sweep produced no overrun records"

    def test_procs_transient_overlap_is_gone_by_the_hook(self):
        """A parse whose un-replayed union really does overlap (8 shards
        over overlapping entries: two overrunning blocks wait on their
        "end" records) is clean where the hook runs."""
        from repro.synth.hostile import hostile_binary

        sb = hostile_binary("overlap-entry", seed=1)
        rt = ProcsRuntime(8, in_process=True)
        parse_binary(sb.binary, rt, ParseOptions(sanitize=True))
        assert any(r.kind == "end" for d in rt.shard_deltas
                   for r in d.fragment.frontier)
        assert rt.metrics.counter("sanity.cfgsan.violations") == 0
        assert rt.degradation["level"] == "none"


class TestStructuralNegatives:
    def test_block_start_key_mismatch_is_caught(self):
        _, parser, _ = _parsed()
        start, blk = parser.blocks_by_start.sorted_items()[0]
        parser.blocks_by_start.insert(start + 1, blk)
        rules = {f.rule for f in check_parser_state(parser)}
        assert "block-start" in rules

    def test_double_end_registration_is_caught(self):
        _, parser, _ = _parsed()
        items = parser.block_ends.sorted_items()
        (end_a, blk_a), (end_b, _) = items[0], items[1]
        parser.block_ends.remove(end_b)
        parser.block_ends.insert(end_b, blk_a)
        findings = check_parser_state(parser)
        assert any(f.rule == "block-end" for f in findings)

    def test_broken_edge_symmetry_is_caught(self):
        _, parser, _ = _parsed()
        blk = next(b for _, b in parser.blocks_by_start.sorted_items()
                   if b.out_edges)
        e = blk.out_edges[0]
        e.dst.in_edges.remove(e)
        rules = {f.rule for f in check_parser_state(parser)}
        assert "edge-symmetry" in rules

    def test_overlapping_blocks_are_caught(self):
        _, parser, _ = _parsed()
        blocks = [b for _, b in parser.blocks_by_start.sorted_items()
                  if not b.is_empty]
        blocks.sort(key=lambda b: b.start)
        # Stretch one block into its successor's range.
        blocks[0].end = blocks[1].start + 1
        findings = check_parser_state(parser)
        assert any(f.rule in ("block-overlap", "block-end")
                   for f in findings)

    def test_function_entry_mismatch_is_caught(self):
        _, parser, _ = _parsed()
        addr, func = parser.functions.sorted_items()[0]
        parser.functions.insert(addr + 1, func)
        rules = {f.rule for f in check_parser_state(parser)}
        assert "function-entry" in rules

    def test_final_cfg_negative(self):
        _, _, cfg = _parsed()
        blk = next(b for b in cfg.blocks() if b.out_edges)
        ghost = Edge(blk, blk, EdgeType.DIRECT)
        blk.out_edges.append(ghost)  # not mirrored into in_edges
        assert any(f.rule == "edge-symmetry" for f in check_cfg(cfg))

    def test_duplicate_edge_is_caught(self):
        _, parser, cfg = _parsed()
        blk = next(b for b in cfg.blocks() if b.out_edges)
        e = blk.out_edges[0]
        twin = Edge(blk, e.dst, e.etype)
        blk.out_edges.append(twin)
        e.dst.in_edges.append(twin)
        for findings in (check_parser_state(parser), check_cfg(cfg)):
            assert [f.rule for f in findings] == ["edge-duplicate"]

    def test_retried_jump_table_parses_clean(self):
        from tests.core.test_jump_table import build_late_base_switch

        binary, _ = build_late_base_switch()
        rt = make_runtime("serial", 1)
        parse_binary(binary, rt, ParseOptions(sanitize=True))
        assert rt.metrics.counter("sanity.cfgsan.violations") == 0

    def test_run_cfgsan_raises_with_findings_and_metrics(self):
        rt, parser, _ = _parsed()
        start, blk = parser.blocks_by_start.sorted_items()[0]
        parser.blocks_by_start.insert(start + 1, blk)
        before = rt.metrics.counter("sanity.cfgsan.violations")
        with pytest.raises(SanityCheckError) as exc:
            run_cfgsan(parser, "test-hook")
        assert exc.value.where == "test-hook"
        assert exc.value.findings
        assert rt.metrics.counter("sanity.cfgsan.violations") > before

    def test_run_cfgsan_can_collect_instead_of_raise(self):
        _, parser, _ = _parsed()
        start, blk = parser.blocks_by_start.sorted_items()[0]
        parser.blocks_by_start.insert(start + 1, blk)
        findings = run_cfgsan(parser, "collect", raise_on_violation=False)
        assert findings


class TestOpTraceLegality:
    def test_clean_recorded_trace_is_legal(self):
        _, parser, _ = _parsed()
        assert check_op_trace(parser.op_trace) == []

    def test_oiec_must_be_monotone(self):
        trace = [("OIEC", 0x100, (1, 2, 3)), ("OIEC", 0x100, (1, 2))]
        assert [f.rule for f in check_op_trace(trace)] == ["oiec-monotone"]

    def test_oiec_superset_is_legal(self):
        trace = [("OIEC", 0x100, (1, 2)), ("OIEC", 0x100, (1, 2, 3))]
        assert check_op_trace(trace) == []

    def test_ocfec_requires_returning_callee(self):
        trace = [("OCFEC", 0x100, 0x200, "noreturn")]
        assert [f.rule for f in check_op_trace(trace)] == ["ocfec-order"]
        assert check_op_trace([("OCFEC", 0x100, 0x200, "return")]) == []

    def test_ofei_must_be_unique(self):
        trace = [("OFEI", 0x200, "call"), ("OFEI", 0x200, "tailcall")]
        assert [f.rule for f in check_op_trace(trace)] == ["ofei-unique"]

    def test_split_must_strictly_decrease(self):
        assert check_op_trace([("SPLIT", 0x100, 0x120, 0x110)]) == []
        bad = [("SPLIT", 0x100, 0x120, 0x120)]
        assert [f.rule for f in check_op_trace(bad)] == ["split-decreasing"]

    def test_empty_or_absent_trace_is_legal(self):
        assert check_op_trace(None) == []
        assert check_op_trace([]) == []
