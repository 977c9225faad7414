"""Unit tests for the fragment export / structural merge pipeline.

The differential battery proves end-to-end equality through
``ProcsRuntime``; these tests drive the pieces directly so failures
localize: fragment parses at a *chosen* ownership boundary, the
cross-shard block-end reconciliation, frontier bookkeeping, the
ownership-violation guard and pickle-safety of the shipped records.
"""

import pickle
from array import array

import pytest

from repro.core import parse_binary
from repro.core.parallel_parser import FrontierRecord, ParseOptions
from repro.core.shard_merge import (
    CFGFragment,
    StreamingMerge,
    _rebuild_fragment_graph,
)
from repro.errors import InvalidInstructionError, RuntimeConfigError
from repro.runtime import SerialRuntime
from repro.runtime.faults import delta_error
from repro.runtime.procs import (
    ADDRESS_CEILING,
    ProcsRuntime,
    ShardTask,
    _run_shard,
)
from repro.synth import tiny_binary


def _shard_deltas(sb, boundary, opts):
    """Two fragment parses with the ownership claim cut at ``boundary``
    (entries split by claim membership); returns the opened deltas."""
    entries = sorted(sb.binary.entry_addresses())
    seeds = [tuple(a for a in entries if a < boundary),
             tuple(a for a in entries if a >= boundary)]
    assert seeds[0] and seeds[1], "boundary must be interior"
    tasks = [ShardTask(0, seeds[0], 0, boundary),
             ShardTask(1, seeds[1], boundary, ADDRESS_CEILING)]
    deltas = [_run_shard(sb.binary, opts, t, enable_metrics=True)
              for t in tasks]
    for d in deltas:
        assert delta_error(d) is None  # verify the seal, open the delta
    return deltas


def _merge_all(sm, deltas):
    """Accept every delta in shard order, then finish."""
    for d in deltas:
        sm.accept(d.fragment, d.insns)
    return sm.finish()


def _fragment_parse(sb, boundary, opts=None):
    """Run a two-shard fragment parse and the merge; return
    (merged ParsedCFG, coordinator runtime, fragments)."""
    opts = opts or ParseOptions()
    deltas = _shard_deltas(sb, boundary, opts)
    rt = SerialRuntime(enable_metrics=True)
    cfg = rt.run(
        lambda: _merge_all(StreamingMerge(sb.binary, rt, opts), deltas))
    return cfg, rt, [d.fragment for d in deltas]


# A corpus whose dense call/branch clusters guarantee cross-shard
# frontier traffic at interior boundaries (same profile the battery's
# "cross-shard-splits" program uses).
_SB = tiny_binary(seed=47, n_functions=24, n_shared_error_groups=4,
                  shared_group_size=6, pct_error_call=0.25,
                  pct_tail_call=0.20, pct_switch=0.20)
_SERIAL_SIG = parse_binary(_SB.binary, SerialRuntime()).signature()


class TestBoundaryReconciliation:
    def test_every_interior_boundary_merges_to_serial(self):
        """Shards ending the same region differently must reconcile to
        the serial block set — at *every* entry-aligned boundary (the
        splits :func:`shard_regions` can actually produce)."""
        entries = sorted(_SB.binary.entry_addresses())
        saw_frontier = False
        for boundary in entries[1:]:
            cfg, rt, frags = _fragment_parse(_SB, boundary)
            assert cfg.signature() == _SERIAL_SIG, (
                f"boundary {boundary:#x} diverged")
            saw_frontier |= any(f.frontier for f in frags)
        # The corpus is engineered so the boundaries actually cut
        # cross-shard edges; if none did, this test proved nothing.
        assert saw_frontier

    def test_mid_function_boundary_forces_overrun_and_reconverges(self):
        """A claim cut *inside* a function body makes shard 0's linear
        parse overrun its claim.  The overrunning shard must not
        register the foreign block end itself (only the owner of the CF
        instruction's address does — else the merge would double the
        edge multiset); the deferred "end" record replays it, and the
        merged CFG still equals serial."""
        entries = sorted(_SB.binary.entry_addresses())
        kinds = set()
        for k in range(1, len(entries) - 1):
            boundary = entries[k] + 4  # one insn into function k's body
            cfg, rt, frags = _fragment_parse(_SB, boundary)
            assert cfg.signature() == _SERIAL_SIG, (
                f"mid-function boundary {boundary:#x} diverged")
            for f in frags:
                lo, hi = f.owned
                for start in f.blocks[0]:
                    assert lo <= start < hi, "foreign block start exported"
                for rec in f.frontier:
                    kinds.add(rec.kind)
        # Linear overrun (kind "end") and ordinary cross-claim control
        # flow both fire somewhere in the sweep.
        assert "end" in kinds
        assert "edges" in kinds

    def test_merge_metrics_recorded(self):
        entries = sorted(_SB.binary.entry_addresses())
        cfg, rt, frags = _fragment_parse(_SB, entries[len(entries) // 2])
        m = rt.metrics
        assert m.counter("procs.merge.blocks") == len(
            {start for f in frags for start in f.blocks[0]})
        assert m.counter("procs.merge.functions") >= len(entries)
        assert m.counter("procs.frontier.records") == sum(
            len(f.frontier) for f in frags)
        assert m.histogram("procs.phase.install_wall_ns") is not None


class TestFragmentTransport:
    def test_fragment_pickle_roundtrip(self):
        entries = sorted(_SB.binary.entry_addresses())
        _, _, frags = _fragment_parse(_SB, entries[3])
        for frag in frags:
            clone = pickle.loads(pickle.dumps(frag))
            assert clone.shard_id == frag.shard_id
            assert clone.owned == frag.owned
            assert clone.blocks == frag.blocks
            assert clone.edges == frag.edges
            assert clone.functions == frag.functions
            assert clone.frontier == frag.frontier
            assert clone.reached == frag.reached

    def test_duplicate_block_start_rejected(self):
        """Ownership means block starts are shard-disjoint; a violation
        is a bug upstream and must fail loudly, not merge quietly."""
        a = CFGFragment(shard_id=0, owned=(0, 100),
                        blocks=(array("Q", [16]), array("q", [20]),
                                b"\x00", b"\x00"))
        b = CFGFragment(shard_id=1, owned=(100, 200),
                        blocks=(array("Q", [16]), array("q", [24]),
                                b"\x00", b"\x00"))
        blocks = {}
        _rebuild_fragment_graph(a, {}, blocks)
        with pytest.raises(RuntimeConfigError, match="ownership violated"):
            _rebuild_fragment_graph(b, {}, blocks)


class TestFrontierReplay:
    @staticmethod
    def _mid_deltas():
        entries = sorted(_SB.binary.entry_addresses())
        return _shard_deltas(_SB, entries[len(entries) // 2],
                             ParseOptions())

    def test_records_replay_once_in_finish(self):
        """``accept`` installs and stops there; ``finish`` replays every
        shipped record exactly once — and the result is still serial."""
        deltas = self._mid_deltas()
        n_records = sum(len(d.fragment.frontier) for d in deltas)
        assert n_records, "corpus produced no frontier traffic"
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            for d in deltas:
                sm.accept(d.fragment, d.insns)
                assert rt.metrics.counter("procs.frontier.records") == 0
            return sm.finish()

        cfg = rt.run(run)
        assert cfg.signature() == _SERIAL_SIG
        assert rt.metrics.counter("procs.frontier.records") == n_records
        # The merge's four phase timers all exist (the fifth, fan-out,
        # is the dispatch loop's; tests/runtime/test_procs.py asserts
        # all five on the real pool).
        for name in ("install", "frontier", "wave", "finalize"):
            assert rt.metrics.histogram(
                f"procs.phase.{name}_wall_ns") is not None, name

    @pytest.fixture(scope="class")
    def split_bait(self):
        """The battery's cross-shard-splits program and its serial
        signature."""
        sb = tiny_binary(seed=47, n_functions=44, n_shared_error_groups=6,
                         shared_group_size=8, pct_error_call=0.25,
                         pct_tail_call=0.20, pct_switch=0.20)
        return sb, parse_binary(sb.binary, SerialRuntime()).signature()

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_replayed_equals_shipped_at_every_shard_count(self, n,
                                                          split_bait):
        """No record replays twice, whatever the shard geometry."""
        sb, want = split_bait
        rt = ProcsRuntime(n, in_process=True)
        assert parse_binary(sb.binary, rt).signature() == want
        shipped = sum(len(d.fragment.frontier) for d in rt.shard_deltas)
        assert shipped
        assert rt.metrics.counter("procs.frontier.records") == shipped
        # One replay, one wave, one finalize: each tail phase is
        # observed exactly once, next to the fan-out and the installs.
        for name in ("fanout", "frontier", "wave", "finalize"):
            assert rt.metrics.histogram(
                f"procs.phase.{name}_wall_ns").count == 1, name
        assert rt.metrics.histogram(
            "procs.phase.install_wall_ns").count == len(rt.shard_deltas)

    def test_second_fragment_for_a_shard_is_rejected(self):
        """One fragment per shard: a second one for the same shard
        fails loudly in the ownership guard instead of merging."""
        deltas = self._mid_deltas()
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            sm.accept(deltas[0].fragment, deltas[0].insns)
            with pytest.raises(RuntimeConfigError, match="ownership"):
                sm.accept(deltas[0].fragment, deltas[0].insns)

        rt.run(run)

    @staticmethod
    def _undecodable_cond(frag):
        """An ``edges`` record whose branch address lies outside the
        code."""
        return FrontierRecord(
            kind="edges",
            func_addr=frag.functions[0][0], block_start=frag.blocks[0][0],
            end_addr=None, target=None, last_addr=ADDRESS_CEILING - 8,
            etype=None, site=None)

    def test_undecodable_record_surfaces_from_finish(self):
        """An edges record whose instruction does not decode is
        installed like any other fragment content and fails where it
        replays: ``finish()``."""
        deltas = self._mid_deltas()
        deltas[1].fragment.frontier.append(
            self._undecodable_cond(deltas[1].fragment))
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            for d in deltas:
                sm.accept(d.fragment, d.insns)
            with pytest.raises(InvalidInstructionError):
                sm.finish()

        rt.run(run)

    def test_replay_bug_is_not_swallowed(self, monkeypatch):
        """A programming error inside replay must propagate out of
        ``finish()``, not be mistaken for a deferred record."""
        deltas = self._mid_deltas()
        assert any(r.kind in ("edges", "end")
                   for d in deltas for r in d.fragment.frontier)
        rt = SerialRuntime()

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            for d in deltas:
                sm.accept(d.fragment, d.insns)

            def broken(addr):
                raise AttributeError("injected replay bug")

            monkeypatch.setattr(sm.parser, "_insn_at", broken)
            with pytest.raises(AttributeError, match="injected"):
                sm.finish()

        rt.run(run)
