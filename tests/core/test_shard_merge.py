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

from types import SimpleNamespace

from repro.core import parse_binary
from repro.core.parallel_parser import FrontierRecord, ParseOptions
from repro.core.shard_merge import (
    CFGFragment,
    StreamingMerge,
    _rebuild_fragment_graph,
    merge_fragments,
    partition_by_claims,
)
from repro.errors import InvalidInstructionError, RuntimeConfigError
from repro.runtime import SerialRuntime
from repro.runtime.faults import delta_error
from repro.runtime.procs import ADDRESS_CEILING, ShardTask, _run_shard
from repro.synth import tiny_binary


def _shard_deltas(sb, boundary, opts):
    """Two fragment parses with the ownership claim cut at ``boundary``
    (entries split by claim membership); return (deltas, warm cache)."""
    entries = sorted(sb.binary.entry_addresses())
    seeds = [tuple(a for a in entries if a < boundary),
             tuple(a for a in entries if a >= boundary)]
    assert seeds[0] and seeds[1], "boundary must be interior"
    tasks = [ShardTask(0, seeds[0], 0, boundary),
             ShardTask(1, seeds[1], boundary, ADDRESS_CEILING)]
    deltas = [_run_shard(sb.binary, opts, t, enable_metrics=True)
              for t in tasks]
    warm = {}
    for d in deltas:
        assert delta_error(d) is None  # verify the seal, open the delta
        warm.update(d.insns)
    return deltas, warm


def _fragment_parse(sb, boundary, opts=None):
    """Run a two-shard fragment parse and the batch merge; return
    (merged ParsedCFG, coordinator runtime, fragments)."""
    opts = opts or ParseOptions()
    deltas, warm = _shard_deltas(sb, boundary, opts)
    rt = SerialRuntime(enable_metrics=True)
    cfg = rt.run(lambda: merge_fragments(
        sb.binary, rt, opts, [d.fragment for d in deltas], warm))
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
        assert {"direct", "call"} & kinds

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

    def test_duplicate_attempt_fragments_deduped_by_max_attempt(self):
        """The retry ladder can hand the merge two fragments for one
        shard (a timed-out attempt's delta straggling in next to its
        retry's).  The merge must keep the highest attempt per shard
        and still reproduce the serial fixed point."""
        entries = sorted(_SB.binary.entry_addresses())
        boundary = entries[len(entries) // 2]
        seeds = [tuple(a for a in entries if a < boundary),
                 tuple(a for a in entries if a >= boundary)]
        tasks = [ShardTask(0, seeds[0], 0, boundary),
                 ShardTask(1, seeds[1], boundary, ADDRESS_CEILING)]
        opts = ParseOptions()
        deltas = [_run_shard(_SB.binary, opts, t, enable_metrics=False,
                             attempt=a)
                  for t in tasks for a in (1, 2)]  # two attempts each
        warm = {}
        for d in deltas:
            assert delta_error(d) is None
            warm.update(d.insns)
        rt = SerialRuntime(enable_metrics=True)
        cfg = rt.run(lambda: merge_fragments(
            _SB.binary, rt, opts, [d.fragment for d in deltas], warm))
        assert cfg.signature() == _SERIAL_SIG
        assert [d.fragment.attempt for d in deltas] == [1, 2, 1, 2]
        assert rt.metrics.counter("procs.merge.duplicate_fragments") == 2

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


class TestWavePartitions:
    def test_wave_partitions_by_claim_ownership(self):
        funcs = [SimpleNamespace(addr=a) for a in (10, 90, 150, 260)]
        # Single claim: serial wave.
        assert partition_by_claims([(0, 100)], funcs) is None
        # Three claims: functions split by entry ownership, including a
        # coordinator-minted function (260) mapping into the last claim.
        claims = [(0, 100), (100, 200), (200, 300)]
        parts = partition_by_claims(claims, funcs)
        assert [[f.addr for f in p] for p in parts] == [[10, 90], [150],
                                                        [260]]
        # All functions in one claim: nothing to shard.
        assert partition_by_claims(claims, funcs[:2]) is None


class TestBatchedFrontierDrains:
    def test_early_drain_overlaps_outstanding_shards(self):
        """Once both endpoint claims are installed, ready records drain
        *before* finish(): with two shards everything is ready at the
        second accept, so the early-drain counters fire and the final
        drain has nothing left — and the result is still serial."""
        entries = sorted(_SB.binary.entry_addresses())
        boundary = entries[len(entries) // 2]
        deltas, warm = _shard_deltas(_SB, boundary, ParseOptions())
        n_records = sum(len(d.fragment.frontier) for d in deltas)
        assert n_records, "corpus produced no frontier traffic"
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            sm.accept(deltas[0].fragment, deltas[0].insns)
            after_first = rt.metrics.counter("procs.frontier.early_records")
            sm.accept(deltas[1].fragment, deltas[1].insns)
            after_second = rt.metrics.counter("procs.frontier.early_records")
            return sm.finish(), after_first, after_second

        cfg, after_first, after_second = rt.run(run)
        assert cfg.signature() == _SERIAL_SIG
        # Nothing was ready while shard 1's claim was missing; everything
        # drained the moment ownership completed.
        assert after_first == 0
        assert after_second >= n_records
        assert rt.metrics.counter("procs.frontier.batches") >= 1
        # The five coordinator phase timers all exist even though the
        # final drain was empty (CI's procs-smoke asserts the same).
        for name in ("install", "frontier", "wave", "finalize"):
            assert rt.metrics.histogram(
                f"procs.phase.{name}_wall_ns") is not None, name

    @staticmethod
    def _undecodable_cond(frag):
        """A ``cond`` record whose branch address lies outside the code."""
        return FrontierRecord(
            seq=len(frag.frontier), kind="cond",
            func_addr=frag.functions[0][0], block_start=frag.blocks[0][0],
            end_addr=None, target=None, last_addr=ADDRESS_CEILING - 8,
            etype=None, site=None)

    def test_undecodable_record_stays_deferred_until_finish(self):
        """`_record_ready` cannot classify a cond/call record whose
        instruction does not decode: that is "not ready", not an error —
        the record waits in the pending list for the final drain, which
        replays it unconditionally (and so is where it surfaces)."""
        entries = sorted(_SB.binary.entry_addresses())
        deltas, _ = _shard_deltas(_SB, entries[len(entries) // 2],
                                  ParseOptions())
        bogus = self._undecodable_cond(deltas[1].fragment)
        deltas[1].fragment.frontier.append(bogus)
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            for d in deltas:
                sm.accept(d.fragment, d.insns)
            assert not sm._record_ready(bogus)
            assert sm._pending == {0: [], 1: [bogus]}
            with pytest.raises(InvalidInstructionError):
                sm.finish()

        rt.run(run)

    def test_replay_bug_is_not_swallowed(self, monkeypatch):
        """Only a decode failure means "not ready yet"; a programming
        error while classifying a record must propagate."""
        entries = sorted(_SB.binary.entry_addresses())
        deltas, _ = _shard_deltas(_SB, entries[len(entries) // 2],
                                  ParseOptions())
        rt = SerialRuntime()

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            sm.accept(deltas[0].fragment, deltas[0].insns)

            def broken(addr):
                raise AttributeError("injected replay bug")

            monkeypatch.setattr(sm, "_insn_at", broken)
            with pytest.raises(AttributeError, match="injected"):
                sm._record_ready(
                    self._undecodable_cond(deltas[0].fragment))

        rt.run(run)
