"""Tests for the BinFeat application."""

import os

import pytest

from repro.apps.binfeat import binfeat
from repro.runtime import ProcsRuntime, SerialRuntime, VirtualTimeRuntime
from repro.runtime.faults import FaultPlan
from repro.synth import tiny_binary

from tests.runtime.test_faults import needs_pool

PROCS_WORKERS = int(os.environ.get("REPRO_PROCS_WORKERS", "2"))

STAGES = ["cfg", "instruction_features", "control_flow_features",
          "data_flow_features", "reduce"]


@pytest.fixture(scope="module")
def corpus():
    return [tiny_binary(seed=s, n_functions=16, name=f"bin{s}").binary
            for s in (11, 12, 13)]


@pytest.fixture(scope="module")
def result(corpus):
    return binfeat(corpus, VirtualTimeRuntime(4))


class TestStages:
    def test_all_stages_timed(self, result):
        assert list(result.stage_durations) == STAGES
        assert all(v > 0 for v in result.stage_durations.values())

    def test_counts(self, corpus, result):
        assert result.n_binaries == 3
        assert result.n_functions > 30  # ~17 functions per binary

    def test_feature_kinds_present(self, result):
        kinds = {k[0] for k in result.feature_index}
        assert kinds >= {"ngram", "loops", "loop_depth", "degree",
                         "max_live", "avg_live"}

    def test_ngram_features_counted(self, result):
        ngrams = {k: v for k, v in result.feature_index.items()
                  if k[0] == "ngram"}
        assert len(ngrams) > 10
        assert all(v >= 1 for v in ngrams.values())


class TestScaling:
    def test_parallel_beats_serial(self, corpus):
        r1 = binfeat(corpus, VirtualTimeRuntime(1))
        r8 = binfeat(corpus, VirtualTimeRuntime(8))
        assert r8.makespan < r1.makespan
        for stage in ("instruction_features", "control_flow_features",
                      "data_flow_features"):
            assert r8.stage_durations[stage] < r1.stage_durations[stage]

    def test_feature_index_independent_of_workers(self, corpus):
        r2 = binfeat(corpus, VirtualTimeRuntime(2))
        r8 = binfeat(corpus, VirtualTimeRuntime(8))
        assert r2.feature_index == r8.feature_index

    def test_cfg_stage_scales_worse_than_features(self, corpus):
        """The paper's Table 3 signature: per-binary CFG parallelism is
        scarce on small binaries, feature stages are embarrassingly
        parallel."""
        r1 = binfeat(corpus, VirtualTimeRuntime(1))
        r8 = binfeat(corpus, VirtualTimeRuntime(8))
        cfg_speedup = r1.cfg_time / r8.cfg_time
        if_speedup = r1.if_time / r8.if_time
        assert if_speedup > cfg_speedup

    def test_runs_on_serial_runtime(self, corpus):
        res = binfeat(corpus, SerialRuntime())
        assert res.makespan > 0
        assert len(res.feature_index) > 0


class TestOnProcs:
    """BinFeat parses every binary through the same call as
    ``parse_binary``, so a procs runtime shards each parse."""

    def test_on_procs_in_process_matches_serial(self, corpus, result):
        rt = ProcsRuntime(2, in_process=True)
        assert binfeat(corpus, rt).feature_index == result.feature_index
        assert rt.metrics.counter("procs.shards") == 2 * len(corpus)

    @needs_pool
    def test_on_procs_pool_matches_serial(self, corpus, result):
        rt = ProcsRuntime(PROCS_WORKERS, shard_deadline=30.0)
        assert binfeat(corpus, rt).feature_index == result.feature_index
        assert rt.metrics.counter("procs.shm.segments") == len(corpus)
        assert rt.degradation["level"] == "none"

    def test_one_run_keeps_the_faults_of_every_parse(self, corpus, result):
        """One run, two sharded parses: the fault record is the run's,
        so the second parse does not wipe the first one's events."""
        rt = ProcsRuntime(2, in_process=True,
                          fault_plan=FaultPlan.from_spec("exc@0x1"))
        res = binfeat(corpus[:2], rt)
        assert res.feature_index == binfeat(
            corpus[:2], SerialRuntime()).feature_index
        assert [(ev["kind"], ev["shard"], ev["attempt"])
                for ev in rt.fault_events] == [("shard_failed", 0, 1)] * 2
