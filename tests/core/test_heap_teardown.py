"""A dropped parse is freed by reference counting, not by the collector.

``SerialRuntime.run`` pauses the cyclic collector, so anything a parse
leaves in a reference cycle waits for a full collection that the pause
postpones; in a pool worker that runs shard after shard, such garbage
piles up.  Each case drops a parse with the collector disabled and
counts what ``gc.collect()`` then finds unreachable.  Before
``ParsedCFG.release()`` and the broken closure and metrics cycles, a
serial parse of this binary left 61 708 objects and one worker shard
20 983.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import parse_binary
from repro.core.parallel_parser import ParseOptions
from repro.corpus import CorpusConfig, run_corpus
from repro.runtime import ProcsRuntime, SerialRuntime
from repro.runtime.procs import ShardTask, _run_shard, shard_regions
from repro.synth import tensorflow_like

#: Most unreachable objects one dropped case may leave behind.
LEFTOVER = 500


@pytest.fixture(scope="module")
def binary():
    return tensorflow_like(seed=104, scale=0.3).binary


@pytest.fixture(scope="module")
def first_shard(binary) -> ShardTask:
    """Shard 0 of a 2-way split, claimed as ``ProcsRuntime`` claims it."""
    shards = shard_regions(binary.entry_addresses(), 2)
    return ShardTask(0, shards[0], 0, shards[1][0])


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def _leftover(case) -> int:
    """Unreachable objects one run of ``case`` leaves (the first run,
    which may fill lazy caches of the binary, is not counted)."""
    case()
    gc.collect()
    case()
    return gc.collect()


def test_released_serial_parse(binary, collector_off):
    assert _leftover(
        lambda: parse_binary(binary, SerialRuntime()).release()) <= LEFTOVER


def test_worker_shard(binary, first_shard, collector_off):
    assert _leftover(
        lambda: _run_shard(binary, ParseOptions(), first_shard, True)
    ) <= LEFTOVER


def test_released_in_process_procs_parse(binary, collector_off):
    def case():
        parse_binary(binary, ProcsRuntime(2, in_process=True)).release()

    assert _leftover(case) <= LEFTOVER


def test_in_process_corpus(tmp_path, collector_off):
    runs = iter(range(2))

    def case():
        run_corpus(tmp_path / f"run-{next(runs)}",
                   CorpusConfig(count=4, seed=11, n_functions=10),
                   in_process=True)

    assert _leftover(case) <= LEFTOVER


def test_back_to_back_shards_keep_the_heap_flat(binary, first_shard,
                                                 collector_off):
    """What a pool worker does all day, with nothing collecting."""
    _run_shard(binary, ParseOptions(), first_shard, True)
    gc.collect()
    first = len(gc.get_objects())
    for _ in range(19):
        _run_shard(binary, ParseOptions(), first_shard, True)
    assert len(gc.get_objects()) <= first * 1.01
