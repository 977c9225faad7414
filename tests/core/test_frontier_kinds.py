"""Every frontier record kind replays to the serial fixed point.

A shard defers four kinds of step (:class:`~repro.core.parallel_parser.
FrontierRecord`): ``end``, ``edges``, ``intra`` and ``resume``.  Each
case below is an input whose in-process sharded parse ships at least one
record of that kind; the merged CFG must equal the serial one and every
shipped record must replay exactly once.  ``resume`` is rare: across
the TF-like, LLNL2-like, split-bait and hostile corpora only
``overlap-entry`` seed 0 at two shards ships one.
"""

from __future__ import annotations

import pytest

from repro.core import parse_binary
from repro.runtime import SerialRuntime
from repro.runtime.procs import ProcsRuntime
from repro.synth import hostile_binary

#: kind -> (hostile preset, seed, shards)
_SHIPS_KIND = {
    "end": ("oob-entry", 0, 3),
    "edges": ("jt-overapprox", 0, 2),
    "intra": ("jt-overapprox", 2, 2),
    "resume": ("overlap-entry", 0, 2),
}


@pytest.mark.parametrize("kind", sorted(_SHIPS_KIND))
def test_record_kind_replays_to_serial(kind):
    preset, seed, shards = _SHIPS_KIND[kind]
    binary = hostile_binary(preset, seed=seed).binary
    want = parse_binary(binary, SerialRuntime()).signature()
    rt = ProcsRuntime(shards, in_process=True)
    cfg = parse_binary(binary, rt)
    assert rt.degradation["level"] == "none"
    records = [rec for d in rt.shard_deltas for rec in d.fragment.frontier]
    assert kind in {rec.kind for rec in records}, "pinned input changed"
    assert {rec.kind for rec in records} <= set(_SHIPS_KIND)
    assert rt.metrics.counter("procs.frontier.records") == len(records)
    assert cfg.signature() == want
