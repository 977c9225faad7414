"""Checker outputs pinned from the commit before the compiled plans.

``pins/interproc.json`` holds, per binary, the sha256 of the
``repro.findings/1`` bytes and of ``repr`` of the sorted per-function
summaries, recorded with the checkers that walked a rebuilt
``Function`` graph instruction by instruction, three passes per
function — before the compiled plans and the block effects.
Replaying them is that change's "same summaries, same findings"
contract over three LLNL2-like binaries, a TF-like one and four seeds
of every hostile preset.

Re-record (only after an *intended* change of checker output)::

    PYTHONPATH=src python -m tests.analyses.test_interproc_pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyses.findings import canonical_bytes, findings_document
from repro.analyses.interproc import run_checkers
from repro.core import parse_binary
from repro.runtime import SerialRuntime
from repro.synth import (
    HOSTILE_PRESETS,
    hostile_binary,
    llnl2_like,
    tensorflow_like,
)

PINS = Path(__file__).parent / "pins" / "interproc.json"

HOSTILE_SEEDS = (11, 12, 13, 14)


def _corpus():
    """(pin key, binary factory) for the 28 pinned binaries."""
    for seed in (102, 1102, 2102):
        yield f"llnl2-{seed}", lambda s=seed: llnl2_like(seed=s, scale=0.5)
    yield "tf-104", lambda: tensorflow_like(seed=104, scale=0.3)
    for preset in HOSTILE_PRESETS:
        for seed in HOSTILE_SEEDS:
            yield (f"hostile-{preset}-{seed}",
                   lambda p=preset, s=seed: hostile_binary(p, seed=s))


def _analyze(sb):
    cfg = parse_binary(sb.binary, SerialRuntime())
    return run_checkers(cfg, "all", binary=sb.name)


def _digests(res) -> dict:
    doc = findings_document("checkers", list(res.summaries), res.findings)
    summaries = sorted((check, sorted(per_entry.items()))
                       for check, per_entry in res.summaries.items())
    return {
        "findings": len(res.findings),
        "findings_sha256":
            hashlib.sha256(canonical_bytes(doc)).hexdigest(),
        "summaries_sha256":
            hashlib.sha256(repr(summaries).encode()).hexdigest(),
    }


CORPUS = dict(_corpus())


@pytest.mark.parametrize("key", list(CORPUS))
def test_findings_and_summaries_match_the_parent(key):
    res = _analyze(CORPUS[key]())
    assert _digests(res) == json.loads(PINS.read_text())[key]
    # Every hostile preset is in the corpus: none may need the cap.
    assert res.stats["capped_units"] == 0


def test_pin_file_covers_exactly_the_corpus():
    assert sorted(json.loads(PINS.read_text())) == sorted(CORPUS)


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {key: _digests(_analyze(make())) for key, make in CORPUS.items()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
