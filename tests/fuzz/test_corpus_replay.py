"""Regression corpus replay: every pinned case, every backend.

Each ``tests/fuzz/corpus/*.json`` file is a ``repro.fuzz-case/1``
sidecar: a serialized program spec plus the expected serial signature
digest.  The corpus holds minimized repros pinned by the delta-reducer
(strict-jt divergences shrunk to the fixed cast plus one obscured
switch) alongside small hostile layouts kept at full size for breadth.

Replay re-synthesizes every case from its spec and asserts the parse
signature matches the pinned digest byte-for-byte on all four
backends — serial, virtual-time, threads and the process pool.  A
digest mismatch means parser behaviour drifted on a case the fuzzer
once minimized; investigate before re-pinning.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.core import parse_binary
from repro.fuzz.oracle import signature_digest
from repro.fuzz.specio import CASE_SCHEMA, load_case, spec_to_json
from repro.runtime import (
    ProcsRuntime,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
)
from repro.synth.codegen import synthesize

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

PROCS_WORKERS = int(os.environ.get("REPRO_PROCS_WORKERS", "2"))
PROCS_INLINE = os.environ.get("REPRO_PROCS_INLINE") == "1"

BACKENDS = {
    "serial": lambda: SerialRuntime(),
    "vtime": lambda: VirtualTimeRuntime(4),
    "threads": lambda: ThreadRuntime(4),
    "procs": lambda: ProcsRuntime(PROCS_WORKERS, in_process=PROCS_INLINE),
}


def _case_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def test_corpus_is_not_empty():
    assert len(CASES) >= 5, "the pinned regression corpus went missing"


@pytest.mark.parametrize("path", CASES, ids=_case_id)
class TestCorpusReplay:
    def test_case_is_well_formed(self, path):
        spec, case = load_case(path)
        assert case["schema"] == CASE_SCHEMA
        assert case["origin"]
        assert spec.functions
        digest = case["expect"]["signature_sha256"]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_stored_spec_is_what_the_encoder_writes(self, path):
        """Pins the encoder's bytes: re-encoding the loaded spec gives
        back the stored document, field for field."""
        spec, case = load_case(path)
        assert spec_to_json(spec) == case["spec"]

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=str)
    def test_replays_byte_for_byte(self, path, backend):
        spec, case = load_case(path)
        sb = synthesize(spec)
        sig = parse_binary(sb.binary, BACKENDS[backend]()).signature()
        assert signature_digest(sig) == case["expect"]["signature_sha256"], \
            f"{_case_id(path)} drifted on the {backend} backend"

    def test_minimized_cases_still_diverge(self, path):
        """A minimized repro that stops diverging is stale: the bug it
        pinned is gone (or the ablation moved) — time to re-reduce."""
        spec, case = load_case(path)
        if not case.get("failing_axes"):
            pytest.skip("breadth case: pinned for layout, not divergence")
        from repro.core.jump_table import JumpTableOptions
        from repro.core.parallel_parser import ParseOptions

        sb = synthesize(spec)
        union = parse_binary(sb.binary, SerialRuntime()).signature()
        strict = parse_binary(
            sb.binary, SerialRuntime(),
            ParseOptions(jt_options=JumpTableOptions(union_mode=False)),
        ).signature()
        assert union != strict, f"{_case_id(path)} no longer diverges"
