"""Tests for the binary-code-similarity application (Section 9)."""

import pytest

from repro.apps.similarity import (
    SimilarityIndex,
    build_index,
    cosine,
    fingerprint_function,
)
from repro.core import parse_binary
from repro.runtime import ProcsRuntime, SerialRuntime, VirtualTimeRuntime
from repro.synth import tiny_binary


@pytest.fixture(scope="module")
def corpus():
    # Two copies of the same program under different names plus one
    # unrelated binary: clone detection across binaries.
    a = tiny_binary(seed=31, n_functions=18, name="libA.so")
    b = tiny_binary(seed=31, n_functions=18, name="libB.so")
    c = tiny_binary(seed=77, n_functions=18, name="libC.so")
    return [a.binary, b.binary, c.binary]


@pytest.fixture(scope="module")
def index(corpus):
    rt = VirtualTimeRuntime(4)
    return build_index(corpus, rt).index


class TestFingerprints:
    def test_fingerprint_fields(self, corpus):
        cfg = parse_binary(corpus[0], SerialRuntime())
        f = cfg.functions()[2]
        fp = fingerprint_function(f, "libA.so")
        assert fp.name == f.name
        assert fp.entry == f.addr
        feats = fp.vector()
        assert any(k.startswith("op:") for k in feats)
        assert "cfg:blocks" in feats
        assert "df:max_live" in feats

    def test_identical_functions_score_one(self, corpus):
        cfg_a = parse_binary(corpus[0], SerialRuntime())
        cfg_b = parse_binary(corpus[1], SerialRuntime())
        fa = fingerprint_function(cfg_a.functions()[3], "libA.so")
        fb = fingerprint_function(cfg_b.functions()[3], "libB.so")
        assert cosine(fa, fb) == pytest.approx(1.0)

    def test_different_functions_score_below_one(self, corpus):
        cfg = parse_binary(corpus[0], SerialRuntime())
        funcs = [f for f in cfg.functions() if len(f.blocks) > 2]
        fa = fingerprint_function(funcs[0], "libA.so")
        fb = fingerprint_function(funcs[-1], "libA.so")
        assert cosine(fa, fb) < 1.0


class TestIndex:
    def test_index_covers_corpus(self, index, corpus):
        per_binary = {}
        for fp in index.fingerprints:
            per_binary[fp.binary] = per_binary.get(fp.binary, 0) + 1
        assert set(per_binary) == {"libA.so", "libB.so", "libC.so"}
        assert per_binary["libA.so"] == per_binary["libB.so"]

    def test_build_on_procs_shards_and_matches(self, index, corpus):
        rt = ProcsRuntime(2, in_process=True)
        built = build_index(corpus, rt).index
        assert built.fingerprints == index.fingerprints
        assert rt.metrics.counter("procs.shards") == 2 * len(corpus)

    def test_clone_detection(self, index):
        """A libA function's best cross-binary match is its libB clone."""
        needle = next(fp for fp in index.fingerprints
                      if fp.binary == "libA.so"
                      and len(fp.features) > 8)
        matches = index.query(needle, top_k=3)
        best = matches[0]
        assert best.score == pytest.approx(1.0)
        assert best.fingerprint.binary == "libB.so"
        assert best.fingerprint.name == needle.name

    def test_query_excludes_self(self, index):
        needle = index.fingerprints[0]
        for m in index.query(needle, top_k=10):
            assert not (m.fingerprint.binary == needle.binary
                        and m.fingerprint.entry == needle.entry)

    def test_parallel_query_matches_serial(self, index):
        needle = index.fingerprints[5]
        serial = index.query(needle, top_k=5)

        rt = VirtualTimeRuntime(4)
        parallel = rt.run(lambda: index.query(needle, rt, top_k=5))
        assert [(m.fingerprint.entry, round(m.score, 9))
                for m in serial] == \
            [(m.fingerprint.entry, round(m.score, 9)) for m in parallel]

    def test_build_scales(self, corpus):
        r1 = build_index(corpus, VirtualTimeRuntime(1))
        r8 = build_index(corpus, VirtualTimeRuntime(8))
        assert len(r8.index) == len(r1.index) == r1.n_functions
        assert r8.makespan < r1.makespan
