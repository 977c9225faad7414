"""Binary code similarity search (the Section 9 discussion use case).

"Software vulnerability searching calculates binary code similarity to
match known vulnerable code.  The calculation utilizes binary analysis
capabilities of analyzing machine instruction characteristics, control
flow, and data flow."  This module builds per-function fingerprints from
exactly those three capability groups and provides a parallel index for
nearest-function queries — demonstrating how the parallelized common
analyses benefit a third application beyond hpcstruct and BinFeat.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.analyses.liveness import liveness
from repro.analyses.loops import find_loops
from repro.binary.loader import LoadedBinary
from repro.core.cfg import Function
from repro.core.parallel_parser import ParseOptions, parse
from repro.runtime.api import Runtime


@dataclass(frozen=True)
class FunctionFingerprint:
    """Feature vector of one function."""

    binary: str
    name: str
    entry: int
    features: tuple[tuple[str, float], ...]  # sorted sparse vector

    def vector(self) -> dict[str, float]:
        return dict(self.features)


def fingerprint_function(func: Function, binary_name: str,
                         rt: Runtime | None = None) -> FunctionFingerprint:
    """Instruction + control-flow + data-flow features of one function."""
    feats: Counter = Counter()
    n_insns = 0
    # Machine instruction characteristics.
    for b in sorted(func.blocks, key=lambda b: b.start):
        for insn in b.insns:
            feats[f"op:{insn.opcode.name}"] += 1
            n_insns += 1
    if rt is not None:
        rt.charge(rt.cost.feature_per_insn * max(1, n_insns))
    # Control flow.
    feats["cfg:blocks"] = len(func.blocks)
    feats["cfg:edges"] = sum(len(b.out_edges) for b in func.blocks)
    forest = find_loops(func, rt)
    feats["cfg:loops"] = forest.n_loops
    feats["cfg:loop_depth"] = forest.max_depth
    # Data flow.
    live = liveness(func, rt)
    feats["df:max_live"] = live.max_live()
    feats["df:avg_live"] = round(live.avg_live(), 2)
    vec = tuple(sorted((k, float(v)) for k, v in feats.items() if v))
    return FunctionFingerprint(binary=binary_name, name=func.name,
                               entry=func.addr, features=vec)


def cosine(a: FunctionFingerprint, b: FunctionFingerprint) -> float:
    """Cosine similarity of two fingerprints (1.0 = identical)."""
    va, vb = a.vector(), b.vector()
    dot = sum(v * vb.get(k, 0.0) for k, v in va.items())
    na = math.sqrt(sum(v * v for v in va.values()))
    nb = math.sqrt(sum(v * v for v in vb.values()))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


@dataclass
class Match:
    fingerprint: FunctionFingerprint
    score: float


class SimilarityIndex:
    """A corpus-wide function index supporting nearest-function queries.

    Build with :func:`build_index` (parallel); queries score candidates in
    a parallel loop — the read-only-CFG pattern of Section 7.2 again.
    """

    def __init__(self, fingerprints: list[FunctionFingerprint]):
        self.fingerprints = sorted(fingerprints,
                                   key=lambda f: (f.binary, f.entry))

    def __len__(self) -> int:
        return len(self.fingerprints)

    def query(self, needle: FunctionFingerprint, rt: Runtime | None = None,
              top_k: int = 5, exclude_self: bool = True) -> list[Match]:
        """Rank the corpus by similarity to ``needle``."""
        scores: list[Match] = []

        def score(fp: FunctionFingerprint) -> None:
            if exclude_self and fp.binary == needle.binary \
                    and fp.entry == needle.entry:
                return
            if rt is not None:
                rt.charge(rt.cost.reduce_per_item
                          * max(1, len(fp.features)))
            scores.append(Match(fp, cosine(needle, fp)))

        if rt is not None:
            rt.parallel_for(self.fingerprints, score, grain=16)
        else:
            for fp in self.fingerprints:
                score(fp)
        scores.sort(key=lambda m: (-m.score, m.fingerprint.binary,
                                   m.fingerprint.entry))
        return scores[:top_k]


@dataclass
class BuildResult:
    index: SimilarityIndex
    makespan: int
    n_functions: int


def build_index(binaries: list[LoadedBinary], rt: Runtime,
                parse_options: ParseOptions | None = None) -> BuildResult:
    """Parse a corpus and fingerprint every function, in parallel."""

    def run() -> SimilarityIndex:
        fps: list[FunctionFingerprint] = []
        for binary in binaries:
            cfg = parse(binary, rt, parse_options)

            def fp_one(func: Function, name=binary.name) -> None:
                fps.append(fingerprint_function(func, name, rt))

            rt.parallel_for(cfg.functions(), fp_one,
                            sort_key=lambda f: len(f.blocks), reverse=True)
        return SimilarityIndex(fps)

    index = rt.run(run)
    return BuildResult(index=index, makespan=rt.makespan,
                       n_functions=len(index))
