"""BinFeat: binary code feature extraction for forensics (Section 7/8.3).

Four stages over a corpus of binaries, matching Table 3's columns:

- **CFG** — parallel CFG construction, one binary after another.  Small
  binaries offer few functions per binary, and jump-table analysis tasks
  dominate (imbalance), so this stage scales worst — the paper measures
  only ~4x at 64 threads and explains exactly these two causes.
- **IF** — instruction features: opcode n-grams per function (parallel
  over every function of every binary).
- **CF** — control-flow features: loop counts/depths, degree histograms,
  small subgraph signatures.
- **DF** — data-flow features: live-register counts.  Data-flow has
  higher per-function complexity, so the largest functions dominate the
  stage makespan (the paper's explanation for DF's 9x plateau).

A final parallel reduction merges per-function features into the global
feature index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analyses.liveness import liveness
from repro.analyses.loops import find_loops
from repro.binary.loader import LoadedBinary
from repro.core.cfg import Function, ParsedCFG
from repro.core.parallel_parser import ParseOptions, parse
from repro.runtime.api import Runtime


@dataclass
class BinFeatResult:
    """Output of one BinFeat run over a corpus."""

    stage_durations: dict[str, int]
    makespan: int
    feature_index: Counter
    n_binaries: int
    n_functions: int

    @property
    def cfg_time(self) -> int:
        return self.stage_durations["cfg"]

    @property
    def if_time(self) -> int:
        return self.stage_durations["instruction_features"]

    @property
    def cf_time(self) -> int:
        return self.stage_durations["control_flow_features"]

    @property
    def df_time(self) -> int:
        return self.stage_durations["data_flow_features"]


def binfeat(binaries: list[LoadedBinary], rt: Runtime,
            ngram: int = 2,
            parse_options: ParseOptions | None = None) -> BinFeatResult:
    """Run BinFeat over a corpus on ``rt``."""
    app = _BinFeat(binaries, rt, ngram, parse_options)
    return rt.run(app.execute)


@dataclass
class DistributedBinFeatResult:
    """Node-level distribution results (Section 9 discussion)."""

    per_node: list[BinFeatResult]
    makespan: int           #: max over nodes (nodes run independently)
    feature_index: Counter  #: merged global index

    @property
    def n_nodes(self) -> int:
        return len(self.per_node)


def binfeat_distributed(binaries: list[LoadedBinary], n_nodes: int,
                        workers_per_node: int,
                        runtime_factory=None) -> DistributedBinFeatResult:
    """Distribute the corpus across nodes (the paper's Section 9 note:
    "BinFeat can benefit from node level parallelism by distributing the
    analysis of different binaries to different machines").

    Each node runs an independent virtual-time runtime over its share of
    the corpus; the cluster makespan is the slowest node.  Shares are
    dealt round-robin, the simplest static balance.
    """
    from repro.runtime.vtime import VirtualTimeRuntime

    if runtime_factory is None:
        def runtime_factory():
            return VirtualTimeRuntime(workers_per_node)

    shares: list[list[LoadedBinary]] = [[] for _ in range(n_nodes)]
    for i, b in enumerate(binaries):
        shares[i % n_nodes].append(b)

    per_node: list[BinFeatResult] = []
    for share in shares:
        if not share:
            continue
        rt = runtime_factory()
        per_node.append(binfeat(share, rt))

    merged: Counter = Counter()
    for res in per_node:
        merged.update(res.feature_index)
    return DistributedBinFeatResult(
        per_node=per_node,
        makespan=max((r.makespan for r in per_node), default=0),
        feature_index=merged,
    )


class _BinFeat:
    def __init__(self, binaries: list[LoadedBinary], rt: Runtime,
                 ngram: int, parse_options: ParseOptions | None):
        self.binaries = binaries
        self.rt = rt
        self.ngram = ngram
        self.parse_options = parse_options or ParseOptions()

    def execute(self) -> BinFeatResult:
        rt = self.rt
        durations: dict[str, int] = {}

        # Stage 1: CFG construction, binary by binary (each parallel).
        cfgs: list[ParsedCFG] = []
        with rt.phase("cfg") as span:
            for binary in self.binaries:
                cfgs.append(parse(binary, rt, self.parse_options))
        durations["cfg"] = span.duration

        # Work list: every function of every binary, largest first
        # (Listing 7's sort for load balancing).
        work: list[Function] = [f for cfg in cfgs for f in cfg.functions()]
        per_function: list[Counter] = []

        def stage(name: str, fn) -> None:
            with rt.phase(name) as span:
                # Per-function enumeration/setup is serial driver work
                # (building the work queue, opening feature streams) —
                # one of the Amdahl terms that keeps the paper's feature
                # stages below perfect scaling.
                rt.charge(4 * max(1, len(work)))
                rt.parallel_for(work, fn,
                                sort_key=lambda f: len(f.blocks),
                                reverse=True)
            durations[name] = span.duration

        def extract_if(func: Function) -> None:
            feats = self._instruction_features(func)
            per_function.append(feats)

        def extract_cf(func: Function) -> None:
            per_function.append(self._control_flow_features(func))

        def extract_df(func: Function) -> None:
            per_function.append(self._data_flow_features(func))

        stage("instruction_features", extract_if)
        stage("control_flow_features", extract_cf)
        stage("data_flow_features", extract_df)

        # Final reduction: merge feature counters (tree-parallel).
        with rt.phase("reduce") as span:
            index = self._reduce(per_function)
        durations["reduce"] = span.duration

        return BinFeatResult(
            stage_durations=durations,
            makespan=rt.now(),
            feature_index=index,
            n_binaries=len(self.binaries),
            n_functions=len(work),
        )

    # -- feature extractors ---------------------------------------------------

    def _instruction_features(self, func: Function) -> Counter:
        rt = self.rt
        feats: Counter = Counter()
        n_insns = 0
        for b in sorted(func.blocks, key=lambda b: b.start):
            ops = [i.opcode.name for i in b.insns]
            n_insns += len(ops)
            for k in range(len(ops) - self.ngram + 1):
                feats[("ngram", tuple(ops[k:k + self.ngram]))] += 1
        rt.charge(rt.cost.feature_per_insn * max(1, n_insns))
        return feats

    def _control_flow_features(self, func: Function) -> Counter:
        rt = self.rt
        feats: Counter = Counter()
        n_edges = sum(len(b.out_edges) for b in func.blocks)
        rt.charge(rt.cost.feature_per_edge * max(1, n_edges))
        forest = find_loops(func, rt)
        feats[("loops", forest.n_loops)] += 1
        feats[("loop_depth", forest.max_depth)] += 1
        for b in func.blocks:
            out_deg = len([e for e in b.out_edges
                           if e.etype.intraprocedural])
            feats[("degree", out_deg)] += 1
        return feats

    def _data_flow_features(self, func: Function) -> Counter:
        feats: Counter = Counter()
        res = liveness(func, self.rt)
        # Data-flow analysis has higher complexity than instruction or
        # control-flow traversal (Section 8.3): charge the superlinear
        # component (iterative bit-vector passes scale with blocks *and*
        # instructions), which is why the largest functions dominate the
        # DF stage and it plateaus around 9x in the paper.
        rt = self.rt
        n_insns = sum(len(b.insns) for b in func.blocks)
        n_blocks = max(1, len(func.blocks))
        rt.charge(rt.cost.liveness_per_insn * n_insns * n_blocks // 2)
        feats[("max_live", res.max_live())] += 1
        feats[("avg_live", round(res.avg_live()))] += 1
        return feats

    def _reduce(self, counters: list[Counter]) -> Counter:
        """Parallel tree reduction into the global feature index."""
        rt = self.rt
        chunk = max(1, len(counters) // max(1, rt.num_workers * 4))
        chunks = [counters[i:i + chunk]
                  for i in range(0, len(counters), chunk)]
        partials: list[Counter] = []

        def merge_chunk(items: list[Counter]) -> None:
            acc: Counter = Counter()
            for c in items:
                rt.charge(rt.cost.reduce_per_item * max(1, len(c)))
                acc.update(c)
            partials.append(acc)

        rt.parallel_for(chunks, merge_chunk)
        final: Counter = Counter()
        for p in partials:
            rt.charge(rt.cost.reduce_per_item * max(1, len(p)) // 4)
            final.update(p)
        return final
