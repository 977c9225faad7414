"""Dyninst-style public facade: the Listing 7 programming model.

The paper's Section 7.2 shows how application developers consume the
parallel library::

    ParseAPI::CodeObject *co = getCodeObject();
    co->parse();                        // parallel CFG construction
    std::vector<Function*> funcs = co->funcs();
    SortFuncs(funcs);                   // load-balancing sort
    #pragma omp parallel for schedule(dynamic)
    for (auto f : funcs) {
        ParseAPI::LoopAnalyzer la(f);
        DataflowAPI::LivenessAnalyzer live(f);
        DataflowAPI::StackAnalysis sa(f);
    }

This module provides the same shape in Python::

    co = CodeObject(binary, rt)
    co.parse(analyses=...)              # CFG, then sorted dynamic loop
    results = co.analysis()             # one FunctionAnalysis per function

with :class:`LoopAnalyzer`, :class:`LivenessAnalyzer` and
:class:`StackAnalysis` wrapping the read-only per-function analyses.
After ``parse()`` the CFG is immutable, so analyzer construction is
thread-safe by design (Section 7.2's key observation).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.analyses.liveness import LivenessResult, liveness
from repro.analyses.loops import LoopForest, find_loops
from repro.analyses.stack_height import StackHeightResult, stack_heights
from repro.binary.loader import LoadedBinary
from repro.core.cfg import Function, ParsedCFG
from repro.core.parallel_parser import ParallelParser, ParseOptions
from repro.errors import ReproError
from repro.runtime.api import Runtime
from repro.runtime.serial import SerialRuntime


class LoopAnalyzer:
    """Per-function loop analysis (ParseAPI::LoopAnalyzer analog)."""

    def __init__(self, func: Function, rt: Runtime | None = None):
        self.func = func
        self.forest: LoopForest = find_loops(func, rt)

    @property
    def n_loops(self) -> int:
        return self.forest.n_loops

    @property
    def max_nesting(self) -> int:
        return self.forest.max_depth

    def loops(self):
        return list(self.forest.by_header.values())


class LivenessAnalyzer:
    """Register liveness (DataflowAPI::LivenessAnalyzer analog)."""

    def __init__(self, func: Function, rt: Runtime | None = None):
        self.func = func
        self.result: LivenessResult = liveness(func, rt)

    def live_at_entry(self):
        return self.result.live_in_regs(self.func.addr)

    @property
    def max_live(self) -> int:
        return self.result.max_live()


class StackAnalysis:
    """Stack-height analysis (DataflowAPI::StackAnalysis analog)."""

    def __init__(self, func: Function, rt: Runtime | None = None):
        self.func = func
        self.result: StackHeightResult = stack_heights(func, rt)

    def height_at(self, block_start: int):
        return self.result.height_in.get(block_start)


#: Analyzers :meth:`CodeObject.parse` can run, by name (``analyses=``).
DEFAULT_ANALYZERS: dict[str, Callable[[Function, Runtime | None], Any]] = {
    "loops": LoopAnalyzer,
    "liveness": LivenessAnalyzer,
    "stack": StackAnalysis,
}


@dataclass
class FunctionAnalysis:
    """Results of the per-function analyzer loop for one function."""

    func: Function
    results: dict[str, Any] = field(default_factory=dict)


class CodeObject:
    """The parse-and-analyze entry point (ParseAPI::CodeObject analog).

    A CodeObject owns one binary and one runtime.  ``parse()`` runs the
    parallel CFG construction of Section 5; afterwards the CFG is
    read-only and ``funcs()``/``blocks()`` expose it.  The runtime is
    single-use, matching the underlying scheduler; parse once per
    CodeObject.
    """

    def __init__(self, binary: LoadedBinary, rt: Runtime | None = None,
                 options: ParseOptions | None = None):
        self.binary = binary
        self.rt = rt or SerialRuntime()
        self.options = options or ParseOptions()
        self._cfg: ParsedCFG | None = None
        self._analysis: list[FunctionAnalysis] | None = None
        self._analyze_requests: list[tuple[tuple[str, ...], Any]] = []

    # -- stage 1: parse -------------------------------------------------------

    def parse(self, analyses: Iterable[str] = ()) -> ParsedCFG:
        """Run parallel CFG construction (and, optionally, the analyzer
        loop in the same runtime session).

        ``analyses`` names entries of :data:`DEFAULT_ANALYZERS` to run in
        a sorted dynamic parallel loop right after parsing — the whole of
        Listing 7 in one call.
        """
        if self._cfg is not None:
            raise ReproError("CodeObject already parsed")
        names = tuple(analyses)

        def run() -> ParsedCFG:
            parser = ParallelParser(self.binary, self.rt, self.options)
            cfg = parser.execute()
            if names:
                self._analysis = self._run_analyzers(cfg, names)
            return cfg

        self._cfg = self.rt.run(run)
        return self._cfg

    # -- stage 2: read-only queries --------------------------------------------

    @property
    def cfg(self) -> ParsedCFG:
        if self._cfg is None:
            raise ReproError("call parse() first")
        return self._cfg

    def funcs(self) -> list[Function]:
        """All functions (address order), as ``co->funcs()``."""
        return self.cfg.functions()

    def blocks(self):
        return self.cfg.blocks()

    def function_at(self, addr: int) -> Function | None:
        return self.cfg.function_at(addr)

    # -- stage 3: the parallel analyzer loop --------------------------------------

    def _run_analyzers(self, cfg: ParsedCFG, names: tuple[str, ...]
                       ) -> list[FunctionAnalysis]:
        unknown = [n for n in names if n not in DEFAULT_ANALYZERS]
        if unknown:
            raise ReproError(f"unknown analyses: {unknown}")
        out: list[FunctionAnalysis] = []

        def analyze(func: Function) -> None:
            fa = FunctionAnalysis(func=func)
            for name in names:
                fa.results[name] = DEFAULT_ANALYZERS[name](func, self.rt)
            out.append(fa)

        # Listing 7: sort functions by decreasing size so large functions
        # are processed first, then a dynamic-schedule parallel loop.
        self.rt.parallel_for(cfg.functions(), analyze,
                             sort_key=lambda f: len(f.blocks),
                             reverse=True)
        out.sort(key=lambda fa: fa.func.addr)
        return out

    def analysis(self) -> list[FunctionAnalysis]:
        """Results of the analyzer loop requested via ``parse``."""
        if self._analysis is None:
            raise ReproError("parse(analyses=...) was not requested")
        return list(self._analysis)


def analyze_binary(binary: LoadedBinary, rt: Runtime | None = None,
                   analyses: Iterable[str] = ("loops", "liveness"),
                   options: ParseOptions | None = None) -> CodeObject:
    """One-call convenience: parse + analyzer loop (Listing 7 inline)."""
    co = CodeObject(binary, rt, options)
    co.parse(analyses=analyses)
    return co
