"""Legacy serial CFG construction: the pre-parallel Dyninst model.

Section 4.2 assesses existing serial algorithms: they construct an
increasing chain ``G0 ≼ G1 ≼ … ≼ Gn`` with *no correction phase*, and
their results depend on the order functions are analyzed (Listing 1's
tail-call inconsistency) and on the order jump tables are resolved.

:class:`LegacySerialParser` reproduces that behaviour: single worker,
caller-controlled function analysis order, expansion phase only (no
finalization).  Tests use it to exhibit the order-dependence the paper
identifies, and to show that the parallel parser's finalization restores a
consistent answer for every order.
"""

from __future__ import annotations

from dataclasses import replace

from repro.binary.loader import LoadedBinary
from repro.core.cfg import ParsedCFG
from repro.core.finalize import _assign_boundaries
from repro.core.parallel_parser import ParallelParser, ParseOptions
from repro.runtime.serial import SerialRuntime


class LegacySerialParser:
    """Order-sensitive serial parser (expansion phase only)."""

    def __init__(self, binary: LoadedBinary,
                 order: list[int] | None = None,
                 options: ParseOptions | None = None):
        """``order``: entry addresses in desired analysis order; entries
        not listed are analyzed afterwards in address order."""
        self.binary = binary
        self._order = order or []
        opts = replace(options or ParseOptions(), sort_functions=False,
                       task_parallel=True)  # serial runtime: FIFO tasks
        self._rt = SerialRuntime()
        self._parser = ParallelParser(binary, self._rt, opts)

    @property
    def clock(self) -> int:
        return self._rt.now()

    def parse(self) -> ParsedCFG:
        return self._rt.run(self._execute)

    def _execute(self) -> ParsedCFG:
        parser = self._parser
        initial = parser._init_functions()
        if self._order:
            rank = {addr: i for i, addr in enumerate(self._order)}
            initial.sort(key=lambda fs: (rank.get(fs[0].addr, len(rank)),
                                         fs[0].addr))
        parser._traverse(initial)
        parser.noreturn_waves()

        # Expansion only: assign boundaries, skip every correction step.
        functions = {addr: f for addr, f in parser.functions.sorted_items()}
        _assign_boundaries(parser, functions)
        blocks = [b for _, b in parser.blocks_by_start.sorted_items()
                  if b.end is not None]
        tables = [info for _, info in parser.jump_tables.sorted_items()]
        stats = parser.stats
        stats.n_functions = len(functions)
        stats.n_blocks = len(blocks)
        stats.n_edges = sum(len(b.out_edges) for b in blocks)
        return ParsedCFG(functions=list(functions.values()), blocks=blocks,
                         jump_tables=tables, stats=stats)
