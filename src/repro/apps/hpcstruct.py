"""hpcstruct: program structure recovery (Section 7.1 / Figure 2).

Relates machine instructions to functions (AC1), loops (AC2), source
lines (AC3) and inlined functions (AC4) by combining the parsed CFG with
DWARF debug information.  The pipeline reproduces the seven phases of the
paper's Figure 2 trace:

1. ``read``        — read the binary from disk (serial);
2. ``dwarf_types`` — parse DWARF type info + CU DIEs (parallel per CU,
   imbalanced when CU sizes differ);
3. ``line_map``    — build the address-to-line structure (serial: "the
   design of the data structure used here makes this region difficult to
   parallelize");
4. ``cfg``         — parallel CFG construction (Section 5);
5. ``skeleton``    — build export skeletons (serial);
6. ``queries``     — per-function loop/inline/line queries (parallel,
   dynamic schedule over size-sorted functions — Listing 7);
7. ``output``      — serialize the structure file (parallel writer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyses.loops import find_loops
from repro.binary.dwarf import FunctionDIE, InlinedCall
from repro.binary.loader import LoadedBinary
from repro.binary.symtab import IndexedSymbols
from repro.core.cfg import ParseStats, ParsedCFG
from repro.core.parallel_parser import ParseOptions, parse
from repro.runtime.api import Runtime


@dataclass
class LoopStructure:
    """One loop node of the structure document."""

    header: int
    depth: int
    n_blocks: int
    children: list["LoopStructure"] = field(default_factory=list)


@dataclass
class InlineStructure:
    """One inlined-call node of the structure document."""

    callee: str
    call_file: str
    call_line: int
    children: list["InlineStructure"] = field(default_factory=list)


@dataclass
class FunctionStructure:
    """Structure entry for one function (what hpcstruct exports)."""

    name: str
    entry: int
    ranges: list[tuple[int, int]]
    loops: list[LoopStructure] = field(default_factory=list)
    inlines: list[InlineStructure] = field(default_factory=list)
    n_lines: int = 0
    source_file: str = ""


@dataclass
class HpcstructResult:
    """Output of one hpcstruct run."""

    structure: list[FunctionStructure]
    phase_durations: dict[str, int]
    makespan: int
    cfg_stats: ParseStats
    n_symbols: int
    n_dies: int
    n_line_rows: int

    @property
    def dwarf_time(self) -> int:
        """Table 2's "DWARF" column: the parallel DWARF parse phase."""
        return self.phase_durations["dwarf_types"]

    @property
    def cfg_time(self) -> int:
        """Table 2's "CFG" column: parallel CFG construction."""
        return self.phase_durations["cfg"]


def hpcstruct(binary: LoadedBinary, rt: Runtime,
              parse_options: ParseOptions | None = None) -> HpcstructResult:
    """Run the full hpcstruct pipeline on ``rt``."""
    app = _Hpcstruct(binary, rt, parse_options)
    return rt.run(app.execute)


class _Hpcstruct:
    def __init__(self, binary: LoadedBinary, rt: Runtime,
                 parse_options: ParseOptions | None):
        self.binary = binary
        self.rt = rt
        self.parse_options = parse_options or ParseOptions()

    def execute(self) -> HpcstructResult:
        rt = self.rt

        # Phase 1: read the binary from "disk".
        with rt.phase("read") as read:
            rt.charge(rt.cost.io_per_kib
                      * max(1, self.binary.image.total_size // 1024))

        # Phase 2: DWARF types + symbols, parallel per CU (and the
        # multi-keyed parallel symbol table of Listing 6).
        debug = self.binary.debug_info
        symbols = IndexedSymbols(rt)
        with rt.phase("dwarf_types") as dwarf_types:
            rt.parallel_for(
                debug.cus,
                lambda cu: rt.charge(rt.cost.dwarf_per_die * cu.die_count()),
            )
            rt.parallel_for(list(self.binary.symtab), symbols.insert,
                            grain=8)

        # Phase 3: serial line map.
        with rt.phase("line_map") as line_map:
            rt.charge(rt.cost.dwarf_per_line * debug.line_count())
            line_rows_by_file: dict[str, int] = {}
            for cu in debug.cus:
                line_rows_by_file[cu.name] = len(cu.line_rows)

        # Phase 4: parallel CFG construction.
        with rt.phase("cfg") as cfg_phase:
            cfg = parse(self.binary, rt, self.parse_options)

        # Phase 5: serial skeleton build.
        functions = cfg.functions()
        with rt.phase("skeleton") as skeleton:
            rt.charge(rt.cost.output_per_item * max(1, len(functions)))
            dies_by_entry = self._index_dies(debug.all_functions())

        # Phase 6: parallel per-function queries (size-sorted, Listing 7).
        structures: list[FunctionStructure] = []

        def analyze(func) -> None:
            fs = self._build_structure(func, dies_by_entry,
                                       line_rows_by_file)
            structures.append(fs)

        with rt.phase("queries") as queries:
            rt.parallel_for(functions, analyze,
                            sort_key=lambda f: len(f.blocks), reverse=True)

        # Phase 7: parallel output serialization.
        with rt.phase("output") as output:
            rt.parallel_for(
                structures,
                lambda fs: rt.charge(
                    rt.cost.output_per_item
                    * (1 + len(fs.loops) + len(fs.inlines) + fs.n_lines)),
                grain=8)

        structures.sort(key=lambda fs: (fs.entry, fs.name))
        durations = {p.name: p.duration
                     for p in (read, dwarf_types, line_map, cfg_phase,
                               skeleton, queries, output)}
        return HpcstructResult(
            structure=structures,
            phase_durations=durations,
            makespan=rt.now(),
            cfg_stats=cfg.stats,
            n_symbols=len(self.binary.symtab),
            n_dies=debug.die_count(),
            n_line_rows=debug.line_count(),
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _index_dies(dies: list[FunctionDIE]) -> dict[int, FunctionDIE]:
        out: dict[int, FunctionDIE] = {}
        for die in dies:
            if die.ranges:
                out.setdefault(die.low_pc, die)
        return out

    def _build_structure(self, func, dies_by_entry,
                         line_rows_by_file) -> FunctionStructure:
        rt = self.rt
        fs = FunctionStructure(name=func.name, entry=func.addr,
                               ranges=func.ranges())
        forest = find_loops(func, rt)
        fs.loops = [_loop_structure(l) for l in forest.roots]
        die = dies_by_entry.get(func.addr)
        if die is not None:
            fs.name = die.name
            fs.source_file = die.decl_file
            fs.inlines = [_inline_structure(i) for i in die.inlines]
            fs.n_lines = line_rows_by_file.get(die.decl_file, 0)
            rt.charge(rt.cost.dwarf_per_line * max(1, fs.n_lines // 4))
        return fs


def _loop_structure(loop) -> LoopStructure:
    return LoopStructure(header=loop.header, depth=loop.depth,
                         n_blocks=len(loop.blocks),
                         children=[_loop_structure(c)
                                   for c in loop.children])


def _inline_structure(inl: InlinedCall) -> InlineStructure:
    return InlineStructure(callee=inl.callee, call_file=inl.call_file,
                           call_line=inl.call_line,
                           children=[_inline_structure(c)
                                     for c in inl.children])
