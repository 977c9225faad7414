"""DWARF-like debug information: compilation units, DIEs, line tables.

Mirrors the structure hpcstruct consumes (Section 7.1/7.2 of the paper):

- a forest of compilation units (one per source file group), each holding
  subprogram DIEs with (possibly multiple, possibly shared) address ranges —
  the ground-truth encoding for functions sharing code and non-contiguous
  functions (Section 8.1);
- inlined-subroutine trees under each subprogram (AC4);
- a line table mapping addresses to file/line (AC3).

``die_count`` and ``line_count`` drive the simulated cost of parallel DWARF
parsing (Figure 2 phase 2 / Table 2 "DWARF" column).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.binary.bytesio import U32, ByteReader, ByteWriter

Range = tuple[int, int]

# The fixed records of ``.debug``.  Strings sit between them: a CU is
# its name then ``_CU``; a line row is ``_ADDR`` then its file and line.
_CU = struct.Struct("<II")      # after the name: n_type_dies, functions
_DECL = struct.Struct("<II")    # after the decl file: line, inlines
_RANGE = struct.Struct("<QQ")   # one address range, in a counted array
_ADDR = struct.Struct("<Q")


@dataclass
class InlinedCall:
    """An inlined-subroutine DIE: callee inlined at a call site."""

    callee: str
    call_file: str
    call_line: int
    ranges: list[Range] = field(default_factory=list)
    children: list["InlinedCall"] = field(default_factory=list)

    def die_count(self) -> int:
        return 1 + sum(c.die_count() for c in self.children)


@dataclass
class FunctionDIE:
    """A subprogram DIE.

    ``ranges`` may contain several non-contiguous address ranges (outlined
    cold blocks), and one range may appear under multiple subprograms
    (functions sharing code) — both cases the checker exercises.
    """

    name: str
    ranges: list[Range] = field(default_factory=list)
    decl_file: str = ""
    decl_line: int = 0
    inlines: list[InlinedCall] = field(default_factory=list)

    def die_count(self) -> int:
        return 1 + sum(i.die_count() for i in self.inlines)

    @property
    def low_pc(self) -> int:
        return min(lo for lo, _ in self.ranges) if self.ranges else 0


@dataclass(frozen=True, slots=True)
class LineRow:
    """One line-table row: instructions at [addr, next row addr) map to
    file:line."""

    addr: int
    file: str
    line: int


@dataclass
class CompilationUnit:
    """One compilation unit: subprograms plus its slice of the line table.

    ``n_type_dies`` counts abstract type DIEs (structs, templates, ...)
    carried by the CU; they have no structure we analyze but dominate
    ``.debug`` size for template-heavy binaries like TensorFlow and are
    charged during the parallel DWARF parse (Figure 2, phase 2).
    """

    name: str
    functions: list[FunctionDIE] = field(default_factory=list)
    line_rows: list[LineRow] = field(default_factory=list)
    n_type_dies: int = 0

    def die_count(self) -> int:
        return 1 + self.n_type_dies + sum(f.die_count() for f in self.functions)


@dataclass
class DebugInfo:
    """The full ``.debug`` payload: a forest of compilation units."""

    cus: list[CompilationUnit] = field(default_factory=list)

    def die_count(self) -> int:
        return sum(cu.die_count() for cu in self.cus)

    def line_count(self) -> int:
        return sum(len(cu.line_rows) for cu in self.cus)

    def all_functions(self) -> list[FunctionDIE]:
        return [f for cu in self.cus for f in cu.functions]

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter().record(U32.pack(len(self.cus)))
        for cu in self.cus:
            w.string(cu.name).record(
                _CU.pack(cu.n_type_dies, len(cu.functions)))
            for f in cu.functions:
                _write_function(w, f)
            w.record(U32.pack(len(cu.line_rows)))
            for row in cu.line_rows:
                w.record(_ADDR.pack(row.addr)).string(row.file).record(
                    U32.pack(row.line))
            # Type DIE payload: opaque filler so .debug size scales with
            # DIE count as it does in real template-heavy binaries.
            w.blob(b"\x00" * (cu.n_type_dies * 24))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes | memoryview) -> "DebugInfo":
        r = ByteReader(raw)
        cus = []
        for _ in range(r.record(U32)[0]):
            name, n_type_dies, n_functions = r.named(_CU, ".debug CU name")
            cu = CompilationUnit(name, n_type_dies=n_type_dies)
            cu.functions = [_read_function(r) for _ in range(n_functions)]
            cu.line_rows = [LineRow(r.record(_ADDR)[0],
                                    *r.named(U32, ".debug line file"))
                            for _ in range(r.record(U32)[0])]
            r.blob()  # skip opaque type-DIE payload
            cus.append(cu)
        r.end(".debug")
        return cls(cus=cus)


def _write_inline(w: ByteWriter, inl: InlinedCall) -> None:
    w.string(inl.callee).string(inl.call_file).record(
        U32.pack(inl.call_line))
    w.array(_RANGE, inl.ranges).record(U32.pack(len(inl.children)))
    for c in inl.children:
        _write_inline(w, c)


def _read_inline(r: ByteReader) -> InlinedCall:
    callee = r.string(".debug inline callee")
    call_file, call_line = r.named(U32, ".debug call file")
    return InlinedCall(callee, call_file, call_line, r.array(_RANGE),
                       [_read_inline(r) for _ in range(r.record(U32)[0])])


def _write_function(w: ByteWriter, f: FunctionDIE) -> None:
    w.string(f.name).array(_RANGE, f.ranges)
    w.string(f.decl_file).record(_DECL.pack(f.decl_line, len(f.inlines)))
    for inl in f.inlines:
        _write_inline(w, inl)


def _read_function(r: ByteReader) -> FunctionDIE:
    name, ranges = r.string(".debug function name"), r.array(_RANGE)
    decl_file, decl_line, n_inlines = r.named(_DECL, ".debug decl file")
    return FunctionDIE(name, ranges, decl_file, decl_line,
                       [_read_inline(r) for _ in range(n_inlines)])
