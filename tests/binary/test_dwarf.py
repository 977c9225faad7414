"""Tests for the DWARF-like debug information model."""

import pytest

from repro.binary import (
    CompilationUnit,
    DebugInfo,
    FunctionDIE,
    InlinedCall,
    LineRow,
)
from repro.errors import ImageFormatError


def sample_debug_info():
    inline_leaf = InlinedCall("min", "util.h", 10, ranges=[(0x1010, 0x1020)])
    inline = InlinedCall("clamp", "util.h", 42,
                         ranges=[(0x1008, 0x1030)], children=[inline_leaf])
    f1 = FunctionDIE("main", ranges=[(0x1000, 0x1080)],
                     decl_file="main.c", decl_line=5, inlines=[inline])
    # Non-contiguous function: hot part + outlined cold part.
    f2 = FunctionDIE("handler", ranges=[(0x2000, 0x2040), (0x8000, 0x8010)],
                     decl_file="main.c", decl_line=90)
    cu1 = CompilationUnit(
        "main.c", functions=[f1, f2],
        line_rows=[LineRow(0x1000, "main.c", 5), LineRow(0x1008, "main.c", 6)],
    )
    # Shared-range case: two functions listing the same range.
    shared = [(0x3000, 0x3010)]
    cu2 = CompilationUnit(
        "err.c",
        functions=[FunctionDIE("err_a", ranges=[(0x2900, 0x2920)] + shared),
                   FunctionDIE("err_b", ranges=[(0x2950, 0x2970)] + shared)],
        line_rows=[LineRow(0x2900, "err.c", 3)],
    )
    return DebugInfo(cus=[cu1, cu2])


class TestModel:
    def test_die_count(self):
        di = sample_debug_info()
        # cu1: 1 + (main:1+2 inlines) + (handler:1) = 5; cu2: 1 + 1 + 1 = 3
        assert di.die_count() == 8

    def test_line_count(self):
        assert sample_debug_info().line_count() == 3

    def test_all_functions(self):
        names = {f.name for f in sample_debug_info().all_functions()}
        assert names == {"main", "handler", "err_a", "err_b"}

    def test_low_pc(self):
        f = FunctionDIE("x", ranges=[(0x500, 0x520), (0x100, 0x110)])
        assert f.low_pc == 0x100
        assert FunctionDIE("empty").low_pc == 0

    def test_inline_die_count(self):
        di = sample_debug_info()
        main = next(f for f in di.all_functions() if f.name == "main")
        assert main.die_count() == 3


class TestSerialization:
    def test_roundtrip(self):
        di = sample_debug_info()
        back = DebugInfo.from_bytes(di.to_bytes())
        assert back.die_count() == di.die_count()
        assert back.line_count() == di.line_count()
        assert [cu.name for cu in back.cus] == ["main.c", "err.c"]
        main = back.cus[0].functions[0]
        assert main.name == "main"
        assert main.ranges == [(0x1000, 0x1080)]
        assert main.inlines[0].callee == "clamp"
        assert main.inlines[0].children[0].callee == "min"
        assert main.inlines[0].children[0].ranges == [(0x1010, 0x1020)]

    def test_noncontiguous_ranges_preserved(self):
        back = DebugInfo.from_bytes(sample_debug_info().to_bytes())
        handler = next(f for f in back.all_functions() if f.name == "handler")
        assert handler.ranges == [(0x2000, 0x2040), (0x8000, 0x8010)]

    def test_shared_ranges_preserved(self):
        back = DebugInfo.from_bytes(sample_debug_info().to_bytes())
        fa = next(f for f in back.all_functions() if f.name == "err_a")
        fb = next(f for f in back.all_functions() if f.name == "err_b")
        assert (0x3000, 0x3010) in fa.ranges
        assert (0x3000, 0x3010) in fb.ranges

    def test_empty_debug_info(self):
        back = DebugInfo.from_bytes(DebugInfo().to_bytes())
        assert back.die_count() == 0
        assert back.cus == []

    def test_trailing_bytes_are_a_format_error(self):
        raw = sample_debug_info().to_bytes()
        with pytest.raises(ImageFormatError,
                           match="^trailing bytes after .debug$"):
            DebugInfo.from_bytes(raw + b"\x00\x00")

    @pytest.mark.parametrize("string, record", [
        ("cu.c", "CU name"), ("fn", "function name"),
        ("decl.c", "decl file"), ("callee", "inline callee"),
        ("call.h", "call file"), ("line.c", "line file")])
    def test_string_that_is_not_utf8_names_its_record(self, string,
                                                      record):
        inline = InlinedCall("callee", "call.h", 2, ranges=[(0x12, 0x14)])
        fn = FunctionDIE("fn", ranges=[(0x10, 0x20)], decl_file="decl.c",
                         decl_line=1, inlines=[inline])
        di = DebugInfo(cus=[CompilationUnit(
            "cu.c", functions=[fn], line_rows=[LineRow(0x10, "line.c", 3)])])
        raw = bytearray(di.to_bytes())
        raw[raw.index(len(string).to_bytes(4, "little")
                      + string.encode()) + 4] = 0xFF
        with pytest.raises(ImageFormatError,
                           match=f"^.debug {record} at offset .* is not "
                                 "UTF-8"):
            DebugInfo.from_bytes(bytes(raw))

    def test_line_rows_roundtrip(self):
        back = DebugInfo.from_bytes(sample_debug_info().to_bytes())
        assert back.cus[0].line_rows[1] == LineRow(0x1008, "main.c", 6)
