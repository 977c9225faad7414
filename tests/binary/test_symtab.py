"""Tests for symbol tables and name demangling."""

import struct

import pytest

import repro.binary.symtab as symtab_mod
from repro.binary import (
    IndexedSymbols,
    Symbol,
    SymbolBinding,
    SymbolKind,
    SymbolTable,
    demangle_pretty,
    demangle_typed,
    load_image,
)
from repro.binary.format import SYMTAB
from repro.errors import ImageFormatError
from repro.runtime import SerialRuntime, ThreadRuntime, VirtualTimeRuntime
from repro.synth import (
    HOSTILE_PRESETS,
    hostile_binary,
    llnl2_like,
    tensorflow_like,
)
from tests.binary.reference import FieldReader


class TestDemangle:
    def test_plain_names_pass_through(self):
        assert demangle_pretty("main") == "main"
        assert demangle_typed("main") == "main"

    def test_mangled_pretty(self):
        assert demangle_pretty("_Z3fooii") == "foo"

    def test_mangled_typed(self):
        assert demangle_typed("_Z3fooii") == "foo(int, int)"
        assert demangle_typed("_Z3barv") == "bar(void)"
        assert demangle_typed("_Z1fdp") == "f(double, void*)"

    def test_malformed_mangled(self):
        assert demangle_pretty("_Z") == "_Z"
        assert demangle_typed("_Z99x") == "_Z99x"

    def test_unknown_arg_code(self):
        assert demangle_typed("_Z1fq") == "f(?)"


class TestSymbolTable:
    def syms(self):
        return [
            Symbol("_Z3fooii", 0x1000, 32),
            Symbol("_Z3fooid", 0x2000, 16),  # overload: same pretty name
            Symbol("bar", 0x3000, 8),
            Symbol("data_obj", 0x9000, 64, SymbolKind.OBJECT),
            Symbol("local_fn", 0x4000, 8, SymbolKind.FUNC,
                   SymbolBinding.LOCAL),
        ]

    def test_lookup_by_offset(self):
        t = SymbolTable(self.syms())
        assert t.by_offset(0x1000)[0].name == "_Z3fooii"
        assert t.by_offset(0xDEAD) == []

    def test_lookup_by_mangled(self):
        t = SymbolTable(self.syms())
        assert len(t.by_mangled_name("_Z3fooii")) == 1

    def test_lookup_by_pretty_finds_overloads(self):
        t = SymbolTable(self.syms())
        assert len(t.by_pretty_name("foo")) == 2

    def test_lookup_by_typed_distinguishes_overloads(self):
        t = SymbolTable(self.syms())
        assert len(t.by_typed_name("foo(int, int)")) == 1
        assert len(t.by_typed_name("foo(int, double)")) == 1

    def test_functions_sorted_and_filtered(self):
        t = SymbolTable(self.syms())
        fns = t.functions()
        assert [s.offset for s in fns] == [0x1000, 0x2000, 0x3000, 0x4000]

    def test_roundtrip(self):
        t = SymbolTable(self.syms())
        back = SymbolTable.from_bytes(t.to_bytes())
        assert len(back) == len(t)
        assert back.by_offset(0x9000)[0].kind is SymbolKind.OBJECT
        assert back.by_offset(0x4000)[0].binding is SymbolBinding.LOCAL

    def test_len_and_iter(self):
        t = SymbolTable(self.syms())
        assert len(t) == 5
        assert {s.name for s in t} == {s.name for s in self.syms()}


def _read_field_by_field(raw) -> list[Symbol]:
    """The reference reader: every field through :class:`FieldReader`."""
    r = FieldReader(raw)
    out = []
    for _ in range(r.u32()):
        name = r.string()
        offset = r.u64()
        size = r.u64()
        out.append(Symbol(name, offset, size, SymbolKind(r.u8()),
                          SymbolBinding(r.u8())))
    return out


def _record_ends(raw) -> list[int]:
    """Offset where each record of a serialized table ends."""
    ends, pos = [], 4
    for _ in range(struct.unpack_from("<I", raw)[0]):
        pos += 4 + struct.unpack_from("<I", raw, pos)[0] + 18
        ends.append(pos)
    return ends


class TestFromBytes:
    """``from_bytes`` reads what the field-by-field reader reads, and
    fails a truncated table with the same error for the same field."""

    @pytest.fixture(scope="class")
    def raw(self):
        return bytes(tensorflow_like(seed=104, scale=0.3).binary.image
                     .section(SYMTAB).data)

    def test_matches_reference_reader(self, raw):
        got = list(SymbolTable.from_bytes(raw))
        assert got == _read_field_by_field(raw)
        assert list(SymbolTable.from_bytes(memoryview(raw))) == got
        assert len(got) > 100

    def _same_error(self, cut):
        with pytest.raises(ImageFormatError) as want:
            _read_field_by_field(cut)
        with pytest.raises(ImageFormatError) as got:
            SymbolTable.from_bytes(cut)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("truncated stream")

    def test_truncated_at_every_record_boundary(self, raw):
        ends = _record_ends(raw)
        assert ends[-1] == len(raw)
        for end in [4, *ends[:-1]]:
            self._same_error(raw[:end])
            self._same_error(raw[:end - 1])  # inside the field before

    @pytest.mark.parametrize("field, value", [(0, 7), (1, 9)])
    def test_out_of_range_kind_or_binding_is_a_format_error(
            self, raw, field, value):
        bad = bytearray(raw)
        bad[_record_ends(raw)[0] - 2 + field] = value
        with pytest.raises(ImageFormatError, match="out of range"):
            SymbolTable.from_bytes(bytes(bad))

    def test_name_that_is_not_utf8_is_a_format_error(self, raw):
        bad = bytearray(raw)
        bad[8] = 0xFF                 # first byte of the first name
        with pytest.raises(ImageFormatError, match="symbol name"):
            SymbolTable.from_bytes(bytes(bad))

    def test_trailing_bytes_are_a_format_error(self, raw):
        with pytest.raises(ImageFormatError,
                           match="^trailing bytes after .symtab$"):
            SymbolTable.from_bytes(raw + b"garbage")
        with pytest.raises(ImageFormatError,
                           match="^trailing bytes after .dynsym$"):
            SymbolTable.from_bytes(raw + b"\x00", ".dynsym")

    def test_truncated_inside_every_field(self, raw):
        # Every cut through the count and the first two records.
        for end in range(_record_ends(raw)[1]):
            self._same_error(raw[:end])


class _ReferenceSymbolTable:
    """The dict-building table the list scans must agree with: one map
    per key, filled in insertion order."""

    def __init__(self, symbols):
        self.maps = {"offset": {}, "mangled": {}, "pretty": {}, "typed": {}}
        for s in symbols:
            for key, value in (("offset", s.offset), ("mangled", s.name),
                               ("pretty", s.pretty_name),
                               ("typed", s.typed_name)):
                self.maps[key].setdefault(value, []).append(s)

    def lookup(self, key, value):
        return list(self.maps[key].get(value, []))


def _oracle_binary(name):
    if name == "tf-0.3":
        return tensorflow_like(seed=104, scale=0.3).binary
    if name.startswith("llnl2-0.3"):
        binary = llnl2_like(scale=0.3).binary
        return binary.stripped() if name.endswith("stripped") else binary
    return hostile_binary(name).binary


class TestLookupOracle:
    """The list scans return what the four maps returned, in order."""

    @pytest.mark.parametrize(
        "name", ["tf-0.3", "llnl2-0.3", "llnl2-0.3-stripped",
                 *HOSTILE_PRESETS])
    def test_lookups_match_reference(self, name):
        binary = _oracle_binary(name)
        misses = {"offset": -1, "mangled": "_Z4nonev", "pretty": "none",
                  "typed": "none(void)"}
        for table in (binary.symtab, binary.dynsym):
            ref = _ReferenceSymbolTable(table)
            lookups = {"offset": table.by_offset,
                       "mangled": table.by_mangled_name,
                       "pretty": table.by_pretty_name,
                       "typed": table.by_typed_name}
            for key, lookup in lookups.items():
                assert lookup(misses[key]) == []
                for value in [*ref.maps[key], misses[key]]:
                    assert lookup(value) == ref.lookup(key, value), \
                        (name, key, value)

    def test_load_demangles_nothing(self, monkeypatch):
        """Reading ``.symtab`` and ``.dynsym`` builds no name keys."""
        raw = tensorflow_like(seed=104, scale=0.3).binary.image.to_bytes()
        calls = []
        real = symtab_mod._split_mangled

        def counting(mangled):
            calls.append(mangled)
            return real(mangled)

        monkeypatch.setattr(symtab_mod, "_split_mangled", counting)
        binary = load_image(raw)
        assert len(binary.symtab) > 0 and len(binary.dynsym) > 0
        assert calls == []


class TestIndexedSymbols:
    def test_insert_and_lookup_serial(self):
        rt = SerialRuntime()

        def body():
            idx = IndexedSymbols(rt)
            s = Symbol("_Z3fooii", 0x1000, 32)
            assert idx.insert(s)
            assert not idx.insert(s)  # duplicate rejected via master map
            assert idx.lookup_offset(0x1000) == [s]
            assert idx.lookup_pretty("foo") == [s]
            assert idx.lookup_mangled("_Z3fooii") == [s]
            assert idx.lookup_typed("foo(int, int)") == [s]
            assert len(idx) == 1

        rt.run(body)

    def test_parallel_build_vtime(self):
        rt = VirtualTimeRuntime(8)
        box = {}
        syms = [Symbol(f"_Z4fn{i:02d}v", 0x1000 + i * 16, 16)
                for i in range(40)]

        def body():
            box["idx"] = IndexedSymbols(rt)
            rt.parallel_for(syms, box["idx"].insert)

        rt.run(body)
        idx = box["idx"]
        assert len(idx) == 40
        for s in syms:
            assert idx.lookup_offset(s.offset) == [s]

    def test_concurrent_duplicate_inserts_threads(self):
        """Each symbol inserted from many threads lands exactly once."""
        rt = ThreadRuntime(8)
        box = {}
        syms = [Symbol(f"fn{i}", 0x1000 + i * 16, 16) for i in range(25)]

        def hammer():
            for s in syms:
                box["idx"].insert(s)

        def body():
            box["idx"] = IndexedSymbols(rt)
            g = rt.task_group()
            for _ in range(8):
                g.spawn(hammer)
            g.wait()

        rt.run(body)
        idx = box["idx"]
        assert len(idx) == 25
        for s in syms:
            assert idx.lookup_offset(s.offset) == [s]

    def test_shared_pretty_name_collects_overloads(self):
        rt = SerialRuntime()

        def body():
            idx = IndexedSymbols(rt)
            a = Symbol("_Z3fooi", 0x1000, 8)
            b = Symbol("_Z3food", 0x2000, 8)
            idx.insert(a)
            idx.insert(b)
            assert sorted(s.offset for s in idx.lookup_pretty("foo")) == \
                [0x1000, 0x2000]

        rt.run(body)
