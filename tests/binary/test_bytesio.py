"""Tests for the SBIN record layer: it reads what the field-by-field
reference reader reads, and fails where it fails, with its message."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.binary.bytesio import U32, ByteReader, ByteWriter
from repro.errors import ImageFormatError
from tests.binary.reference import FieldReader


_SCALARS = {"u8": struct.Struct("<B"), "u16": struct.Struct("<H"),
            "u32": U32, "u64": struct.Struct("<Q")}
_TAIL = struct.Struct("<QQBB")   # a multi-field record
_PAIR = struct.Struct("<QQ")     # an array's record


def _write(fields) -> bytes:
    w = ByteWriter()
    for kind, value in fields:
        if kind in _SCALARS:
            w.record(_SCALARS[kind].pack(value))
        elif kind == "tail":
            w.record(_TAIL.pack(*value))
        elif kind == "pairs":
            w.array(_PAIR, value)
        else:
            getattr(w, kind)(value)
    return w.getvalue()


def _read(r: ByteReader, fields) -> list:
    """Read ``fields`` back with the record reader."""
    out = []
    for kind, _ in fields:
        if kind in _SCALARS:
            out.append(r.record(_SCALARS[kind])[0])
        elif kind == "tail":
            out.append(r.record(_TAIL))
        elif kind == "pairs":
            out.append(r.array(_PAIR))
        else:
            out.append(getattr(r, kind)())
    return out


def _read_reference(ref: FieldReader, fields) -> list:
    """Read ``fields`` back one field at a time."""
    out = []
    for kind, _ in fields:
        if kind == "tail":
            out.append((ref.u64(), ref.u64(), ref.u8(), ref.u8()))
        elif kind == "pairs":
            out.append([(ref.u64(), ref.u64()) for _ in range(ref.u32())])
        else:
            out.append(getattr(ref, kind)())
    return out


_U64S = st.integers(0, 2**64 - 1)
_FIELDS = st.lists(st.one_of(
    st.tuples(st.just("u8"), st.integers(0, 255)),
    st.tuples(st.sampled_from(["u16", "u32", "u64"]), st.integers(0, 65535)),
    st.tuples(st.just("tail"), st.tuples(_U64S, _U64S, st.integers(0, 255),
                                          st.integers(0, 255))),
    st.tuples(st.just("pairs"),
              st.lists(st.tuples(_U64S, _U64S), max_size=4)),
    st.tuples(st.just("string"), st.text(max_size=20)),
    st.tuples(st.just("blob"), st.binary(max_size=20))), max_size=20)


class TestRoundTrip:
    def test_scalar_fields(self):
        rec = struct.Struct("<BHIQ")
        raw = ByteWriter().record(rec.pack(200, 60000, 4_000_000_000,
                                           1 << 60)).getvalue()
        r = ByteReader(raw)
        assert r.record(rec) == (200, 60000, 4_000_000_000, 1 << 60)
        r.end("the fields")
        ref = FieldReader(raw)
        assert (ref.u8(), ref.u16(), ref.u32(), ref.u64()) == \
            (200, 60000, 4_000_000_000, 1 << 60)

    def test_string_and_blob(self):
        w = ByteWriter()
        w.string("héllo wörld").blob(b"\x00\x01\x02")
        r = ByteReader(w.getvalue())
        assert r.string() == "héllo wörld"
        assert r.blob() == b"\x00\x01\x02"

    def test_empty_string_and_blob(self):
        w = ByteWriter()
        w.string("").blob(b"")
        r = ByteReader(w.getvalue())
        assert r.string() == ""
        assert r.blob() == b""

    def test_named_record_and_array(self):
        tail, pair = struct.Struct("<QB"), struct.Struct("<QQ")
        raw = ByteWriter().string("sym").record(tail.pack(7, 1)).array(
            pair, [(1, 2), (3, 4)]).getvalue()
        r = ByteReader(raw)
        assert r.named(tail) == ("sym", 7, 1)
        assert r.array(pair) == [(1, 2), (3, 4)]
        r.end("the fields")
        ref = FieldReader(raw)
        assert (ref.string(), ref.u64(), ref.u8()) == ("sym", 7, 1)
        assert [(ref.u64(), ref.u64()) for _ in range(ref.u32())] == \
            [(1, 2), (3, 4)]

    def test_end_rejects_trailing_bytes(self):
        raw = ByteWriter().string("x").getvalue()
        r = ByteReader(raw + b"!")
        assert r.string() == "x"
        with pytest.raises(ImageFormatError,
                           match="^trailing bytes after .things$"):
            r.end(".things")
        r = ByteReader(raw)
        r.string()
        r.end(".things")

    def test_reads_from_an_offset_in_place(self):
        raw = b"HEAD" + ByteWriter().string("x").getvalue()
        r = ByteReader(memoryview(raw), 4)
        assert r.string() == "x"
        r.end("the fields")

    @given(_FIELDS)
    def test_arbitrary_sequences(self, fields):
        raw = _write(fields)
        r, ref = ByteReader(raw), FieldReader(raw)
        assert _read(r, fields) == [v for _, v in fields]
        assert _read_reference(ref, fields) == [v for _, v in fields]
        r.end("the fields")
        assert ref.exhausted


class TestErrors:
    def test_truncated_read_raises(self):
        r = ByteReader(b"\x01")
        with pytest.raises(ImageFormatError):
            r.record(U32)

    def test_truncated_string_raises(self):
        w = ByteWriter()
        w.string("hello")
        r = ByteReader(w.getvalue()[:-2])
        with pytest.raises(ImageFormatError):
            r.string()

    def test_len_tracks_writer(self):
        w = ByteWriter()
        assert len(w) == 0
        w.record(U32.pack(1))
        assert len(w) == 4

    def test_string_that_is_not_utf8_names_its_offset(self):
        raw = bytearray(ByteWriter().record(U32.pack(0)).string("abc")
                        .getvalue())
        raw[8] = 0xFF
        with pytest.raises(ImageFormatError,
                           match="name at offset 8 is not UTF-8"):
            ByteReader(bytes(raw), 4).string("name")

    def test_huge_count_is_a_truncation(self):
        raw = ByteWriter().record(U32.pack(1 << 31)).getvalue() + bytes(44)
        with pytest.raises(ImageFormatError,
                           match="need 8 bytes at offset 44, have 4"):
            ByteReader(raw).array(_PAIR)

    @given(_FIELDS, st.data())
    def test_every_cut_fails_like_the_field_reader(self, fields, data):
        raw = _write(fields)
        if not raw:
            return
        cut = raw[:data.draw(st.integers(0, len(raw) - 1))]
        with pytest.raises(ImageFormatError) as want:
            _read_reference(FieldReader(cut), fields)
        with pytest.raises(ImageFormatError) as got:
            _read(ByteReader(cut), fields)
        assert str(got.value) == str(want.value)
