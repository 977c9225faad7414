"""Tests for the binary image container."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.binary import (
    BinaryImage,
    DebugInfo,
    Section,
    SectionFlags,
    SymbolTable,
)
from repro.binary import format as fmt
from repro.errors import ImageFormatError, SectionNotFoundError
from repro.synth import hostile_binary, tensorflow_like, tiny_binary
from tests.binary.reference import FieldReader, read_debug, read_section_table


def make_image():
    img = BinaryImage(name="test.bin")
    img.add_section(Section(fmt.TEXT, 0x1000, b"\x01" * 64,
                            SectionFlags.EXEC))
    img.add_section(Section(fmt.RODATA, 0x5000,
                            (0x1234).to_bytes(8, "little") * 4,
                            SectionFlags.DATA))
    return img


class TestSections:
    def test_section_lookup(self):
        img = make_image()
        assert img.section(fmt.TEXT).addr == 0x1000
        assert img.text.size == 64
        assert img.has_section(fmt.RODATA)
        assert not img.has_section(fmt.DEBUG)

    def test_missing_section_raises(self):
        img = make_image()
        with pytest.raises(SectionNotFoundError):
            img.section(".nope")

    def test_duplicate_section_rejected(self):
        img = make_image()
        with pytest.raises(ImageFormatError):
            img.add_section(Section(fmt.TEXT, 0x9000, b""))

    def test_section_containing(self):
        img = make_image()
        assert img.section_containing(0x1000).name == fmt.TEXT
        assert img.section_containing(0x103F).name == fmt.TEXT
        assert img.section_containing(0x1040) is None
        assert img.section_containing(0x5008).name == fmt.RODATA

    def test_section_bounds(self):
        s = Section(".x", 0x100, b"abcd")
        assert s.end == 0x104
        assert s.contains(0x100) and s.contains(0x103)
        assert not s.contains(0x104) and not s.contains(0xFF)


class TestWordReads:
    def test_read_word(self):
        img = make_image()
        assert img.read_word(0x5000) == 0x1234
        assert img.read_word(0x5008) == 0x1234

    def test_read_word_unmapped(self):
        img = make_image()
        with pytest.raises(ImageFormatError):
            img.read_word(0x9000)

    def test_read_word_straddling_end(self):
        img = make_image()
        with pytest.raises(ImageFormatError):
            img.read_word(0x5000 + 32 - 4)


class TestStats:
    def test_sizes(self):
        img = make_image()
        assert img.text_size == 64
        assert img.debug_size == 0
        assert img.total_size == 64 + 32


class TestSerialization:
    def test_roundtrip(self):
        img = make_image()
        back = BinaryImage.from_bytes(img.to_bytes())
        assert back.name == img.name
        assert set(back.sections) == set(img.sections)
        for name in img.sections:
            a, b = img.section(name), back.section(name)
            assert (a.addr, a.data, a.flags) == (b.addr, b.data, b.flags)

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError):
            BinaryImage.from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated(self):
        raw = make_image().to_bytes()
        with pytest.raises(ImageFormatError):
            BinaryImage.from_bytes(raw[: len(raw) // 2])

    def test_file_roundtrip(self, tmp_path):
        img = make_image()
        p = tmp_path / "x.sbin"
        img.save(str(p))
        back = BinaryImage.load(str(p))
        assert back.name == img.name
        assert back.text.data == img.text.data

    @given(st.binary(max_size=128), st.integers(0, 2**63))
    def test_arbitrary_section_roundtrip(self, data, addr):
        img = BinaryImage(name="h")
        img.add_section(Section(".blob", addr, data))
        back = BinaryImage.from_bytes(img.to_bytes())
        assert back.section(".blob").data == data
        assert back.section(".blob").addr == addr


#: sha256 of ``image.to_bytes()``, recorded from the field-by-field
#: writers the record layer replaced: the format must not move.
_PINNED = {
    "tiny":
        "083050e133ff8f325837864c9cbf179b53c275f83916bc15fa9549fe9b4919fa",
    "tf-0.3":
        "6abe98f1785855087a8e6210067e90e3ac5dfb7144cec1b306977b5572d7735a",
    "hostile-all":
        "5ed123fe2c1158cb9fd3c5bb5e11f81bb5d8458cf73d1267034388fab664ea4b",
    "stripped":
        "2eba4df0218eae3deec34bd37986f09331891a8d470d41768130d167a9af988c",
}


def _pinned_image(name):
    if name == "tiny":
        return tiny_binary().binary.image
    if name == "tf-0.3":
        return tensorflow_like(seed=104, scale=0.3).binary.image
    return hostile_binary(name).binary.image


@pytest.fixture(scope="module")
def tf_image():
    return tensorflow_like(seed=104, scale=0.3).binary.image


def _debug_tuples(info):
    """``info`` in :func:`read_debug`'s nested-tuple form."""
    def inline(i):
        return (i.callee, i.call_file, i.call_line, i.ranges,
                [inline(c) for c in i.children])
    return [(cu.name, cu.n_type_dies,
             [(f.name, f.ranges, f.decl_file, f.decl_line,
               [inline(i) for i in f.inlines]) for f in cu.functions],
             [(r.addr, r.file, r.line) for r in cu.line_rows])
            for cu in info.cus]


class TestFormatPins:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_image_bytes_are_pinned(self, name):
        raw = _pinned_image(name).to_bytes()
        assert hashlib.sha256(raw).hexdigest() == _PINNED[name]

    @pytest.mark.parametrize("section, codec", [(fmt.DEBUG, DebugInfo),
                                                (fmt.SYMTAB, SymbolTable)])
    def test_decode_then_encode_gives_the_same_bytes(self, tf_image,
                                                     section, codec):
        raw = bytes(tf_image.section(section).data)
        assert codec.from_bytes(raw).to_bytes() == raw

    def test_decoders_read_what_the_reference_reads(self, tf_image):
        raw = tf_image.to_bytes()
        img = BinaryImage.from_bytes(raw)
        assert read_section_table(raw) == (img.name, [
            (s.name, s.addr, int(s.flags), bytes(s.data))
            for s in img.sections.values()])
        debug = bytes(img.section(fmt.DEBUG).data)
        assert _debug_tuples(DebugInfo.from_bytes(debug)) == \
            read_debug(debug)[0]


def _same_truncation(reference, decode, cut):
    with pytest.raises(ImageFormatError) as want:
        reference(cut)
    with pytest.raises(ImageFormatError) as got:
        decode(cut)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("truncated stream")


class TestTruncation:
    """Every cut is an :class:`ImageFormatError` naming the field the
    field-by-field reference reader stops at: never ``struct.error``,
    ``IndexError`` or ``UnicodeDecodeError``."""

    def test_cut_at_every_byte_of_the_header_and_section_table(
            self, tf_image):
        raw = tf_image.to_bytes()
        r = FieldReader(raw)
        r.u32(), r.u16(), r.string(), r.u32()
        cuts = list(range(4, r.pos))
        for _ in tf_image.sections:
            start = r.pos
            r.string(), r.u64(), r.u32()
            n = r.u64()
            cuts += range(start, r.pos + 1)
            cuts.append(r.pos + n // 2)  # inside the payload
            r.pos += n
        assert r.exhausted
        for end in cuts:
            _same_truncation(read_section_table, BinaryImage.from_bytes,
                             raw[:end])
        for end in range(4):
            with pytest.raises(ImageFormatError, match="bad magic"):
                BinaryImage.from_bytes(raw[:end])

    def test_cut_at_every_byte_of_the_first_debug_records(self, tf_image):
        raw = bytes(tf_image.section(fmt.DEBUG).data)
        _, _, spans = read_debug(raw)
        assert set(spans) == {"cu", "function", "inline", "row"}
        for start, end in spans.values():
            for cut in range(start, end + 1):
                _same_truncation(read_debug, DebugInfo.from_bytes,
                                 raw[:cut])

    def test_cut_at_every_cu_boundary(self, tf_image):
        raw = bytes(tf_image.section(fmt.DEBUG).data)
        _, ends, _ = read_debug(raw)
        assert ends[-1] == len(raw) and len(ends) > 1
        for end in [4, *ends[:-1]]:
            with pytest.raises(ImageFormatError,
                               match=f"^truncated stream: need 4 bytes "
                                     f"at offset {end}, have 0$"):
                DebugInfo.from_bytes(raw[:end])
