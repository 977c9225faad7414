"""Tests for image loading and metadata views."""

import pytest

from repro.binary import BinaryImage, Section, SectionFlags, Symbol, SymbolTable
from repro.binary import format as fmt
from repro.binary.dwarf import CompilationUnit, DebugInfo, FunctionDIE
from repro.binary.loader import encode_eh_frame, load_image, save_image
from repro.errors import ImageFormatError
from repro.isa import Instruction, Opcode, encode
from repro.isa.encoding import instruction_length


def build_test_binary():
    code = b""
    addr = 0x1000
    for op, operands in [(Opcode.NOP, ()), (Opcode.RET, ())]:
        i = Instruction(addr, op, operands, instruction_length(op))
        code += encode(i)
        addr = i.end

    img = BinaryImage(name="mini.bin")
    img.add_section(Section(fmt.TEXT, 0x1000, code, SectionFlags.EXEC))
    symtab = SymbolTable([Symbol("main", 0x1000, len(code))])
    img.add_section(Section(fmt.SYMTAB, 0, symtab.to_bytes(),
                            SectionFlags.DEBUG_INFO))
    dynsym = SymbolTable([Symbol("exported", 0x1001, 1)])
    img.add_section(Section(fmt.DYNSYM, 0, dynsym.to_bytes(),
                            SectionFlags.DEBUG_INFO))
    di = DebugInfo(cus=[CompilationUnit(
        "mini.c", functions=[FunctionDIE("main", ranges=[(0x1000, 0x1002)])])])
    img.add_section(Section(fmt.DEBUG, 0, di.to_bytes(),
                            SectionFlags.DEBUG_INFO))
    img.add_section(Section(fmt.EH_FRAME, 0, encode_eh_frame([0x1000]),
                            SectionFlags.DEBUG_INFO))
    return img


class TestLoadedBinary:
    def test_views(self):
        lb = load_image(build_test_binary())
        assert lb.name == "mini.bin"
        assert lb.decoder.decode_at(0x1000).opcode is Opcode.NOP
        assert lb.symtab.by_offset(0x1000)[0].name == "main"
        assert lb.dynsym.by_offset(0x1001)[0].name == "exported"
        assert lb.debug_info.all_functions()[0].name == "main"
        assert lb.eh_frame_starts == [0x1000]

    def test_entry_addresses_merges_sources(self):
        lb = load_image(build_test_binary())
        assert lb.entry_addresses() == [0x1000, 0x1001]

    def test_load_from_bytes(self):
        raw = build_test_binary().to_bytes()
        lb = load_image(raw)
        assert lb.name == "mini.bin"

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "mini.sbin"
        save_image(build_test_binary(), str(p))
        lb = load_image(str(p))
        assert lb.symtab.by_offset(0x1000)[0].name == "main"

    def test_missing_metadata_sections(self):
        img = BinaryImage(name="bare")
        img.add_section(Section(fmt.TEXT, 0x1000, b"\x01",
                                SectionFlags.EXEC))
        lb = load_image(img)
        assert len(lb.symtab) == 0
        assert lb.debug_info.die_count() == 0
        assert lb.eh_frame_starts == []
        assert lb.entry_addresses() == []

    def test_stripped_keeps_dynsym_and_ehframe(self):
        lb = load_image(build_test_binary()).stripped()
        assert len(lb.symtab) == 0
        assert len(lb.dynsym) == 1
        assert lb.eh_frame_starts == [0x1000]
        # Entries still discoverable without .symtab (Section 9).
        assert 0x1000 in lb.entry_addresses()


class TestMalformedImages:
    """`load_image` must reject broken images, not misparse them.

    The procs workers rebuild binaries from bytes shipped in pool
    payloads, so any corruption in transit has to surface as a loud
    :class:`ImageFormatError` at the load boundary."""

    def test_truncated_section_payload(self):
        raw = build_test_binary().to_bytes()
        with pytest.raises(ImageFormatError, match="truncated stream"):
            load_image(raw[:-10])

    def test_truncated_header(self):
        raw = build_test_binary().to_bytes()
        with pytest.raises(ImageFormatError, match="truncated stream"):
            load_image(raw[:5])

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="bad magic"):
            load_image(b"ELF?" + b"\x00" * 64)

    def test_trailing_garbage(self):
        raw = build_test_binary().to_bytes()
        with pytest.raises(ImageFormatError, match="trailing bytes"):
            load_image(raw + b"\xde\xad")

    @pytest.mark.parametrize("section", [fmt.SYMTAB, fmt.DYNSYM,
                                         fmt.EH_FRAME, fmt.DEBUG])
    def test_trailing_bytes_after_a_metadata_section(self, section):
        img = build_test_binary()
        broken = BinaryImage(name=img.name)
        for s in img.sections.values():
            data = bytes(s.data) + (b"garbage" if s.name == section else b"")
            broken.add_section(Section(s.name, s.addr, data, s.flags))
        lb = load_image(broken.to_bytes())
        with pytest.raises(ImageFormatError,
                           match=f"^trailing bytes after {section}$"):
            {fmt.SYMTAB: lambda: lb.symtab, fmt.DYNSYM: lambda: lb.dynsym,
             fmt.EH_FRAME: lambda: lb.eh_frame_starts,
             fmt.DEBUG: lambda: lb.debug_info}[section]()

    def test_overlapping_loadable_sections(self):
        img = BinaryImage(name="overlap")
        img.add_section(Section(fmt.TEXT, 0x1000, b"\x01" * 0x20,
                                SectionFlags.EXEC))
        img.add_section(Section(fmt.RODATA, 0x1010, b"\x02" * 0x20,
                                SectionFlags.DATA))
        with pytest.raises(ImageFormatError, match="overlapping sections"):
            load_image(img)

    def test_overlap_detected_through_serialization(self):
        img = BinaryImage(name="overlap")
        img.add_section(Section(fmt.TEXT, 0x1000, b"\x01" * 0x20,
                                SectionFlags.EXEC))
        img.add_section(Section(fmt.RODATA, 0x101f, b"\x02" * 8,
                                SectionFlags.DATA))
        with pytest.raises(ImageFormatError, match="overlapping sections"):
            load_image(img.to_bytes())

    def test_zero_length_loadable_section(self):
        img = BinaryImage(name="empty-text")
        img.add_section(Section(fmt.TEXT, 0x1000, b"",
                                SectionFlags.EXEC))
        with pytest.raises(ImageFormatError, match="zero-length"):
            load_image(img)

    def test_adjacent_loadable_sections_are_fine(self):
        img = BinaryImage(name="adjacent")
        img.add_section(Section(fmt.TEXT, 0x1000, b"\x01" * 0x20,
                                SectionFlags.EXEC))
        img.add_section(Section(fmt.RODATA, 0x1020, b"\x02" * 8,
                                SectionFlags.DATA))
        assert load_image(img).name == "adjacent"

    def test_metadata_sections_exempt_from_layout_checks(self):
        # Metadata conventionally lives at address 0 (all "overlapping")
        # and may be empty; it is keyed by name, never by address.
        img = BinaryImage(name="meta")
        img.add_section(Section(fmt.TEXT, 0x1000, b"\x01",
                                SectionFlags.EXEC))
        img.add_section(Section(fmt.DEBUG, 0, b"",
                                SectionFlags.DEBUG_INFO))
        img.add_section(Section(fmt.EH_FRAME, 0, encode_eh_frame([]),
                                SectionFlags.DEBUG_INFO))
        assert load_image(img).eh_frame_starts == []
