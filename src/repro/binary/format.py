"""Binary image container: named sections with addresses and flags.

The on-disk format is a simple framed container (magic ``SBIN``, version,
section table), playing the role ELF plays for the paper: ``.text`` holds
machine code, ``.rodata`` holds jump tables, ``.symtab``/``.dynsym`` hold
serialized symbols, ``.debug`` holds the DWARF-like debug information and
``.eh_frame`` holds unwind-derived function entry addresses.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.binary.bytesio import U32, ByteReader, ByteWriter
from repro.errors import ImageFormatError, SectionNotFoundError

_MAGIC = b"SBIN"
_VERSION = 1
_HEADER = struct.Struct("<H")  # after the magic: version, then the name
_SECTION = struct.Struct("<QI")  # after a section's name: addr, flags

# Well-known section names.
TEXT = ".text"
RODATA = ".rodata"
SYMTAB = ".symtab"
DYNSYM = ".dynsym"
DEBUG = ".debug"
EH_FRAME = ".eh_frame"


class SectionFlags(enum.IntFlag):
    """Section attribute flags."""

    NONE = 0
    EXEC = 1       #: contains executable code
    DATA = 2       #: contains initialized data
    DEBUG_INFO = 4 #: debug metadata, not loaded at runtime


@dataclass
class Section:
    """One named contiguous region of the binary.

    ``data`` is any bytes-like buffer.  Images deserialized from a
    :class:`memoryview` (the procs backend's shared-memory transport)
    carry sections that *alias* the source buffer — the buffer's owner
    must outlive the section.
    """

    name: str
    addr: int
    data: bytes | memoryview
    flags: SectionFlags = SectionFlags.NONE

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.addr + len(self.data)

    def contains(self, address: int) -> bool:
        return self.addr <= address < self.end


@dataclass
class BinaryImage:
    """A loadable binary: an ordered collection of sections.

    ``name`` identifies the binary in corpora and reports.
    """

    name: str = "a.out"
    sections: dict[str, Section] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    def add_section(self, section: Section) -> None:
        if section.name in self.sections:
            raise ImageFormatError(f"duplicate section {section.name}")
        self.sections[section.name] = section

    # -- access ---------------------------------------------------------------

    def section(self, name: str) -> Section:
        try:
            return self.sections[name]
        except KeyError:
            raise SectionNotFoundError(name) from None

    def has_section(self, name: str) -> bool:
        return name in self.sections

    @property
    def text(self) -> Section:
        return self.section(TEXT)

    @property
    def rodata(self) -> Section:
        return self.section(RODATA)

    def section_containing(self, address: int) -> Section | None:
        for s in self.sections.values():
            if s.contains(address):
                return s
        return None

    def read_word(self, address: int) -> int:
        """Read a little-endian u64 at a virtual address (jump tables)."""
        s = self.section_containing(address)
        if s is None or address + 8 > s.end:
            raise ImageFormatError(f"unmapped word read at {address:#x}")
        off = address - s.addr
        return int.from_bytes(s.data[off:off + 8], "little")

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Reject malformed section layouts (:class:`ImageFormatError`).

        Loadable sections (``EXEC``/``DATA``) must be non-empty and
        mutually disjoint: a zero-length ``.text`` has no bytes to
        decode but would still pass ``has_section`` gates, and
        overlapping loadable sections make ``section_containing`` /
        ``read_word`` answer from whichever section happens to come
        first — silent misparses, not errors.  Metadata sections
        (``DEBUG_INFO``, unflagged) are exempt: they are keyed by name,
        never by address, and conventionally all live at address 0.
        """
        loadable = [s for s in self.sections.values()
                    if s.flags & (SectionFlags.EXEC | SectionFlags.DATA)]
        for s in loadable:
            if s.size == 0:
                raise ImageFormatError(
                    f"zero-length loadable section {s.name}")
        prev: Section | None = None
        for s in sorted(loadable, key=lambda s: s.addr):
            if prev is not None and s.addr < prev.end:
                raise ImageFormatError(
                    f"overlapping sections: {prev.name} "
                    f"[{prev.addr:#x}, {prev.end:#x}) and {s.name} "
                    f"[{s.addr:#x}, {s.end:#x})")
            prev = s

    # -- statistics (Table 1) ----------------------------------------------------

    @property
    def total_size(self) -> int:
        """Total bytes across all sections."""
        return sum(s.size for s in self.sections.values())

    @property
    def text_size(self) -> int:
        return self.sections[TEXT].size if TEXT in self.sections else 0

    @property
    def debug_size(self) -> int:
        return self.sections[DEBUG].size if DEBUG in self.sections else 0

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter().record(_MAGIC).record(_HEADER.pack(_VERSION))
        w.string(self.name).record(U32.pack(len(self.sections)))
        for s in self.sections.values():
            w.string(s.name).record(_SECTION.pack(s.addr, s.flags))
            w.blob(s.data)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes | bytearray | memoryview
                   ) -> "BinaryImage":
        """Deserialize an image in place from any bytes-like buffer.
        Handed a :class:`memoryview`, section payloads are zero-copy
        slices of ``raw`` (see :class:`Section`)."""
        if bytes(raw[:4]) != _MAGIC:
            raise ImageFormatError("bad magic: not an SBIN image")
        r = ByteReader(raw, len(_MAGIC))
        (version,) = r.record(_HEADER)
        if version != _VERSION:
            raise ImageFormatError(f"unsupported SBIN version {version}")
        img = cls(name=r.string("image name"))
        for _ in range(r.record(U32)[0]):
            name, addr, flags = r.named(_SECTION, "section name")
            img.add_section(Section(name, addr, r.blob(),
                                    SectionFlags(flags)))
        r.end("the section table")
        return img

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "BinaryImage":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())
