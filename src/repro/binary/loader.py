"""Loading and saving binary images with parsed views.

``load_image`` returns a :class:`LoadedBinary` bundling the raw image with
lazily parsed symbol table, debug info and eh_frame function starts — the
view CFG construction and the applications consume.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from repro.binary import format as fmt
from repro.binary.bytesio import ByteReader, ByteWriter
from repro.binary.dwarf import DebugInfo
from repro.binary.format import BinaryImage
from repro.binary.symtab import SymbolTable
from repro.isa.decoder import Decoder

_START = struct.Struct("<Q")  # one ``.eh_frame`` function start


@dataclass(frozen=True)
class LoadedBinary:
    """A binary image plus parsed views of its metadata sections."""

    image: BinaryImage

    @property
    def name(self) -> str:
        return self.image.name

    @cached_property
    def decoder(self) -> Decoder:
        text = self.image.text
        return Decoder(text.data, text.addr)

    @cached_property
    def symtab(self) -> SymbolTable:
        if not self.image.has_section(fmt.SYMTAB):
            return SymbolTable()
        return SymbolTable.from_bytes(self.image.section(fmt.SYMTAB).data)

    @cached_property
    def dynsym(self) -> SymbolTable:
        if not self.image.has_section(fmt.DYNSYM):
            return SymbolTable()
        return SymbolTable.from_bytes(self.image.section(fmt.DYNSYM).data,
                                      fmt.DYNSYM)

    @cached_property
    def debug_info(self) -> DebugInfo:
        if not self.image.has_section(fmt.DEBUG):
            return DebugInfo()
        return DebugInfo.from_bytes(self.image.section(fmt.DEBUG).data)

    @cached_property
    def eh_frame_starts(self) -> list[int]:
        """Function entry addresses recorded in unwind information."""
        if not self.image.has_section(fmt.EH_FRAME):
            return []
        r = ByteReader(self.image.section(fmt.EH_FRAME).data)
        rows = r.array(_START)
        r.end(fmt.EH_FRAME)
        return [a for (a,) in rows]

    def entry_addresses(self) -> list[int]:
        """Candidate function entries from symtab + dynsym + eh_frame.

        This is the paper's ``F0``: "candidate function entry blocks
        discovered via the binary's symbol table and unwind information".
        """
        addrs = {s.offset for s in self.symtab.functions()}
        addrs.update(s.offset for s in self.dynsym.functions())
        addrs.update(self.eh_frame_starts)
        return sorted(addrs)

    def stripped(self) -> "LoadedBinary":
        """A copy without ``.symtab`` (stripped-binary scenario, Section 9)."""
        img = BinaryImage(name=self.image.name + " (stripped)")
        for name, sec in self.image.sections.items():
            if name != fmt.SYMTAB:
                img.add_section(sec)
        return LoadedBinary(img)


def encode_eh_frame(starts: list[int]) -> bytes:
    """Serialize function start addresses for the ``.eh_frame`` section."""
    return ByteWriter().array(_START, [(a,) for a in sorted(starts)]
                              ).getvalue()


def load_image(source: str | bytes | bytearray | memoryview | BinaryImage
               ) -> LoadedBinary:
    """Load a binary from a path, a bytes-like buffer, or an image.

    Malformed images — truncated section payloads, trailing garbage,
    zero-length or overlapping loadable sections — raise
    :class:`~repro.errors.ImageFormatError` here rather than misparsing
    later (the procs workers rebuild binaries from shipped buffers, so
    corruption must surface at the load boundary).  A
    :class:`memoryview` source — the shared-memory transport's attach
    path — deserializes zero-copy: sections alias the buffer, which
    must stay mapped for the binary's lifetime.
    """
    if isinstance(source, BinaryImage):
        image = source
    elif isinstance(source, (bytes, bytearray, memoryview)):
        image = BinaryImage.from_bytes(source)
    else:
        image = BinaryImage.load(source)
    image.validate()
    return LoadedBinary(image)


def save_image(image: BinaryImage, path: str) -> None:
    """Write a binary image to disk."""
    image.save(path)
