"""Field-by-field reference readers of the SBIN format.

One bounds check and one ``struct.unpack`` per field, the way the image
format was read before the record layer: the oracles that
:mod:`repro.binary.bytesio`'s record reader, and every decoder built on
it, must agree with, value for value and error message for error
message.  This module needs nothing but the standard library, so the
suites that import it run without hypothesis too.
"""

import struct

from repro.errors import ImageFormatError


class FieldReader:
    """Sequential reader: every field read on its own."""

    def __init__(self, buf):
        self._buf = buf
        self.pos = 0

    def _take(self, n):
        if self.pos + n > len(self._buf):
            raise ImageFormatError(
                f"truncated stream: need {n} bytes at offset {self.pos}, "
                f"have {len(self._buf) - self.pos}")
        out = self._buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self._take(1))[0]

    def u16(self):
        return struct.unpack("<H", self._take(2))[0]

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def string(self):
        return bytes(self._take(self.u32())).decode("utf-8")

    def blob(self):
        return self._take(self.u64())

    @property
    def exhausted(self):
        return self.pos >= len(self._buf)


def read_section_table(raw):
    """``(image name, [(name, addr, flags, payload), ...])``; the magic
    is read as a ``u32``, so offsets count from the image's start."""
    r = FieldReader(raw)
    r.u32()
    r.u16()
    name = r.string()
    sections = [(r.string(), r.u64(), r.u32(), bytes(r.blob()))
                for _ in range(r.u32())]
    return name, sections


def read_debug(raw):
    """A ``.debug`` payload as nested tuples, the offset where each CU
    ends, and the span ``(start, end)`` of the first CU header, function,
    outermost inline and line row: ``(cus, ends, spans)``."""
    r = FieldReader(raw)
    spans = {}

    def ranges():
        return [(r.u64(), r.u64()) for _ in range(r.u32())]

    def inline():
        start = r.pos
        callee, call_file, call_line = r.string(), r.string(), r.u32()
        out = (callee, call_file, call_line, ranges(),
               [inline() for _ in range(r.u32())])
        if spans.get("inline", (start + 1,))[0] > start:  # outermost
            spans["inline"] = (start, r.pos)
        return out

    def function():
        start = r.pos
        name, rs, decl_file, decl_line = r.string(), ranges(), \
            r.string(), r.u32()
        out = (name, rs, decl_file, decl_line,
               [inline() for _ in range(r.u32())])
        spans.setdefault("function", (start, r.pos))
        return out

    def row():
        start = r.pos
        out = (r.u64(), r.string(), r.u32())
        spans.setdefault("row", (start, r.pos))
        return out

    cus, ends = [], []
    for _ in range(r.u32()):
        start = r.pos
        name, n_type_dies, n_functions = r.string(), r.u32(), r.u32()
        spans.setdefault("cu", (start, r.pos))
        functions = [function() for _ in range(n_functions)]
        rows = [row() for _ in range(r.u32())]
        r.blob()
        cus.append((name, n_type_dies, functions, rows))
        ends.append(r.pos)
    return cus, ends, spans
