"""The SBIN record layer: every section of the image format reads and
writes its records through :class:`ByteReader` and :class:`ByteWriter`.

A record is one :class:`struct.Struct`, defined once next to its section.
A string is a ``u32`` length and UTF-8 bytes; a *named* record is a
string followed by a record (a symbol is its name, then ``<QQBB``).  The
reader makes one bounds check and one ``unpack_from`` per record, and
every failure is an :class:`~repro.errors.ImageFormatError`: a truncated
record names the first field that does not fit, as a field-by-field
reader would, a string that is not UTF-8 names its offset, and bytes
left after a section's last record fail the reader's :meth:`ByteReader.end`.
"""

from __future__ import annotations

import struct
from itertools import starmap

from repro.errors import ImageFormatError

#: Counts and string lengths.
U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")  # blob lengths
_NOTHING = struct.Struct("<")  # the empty tail of a bare string
_unpack_u32 = U32.unpack_from


def _truncated(need: int, pos: int, have: int) -> ImageFormatError:
    return ImageFormatError(
        f"truncated stream: need {need} bytes at offset {pos}, have {have}")


def _cut(rec: struct.Struct, pos: int, end: int) -> ImageFormatError:
    """The :func:`_truncated` error for the first field that ends past
    ``end`` among back-to-back ``rec`` records from ``pos`` on (a record
    format has one code per field)."""
    pos += (end - pos) // rec.size * rec.size  # the whole records that fit
    for code in rec.format[1:]:
        width = struct.calcsize("<" + code)
        if pos + width > end:
            break
        pos += width
    return _truncated(width, pos, end - pos)


class ByteWriter:
    """Append-only writer of SBIN records.  A fixed record comes packed
    by its :class:`struct.Struct`: ``w.record(_SYMBOL.pack(...))``."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def record(self, packed: bytes) -> "ByteWriter":
        self._buf += packed
        return self

    def string(self, s: str) -> "ByteWriter":
        raw = s.encode("utf-8")
        self._buf += U32.pack(len(raw))
        self._buf += raw
        return self

    def array(self, rec: struct.Struct, rows) -> "ByteWriter":
        """A ``u32`` count, then one ``rec`` per row."""
        self._buf += U32.pack(len(rows))
        self._buf += b"".join(starmap(rec.pack, rows))
        return self

    def blob(self, b: bytes | memoryview) -> "ByteWriter":
        self._buf += _U64.pack(len(b))
        self._buf += b
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ByteReader:
    """Reader of SBIN records in any bytes-like buffer, from offset
    ``pos`` on.  Handed a :class:`memoryview`, every :meth:`blob` is a
    zero-copy slice of it: the procs backend reads whole images out of
    shared memory so, without a copy per worker."""

    __slots__ = ("_buf", "pos", "_end")

    def __init__(self, buf: bytes | bytearray | memoryview,
                 pos: int = 0) -> None:
        self._buf = buf
        self.pos = pos
        self._end = len(buf)

    def record(self, rec: struct.Struct) -> tuple:
        pos = self.pos
        if pos + rec.size > self._end:
            raise _cut(rec, pos, self._end)
        self.pos = pos + rec.size
        return rec.unpack_from(self._buf, pos)

    def _named(self, rec: struct.Struct, count: int,
               what: str) -> list[tuple]:
        buf, pos, end, size = self._buf, self.pos, self._end, rec.size
        out, unpack = [], rec.unpack_from
        for _ in range(count):
            if pos + 4 > end:
                raise _truncated(4, pos, end - pos)
            (n,) = _unpack_u32(buf, pos)
            pos += 4
            tail = pos + n
            if tail + size > end:
                raise _truncated(n, pos, end - pos) if tail > end \
                    else _cut(rec, tail, end)
            try:
                s = str(buf[pos:tail], "utf-8")
            except UnicodeDecodeError as e:
                raise ImageFormatError(f"{what} at offset {pos} is not "
                                       f"UTF-8: {e.reason}") from None
            out.append((s,) + unpack(buf, tail))
            pos = tail + size
        self.pos = pos
        return out

    def named(self, rec: struct.Struct, what: str = "string") -> tuple:
        """A string followed by ``rec``: ``(string, *fields)``."""
        return self._named(rec, 1, what)[0]

    def named_array(self, rec: struct.Struct,
                    what: str = "string") -> list[tuple]:
        """A ``u32`` count, then that many named records."""
        return self._named(rec, self.record(U32)[0], what)

    def string(self, what: str = "string") -> str:
        return self._named(_NOTHING, 1, what)[0][0]

    def array(self, rec: struct.Struct) -> list[tuple]:
        """A ``u32`` count, then that many ``rec`` records."""
        (n,) = self.record(U32)
        pos = self.pos
        stop = pos + n * rec.size
        if stop > self._end:
            raise _cut(rec, pos, self._end)
        self.pos = stop
        return list(rec.iter_unpack(self._buf[pos:stop]))

    def blob(self) -> bytes | memoryview:
        (n,) = self.record(_U64)
        pos = self.pos
        if pos + n > self._end:
            raise _truncated(n, pos, self._end - pos)
        self.pos = pos + n
        return self._buf[pos:pos + n]

    def end(self, what: str) -> None:
        """The end check of a section's reader: every byte was read, or
        ``ImageFormatError("trailing bytes after <what>")``."""
        if self.pos != self._end:
            raise ImageFormatError(f"trailing bytes after {what}")
