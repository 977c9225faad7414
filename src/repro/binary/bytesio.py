"""Little-endian byte stream helpers used by all serializers."""

from __future__ import annotations

import struct

from repro.errors import ImageFormatError


def truncated(need: int, pos: int, have: int) -> ImageFormatError:
    """The error for a read of ``need`` bytes at ``pos`` with only
    ``have`` left: every reader of the image format raises this one."""
    return ImageFormatError(
        f"truncated stream: need {need} bytes at offset {pos}, have {have}")


class ByteWriter:
    """Append-only little-endian binary writer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, v: int) -> "ByteWriter":
        self._buf += struct.pack("<B", v)
        return self

    def u16(self, v: int) -> "ByteWriter":
        self._buf += struct.pack("<H", v)
        return self

    def u32(self, v: int) -> "ByteWriter":
        self._buf += struct.pack("<I", v)
        return self

    def u64(self, v: int) -> "ByteWriter":
        self._buf += struct.pack("<Q", v)
        return self

    def string(self, s: str) -> "ByteWriter":
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self._buf += raw
        return self

    def blob(self, b: bytes) -> "ByteWriter":
        self.u64(len(b))
        self._buf += b
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ByteReader:
    """Sequential little-endian binary reader with bounds checking.

    Accepts any bytes-like buffer.  Handed a :class:`memoryview`, every
    ``_take`` (and therefore every ``blob``) is a zero-copy *slice* of
    the underlying buffer — the procs backend reads whole binary images
    out of shared memory this way, so section payloads alias the
    segment instead of being copied per worker.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self, buf: bytes | bytearray | memoryview) -> None:
        self._buf = buf
        self._pos = 0

    def _take(self, n: int) -> bytes | memoryview:
        if self._pos + n > len(self._buf):
            raise truncated(n, self._pos, len(self._buf) - self._pos)
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def string(self) -> str:
        n = self.u32()
        # memoryview has no .decode(); the bytes() wrap copies only the
        # (short) string payload, never a section-sized blob.
        return bytes(self._take(n)).decode("utf-8")

    def blob(self) -> bytes | memoryview:
        n = self.u64()
        return self._take(n)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._buf)
