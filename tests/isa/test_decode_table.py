"""The compiled decode table and the block scan against their oracles.

``ref_decode`` is the field-by-field decoder that was
``repro.isa.encoding.decode`` before the 256-slot row table replaced
it, and ``ref_scan`` the ``decode_at`` loop that was
``ParallelParser._linear_parse``; both are kept verbatim (the scan
minus its ``rt.charge``).  The sweeps iterate opcode *bytes* and text
*offsets*, not the table, so a row that is missing, has the wrong
length or checks the wrong operand fails here by construction.
Hypothesis-free: CI runs this file in the step that uninstalls it.
"""

from __future__ import annotations

import itertools
import struct

import pytest

from repro.errors import InvalidInstructionError
from repro.isa import Cond, Decoder, Instruction, Opcode, Reg
from repro.isa.encoding import _LAYOUT, DECODE_ROWS, decode
from repro.synth import hostile_binary, llnl2_like, tensorflow_like

_SIZE = {"r": 1, "c": 1, "i32": 4, "i16": 2}
_VALID = {int(op) for op in Opcode}


def ref_decode(buf, offset: int, address: int) -> Instruction:
    if offset >= len(buf):
        raise InvalidInstructionError(address, "past end of code")
    opbyte = buf[offset]
    if opbyte not in _VALID:
        raise InvalidInstructionError(address, f"invalid opcode {opbyte:#04x}")
    opcode = Opcode(opbyte)
    fields = _LAYOUT[opcode]
    length = 1 + sum(_SIZE[f] for f in fields)
    if offset + length > len(buf):
        raise InvalidInstructionError(address, "truncated instruction")
    operands: list[int] = []
    pos = offset + 1
    for kind in fields:
        if kind == "r":
            v = buf[pos]
            if v >= len(Reg):
                raise InvalidInstructionError(address, f"bad register {v}")
            operands.append(v)
            pos += 1
        elif kind == "c":
            v = buf[pos]
            if v >= len(Cond):
                raise InvalidInstructionError(address, f"bad condition {v}")
            operands.append(v)
            pos += 1
        elif kind == "i32":
            operands.append(struct.unpack_from("<I", buf, pos)[0])
            pos += 4
        else:  # i16
            operands.append(struct.unpack_from("<H", buf, pos)[0])
            pos += 2
    return Instruction(address=address, opcode=opcode,
                       operands=tuple(operands), length=length)


def _outcome(fn, *args):
    """The instruction, or the error's full message."""
    try:
        return fn(*args)
    except InvalidInstructionError as e:
        return str(e)


#: Encoded bytes each field kind is swept over: both ends of the valid
#: range, the first invalid value and the last byte value.
_FIELD_BYTES = {
    "r": [bytes([v]) for v in (0, len(Reg) - 1, len(Reg), 0xFF)],
    "c": [bytes([v]) for v in (0, len(Cond) - 1, len(Cond), 0xFF)],
    "i32": [b"\x00\x00\x00\x00", b"\x78\x56\x34\x12", b"\xff\xff\xff\xff"],
    "i16": [b"\x00\x00", b"\x34\x12", b"\xff\xff"],
}
#: Longer than any instruction, so an unknown opcode is never "truncated".
_TAIL = bytes(range(0xA0, 0xAC))


def _encodings(opbyte: int):
    """Every swept operand encoding behind ``opbyte``."""
    fields = _LAYOUT[Opcode(opbyte)] if opbyte in _VALID else ()
    for parts in itertools.product(*(_FIELD_BYTES[f] for f in fields)):
        yield bytes([opbyte]) + b"".join(parts)


@pytest.mark.parametrize("opbyte", range(256))
def test_decode_equals_the_field_by_field_reference(opbyte):
    address = 0x40_1000 + opbyte
    for raw in _encodings(opbyte):
        whole = raw + _TAIL
        # Every truncation, the exact fit, and bytes to spare; at the
        # front of the buffer and behind a prefix.
        for cut in (*range(len(raw) + 1), len(whole)):
            for prefix in (b"", b"\x01\x25\xee"):
                buf, off = prefix + whole[:cut], len(prefix)
                for view in (buf, memoryview(buf)):
                    got = _outcome(decode, view, off, address)
                    assert got == _outcome(ref_decode, view, off, address), \
                        (raw.hex(), cut, off)
                    if isinstance(got, Instruction):
                        assert type(got.opcode) is Opcode
                        assert type(got.operands) is tuple


def test_table_has_a_row_per_opcode_and_nothing_else():
    assert len(DECODE_ROWS) == 256
    for byte, row in enumerate(DECODE_ROWS):
        assert (row is not None) == (byte in _VALID), hex(byte)
        if row is not None:
            assert row[0] is Opcode(byte)


def test_offset_past_the_end():
    for offset in (3, 4, 100):
        assert _outcome(decode, b"\x01\x01\x01", offset, 0x10) == \
            _outcome(ref_decode, b"\x01\x01\x01", offset, 0x10)


# -- the block scan --------------------------------------------------------------

def ref_scan(decoder: Decoder, start: int, cache: dict | None):
    if cache is None:
        cache = {}
    insns: list[Instruction] = []
    addr = start
    misses = 0
    while True:
        insn = cache.get(addr)
        if insn is None:
            if not decoder.contains(addr):
                break
            try:
                insn = decoder.decode_at(addr)
            except InvalidInstructionError:
                break
            cache[addr] = insn
            misses += 1
        insns.append(insn)
        if insn.is_control_flow:
            return insns, True, misses
        addr = insn.end
    return insns, False, misses


def ref_linear_scan(decoder: Decoder, address: int, stop_before: int | None):
    insns: list[Instruction] = []
    addr = address
    while decoder.contains(addr):
        if stop_before is not None and addr >= stop_before:
            return insns, False
        try:
            insn = decoder.decode_at(addr)
        except InvalidInstructionError:
            return insns, False
        insns.append(insn)
        if insn.is_control_flow:
            return insns, True
        addr = insn.end
    return insns, False


def ref_iter_from(decoder: Decoder, address: int):
    addr = address
    while decoder.contains(addr):
        try:
            insn = decoder.decode_at(addr)
        except InvalidInstructionError:
            return
        yield insn
        addr = insn.end


_BINARIES = {
    "tf-like": lambda: tensorflow_like(seed=3, scale=0.05),
    "llnl2-like": lambda: llnl2_like(seed=3, scale=0.05),
    "data-in-text": lambda: hostile_binary("data-in-text"),
    "overlap-entry": lambda: hostile_binary("overlap-entry"),
}


@pytest.fixture(scope="module", params=sorted(_BINARIES))
def decoder(request) -> Decoder:
    text = _BINARIES[request.param]().binary.image.text
    return Decoder(text.data, text.addr)


def _starts(decoder: Decoder) -> list[int]:
    """Every byte of ``.text`` (so most starts are mid-instruction and
    run into garbage), plus addresses around and far outside it."""
    outside = [0, decoder.base - 7, decoder.base - 1,
               decoder.limit, decoder.limit + 1, decoder.limit + 4096]
    return outside[:3] + list(range(decoder.base, decoder.limit)) + outside[3:]


def test_scan_equals_the_decode_at_loop_cold_and_warm(decoder):
    got_cache: dict[int, Instruction] = {}
    want_cache: dict[int, Instruction] = {}
    total_misses = 0
    for label in ("cold", "warm"):
        for start in _starts(decoder):
            got = decoder.scan_run(start, got_cache)
            want = ref_scan(decoder, start, want_cache)
            assert got == want, (label, hex(start))
            total_misses += got[2]
            if label == "warm":
                assert got[2] == 0, hex(start)
        # Same entries, entered in the same order (the order is what a
        # procs shard ships home).
        assert list(got_cache.items()) == list(want_cache.items())
    assert total_misses == len(got_cache) > 0


def test_scan_without_a_cache_decodes_everything(decoder):
    for start in _starts(decoder)[::7]:
        insns, ended_cf, misses = decoder.scan_run(start, None)
        assert (insns, ended_cf, misses) == ref_scan(decoder, start, None)
        assert misses == len(insns)


def test_scan_trusts_a_hit_over_the_bytes(decoder):
    """A warm entry is returned as is, like the loop it replaced — the
    coordinator seeds its cache from the shards' columns."""
    start = decoder.base
    real = decoder.decode_at(start)
    planted = Instruction(start, Opcode.RET, (), 1)
    assert planted != real
    assert decoder.scan_run(start, {start: planted}) == ([planted], True, 0)


def test_linear_scan_and_iter_from_ride_the_scan(decoder):
    starts = _starts(decoder)[::5]
    for start in starts:
        assert decoder.linear_scan(start) == \
            ref_linear_scan(decoder, start, None)
        for stop in (start - 1, start, start + 1, start + 6, start + 40):
            assert decoder.linear_scan(start, stop_before=stop) == \
                ref_linear_scan(decoder, start, stop), (hex(start), stop)
    for start in starts[::40]:
        assert list(decoder.iter_from(start)) == \
            list(ref_iter_from(decoder, start)), hex(start)
