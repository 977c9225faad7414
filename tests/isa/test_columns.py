"""The columnar wire form of a decode cache (procs shard hand-off)."""

import pickle

from repro.core.parallel_parser import ParallelParser, ParseOptions
from repro.isa.columns import pack_instructions, unpack_instructions
from repro.isa.encoding import _LAYOUT, decode, encode
from repro.isa.instructions import Instruction, Opcode
from repro.runtime import SerialRuntime
from repro.synth.hostile import hostile_binary


def _shipped(cache):
    """What the coordinator gets: the columns after a pickle round trip."""
    blob = pickle.dumps(pack_instructions(cache), pickle.HIGHEST_PROTOCOL)
    return unpack_instructions(pickle.loads(blob))


def test_every_opcode_round_trips():
    _MAX = {"r": 15, "c": 7, "i32": 0xFFFF_FFFF, "i16": 0xFFFF}
    cache, addr = {}, 0x4000_0000_0000
    for op, fields in _LAYOUT.items():
        for operands in (tuple(0 for _ in fields),
                         tuple(_MAX[f] for f in fields)):
            raw = encode(Instruction(addr, op, operands, 0))
            cache[addr] = decode(raw, 0, addr)
            addr += len(raw)
    assert {i.opcode for i in cache.values()} == set(Opcode)
    assert _shipped(cache) == cache


def test_empty_cache_round_trips():
    assert _shipped({}) == {}


def test_columns_are_flat():
    cache = {0: decode(encode(Instruction(0, Opcode.JCC, (3, 64), 0)), 0, 0)}
    addrs, opcodes, words = pack_instructions(cache)
    assert (addrs.typecode, list(addrs)) == ("Q", [0])
    assert opcodes == bytes([Opcode.JCC])
    assert (words.typecode, list(words)) == ("I", [3, 64])


def test_hostile_overlapping_streams_round_trip():
    """Two decodings of the same bytes at different alignments are
    distinct cache entries; both must survive, unmerged."""
    sb = hostile_binary("hostile-all", seed=3)
    rt = SerialRuntime()
    parser = ParallelParser(sb.binary, rt, ParseOptions())
    rt.run(parser.execute)
    cache = dict(parser.local_decode_cache())
    # A second stream: re-decode from inside every multi-byte instruction
    # (what a jump into the middle of one makes a parser do).
    for insn in list(cache.values()):
        for addr in range(insn.address + 1, insn.end):
            for other in sb.binary.decoder.iter_from(addr):
                if other.address in cache:
                    break
                cache[other.address] = other
    overlapping = [i for i in cache.values()
                   if any(a in cache for a in range(i.address + 1, i.end))]
    assert len(overlapping) > 100, "no overlapping decodings to ship"
    assert _shipped(cache) == cache
