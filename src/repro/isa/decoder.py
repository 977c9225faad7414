"""Streaming instruction decoder over a code region.

This is the analog of Dyninst's InstructionAPI as used by the CFG parsers:
given the bytes of a ``.text`` section and its base virtual address, decode
instructions at arbitrary virtual addresses.  The decoder is stateless after
construction and therefore safe to share between threads — the paper notes
that "modifications to Dyninst's instruction decoding code add thread-safety
to support this" (Section 5.3); here thread-safety falls out of immutability.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import InvalidInstructionError
from repro.isa.encoding import DECODE_ROWS, decode
from repro.isa.instructions import _CF_KIND, Instruction


class Decoder:
    """Decodes instructions from a code buffer mapped at ``base``.

    Parameters
    ----------
    code:
        Raw bytes of the executable region.
    base:
        Virtual address of ``code[0]``.
    """

    __slots__ = ("_code", "_base", "_limit")

    def __init__(self, code: bytes | memoryview, base: int):
        # A memoryview stays zero-copy (the shared-memory transport maps
        # .text straight out of the segment); anything else is frozen
        # into an immutable private copy.
        self._code = (code if isinstance(code, memoryview)
                      else memoryview(bytes(code)))
        self._base = base
        self._limit = base + len(code)

    @property
    def base(self) -> int:
        """Lowest decodable virtual address."""
        return self._base

    @property
    def limit(self) -> int:
        """One past the highest decodable virtual address."""
        return self._limit

    def contains(self, address: int) -> bool:
        """True if ``address`` lies inside the code region."""
        return self._base <= address < self._limit

    def decode_at(self, address: int) -> Instruction:
        """Decode the instruction at a virtual address.

        Raises :class:`InvalidInstructionError` for addresses outside the
        region or bytes that do not form an instruction.
        """
        if not self.contains(address):
            raise InvalidInstructionError(address, "outside code region")
        return decode(self._code, address - self._base, address)

    def scan_run(self, address: int,
                 cache: dict[int, Instruction] | None
                 ) -> tuple[list[Instruction], bool, int]:
        """Decode linearly until a control-flow instruction (inclusive).

        This is the ``linearParsing`` primitive of Listing 3, and the one
        decode loop: every other linear walk below is a caller.  Returns
        the instructions, a flag that is True when the run ended at a
        control-flow instruction (False when it ran into undecodable
        bytes or out of the region — a forced block end with no outgoing
        edges), and the number of instructions decoded rather than found
        in ``cache``.  ``cache`` is the caller's decode cache, keyed by
        instruction address, read and filled here (Section 6.3); None
        decodes the whole run afresh.
        """
        if cache is None:
            cache = {}
        cached = cache.get
        code, base, size = self._code, self._base, self._limit - self._base
        insns: list[Instruction] = []
        misses = 0
        addr = address
        while True:
            insn = cached(addr)
            if insn is None:
                # encoding.decode, unrolled: the same checks in the same
                # order, ending the run where decode raises.
                offset = addr - base
                if not 0 <= offset < size:
                    return insns, False, misses
                row = DECODE_ROWS[code[offset]]
                if row is None:
                    return insns, False, misses
                opcode, length, unpack, checks = row
                if offset + length > size:
                    return insns, False, misses
                operands = unpack(code, offset + 1)
                for pos, bound, _name in checks:
                    if operands[pos] >= bound:
                        return insns, False, misses
                insn = cache[addr] = Instruction(
                    addr, opcode, operands, length)
                misses += 1
            insns.append(insn)
            if insn.opcode in _CF_KIND:
                return insns, True, misses
            addr += insn.length

    def iter_from(self, address: int) -> Iterator[Instruction]:
        """Yield consecutive instructions starting at ``address``.

        Iteration stops silently at the end of the region or at the first
        undecodable byte sequence; CFG construction treats that point as a
        forced block end.
        """
        while True:
            insns, ended_cf, _misses = self.scan_run(address, None)
            yield from insns
            if not ended_cf:
                return
            address = insns[-1].end

    def linear_scan(
        self, address: int, stop_before: int | None = None
    ) -> tuple[list[Instruction], bool]:
        """:meth:`scan_run` without a cache.

        ``stop_before`` optionally bounds the scan (exclusive): it stops
        when the *next* instruction would start at or past it.  The
        parsers do not use this (per Invariant 2 the check is deferred to
        control-flow instructions); it is the "early block ending" case
        of ``O_BER``.
        """
        insns, ended_cf, _misses = self.scan_run(address, None)
        if stop_before is not None and insns \
                and insns[-1].address >= stop_before:
            return [i for i in insns if i.address < stop_before], False
        return insns, ended_cf
