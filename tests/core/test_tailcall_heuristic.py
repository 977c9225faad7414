"""The parse-time tail-call heuristic (Section 2.1), observed before any
correction: :class:`LegacySerialParser` skips finalization's rules, so
each branch keeps the verdict the parser gave it.

Each case labels its branch instruction ``br`` (and ``br2``); the test
reads the edge type from the block holding that instruction to the
branch target.
"""

import pytest

from repro.core import EdgeType
from repro.core.serial_parser import LegacySerialParser
from repro.isa import Cond
from repro.synth.asm import Assembler, L

from tests.core.test_parallel_parser import make_binary


def _known_entry_even_if_reached(a: Assembler) -> None:
    # F reaches G by falling through, then jumps to it: G is a known
    # entry, so the jump is a tail call anyway.
    a.label("F")
    a.jcc(Cond.EQ, L("J"))
    a.label("G")
    a.nop()
    a.ret()
    a.label("J")
    a.label("br")
    a.jmp(L("G"))


def _reached_after_teardown(a: Assembler) -> None:
    # The frame is torn down, but X was already reached inside F.
    a.label("F")
    a.enter(16)
    a.jcc(Cond.EQ, L("T"))
    a.label("X")
    a.nop()
    a.ret()
    a.label("T")
    a.leave()
    a.label("br")
    a.jmp(L("X"))


def _unreached_after_teardown(a: Assembler) -> None:
    # Toward an address F has not reached, frame teardown decides.
    a.label("F")
    a.enter(16)
    a.jcc(Cond.EQ, L("T"))
    a.label("br2")
    a.jmp(L("U"))
    a.label("T")
    a.leave()
    a.label("br")
    a.jmp(L("V"))
    a.label("U")
    a.nop()
    a.ret()
    a.label("V")
    a.nop()
    a.ret()


def _conditional(a: Assembler) -> None:
    # A conditional branch is a tail call toward a known entry (G) only:
    # not toward an unreached address after teardown (U).
    a.label("F")
    a.enter(16)
    a.label("br")
    a.jcc(Cond.EQ, L("G"))
    a.leave()
    a.label("br2")
    a.jcc(Cond.NE, L("U"))
    a.ret()
    a.label("U")
    a.nop()
    a.ret()
    a.label("G")
    a.nop()
    a.ret()


CASES = [
    ("known-entry-reached", _known_entry_even_if_reached,
     {"F": "F", "G": "G"}, [("br", "G", EdgeType.TAILCALL)]),
    ("reached-after-teardown", _reached_after_teardown,
     {"F": "F"}, [("br", "X", EdgeType.DIRECT)]),
    ("unreached-after-teardown", _unreached_after_teardown,
     {"F": "F"}, [("br", "V", EdgeType.TAILCALL),
                  ("br2", "U", EdgeType.DIRECT)]),
    ("conditional", _conditional,
     {"F": "F", "G": "G"}, [("br", "G", EdgeType.TAILCALL),
                            ("br2", "U", EdgeType.COND_TAKEN)]),
]


@pytest.mark.parametrize("build,symbols,expected",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_parse_time_verdict(build, symbols, expected):
    binary, labels = make_binary(build, symbols)
    cfg = LegacySerialParser(binary).parse()
    for branch, target, etype in expected:
        at = labels[branch]
        block = next(b for b in cfg.blocks()
                     if b.start <= at < b.end)
        verdicts = [e.etype for e in block.out_edges
                    if e.dst.start == labels[target]]
        assert verdicts == [etype], (branch, target, verdicts)
