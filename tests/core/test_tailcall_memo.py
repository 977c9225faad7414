"""Tail-call correction memoizes closures across rounds: the oracles.

:func:`repro.core.finalize._correct_tail_calls` starts from the
closures the unreachable-block sweep computed (when it ran), and from
round 2 on re-walks only the closures of functions containing a
flipped edge's source block; every other function charges its
memoized closure's size instead.  The per-round full recomputation it
replaced is kept below as the oracle, verbatim but for its closure
walk, which now charges at the call as every caller does: on inputs whose
correction runs two rounds — serially and on the procs coordinator —
both must produce the same closures in every round, the same
:class:`~repro.core.cfg.ParseStats`, the same serial clock and the
same virtual-time makespans.  Finalize mints no function, so the
oracle's minting loop never fires.

Dead-function removal reads the interprocedural in-degree correction
leaves behind; the walk over every function's out-edges it replaced is
the second oracle.  No hypothesis needed.
"""

from __future__ import annotations

import pytest

from repro.core import finalize as fin
from repro.core import parse_binary
from repro.core.cfg import INTER_EDGES, Block, EdgeType, Function
from repro.core.parallel_parser import ParseOptions
from repro.runtime import SerialRuntime, VirtualTimeRuntime
from repro.runtime.procs import ProcsRuntime
from repro.synth import HOSTILE_PRESETS, hostile_binary, tensorflow_like

from tests.core.test_parallel_parser import make_binary
from tests.core.test_tailcall_heuristic import _unreached_after_teardown


def _full_correct_tail_calls(parser, blocks: dict[int, Block],
                             functions: dict[int, Function],
                             rounds: list | None = None):
    """The correction loop before memoization: every round walks every
    function's closure afresh.  ``rounds`` collects each round's
    closures."""
    rt = parser.rt
    symtab_entries = {s.offset for s in parser.binary.symtab.functions()}
    symtab_entries.update(s.offset
                          for s in parser.binary.dynsym.functions())
    for _round in range(8):
        rt.metrics.inc("finalize.tailcall_rounds")
        closures: dict[int, set[int]] = {}

        def compute(fa):
            addr, func = fa
            closures[addr] = fin._function_closure(func)
            rt.charge(rt.cost.closure_per_block * len(closures[addr]))

        rt.parallel_for(sorted(functions.items()), compute)
        if rounds is not None:
            rounds.append({a: frozenset(c) for a, c in closures.items()})
        containing: dict[int, set[int]] = {}
        for faddr, cl in closures.items():
            for bstart in cl:
                containing.setdefault(bstart, set()).add(faddr)

        def entry_like(dst: Block) -> bool:
            return (dst.start in symtab_entries
                    or any(ie.etype.interprocedural for ie in dst.in_edges))

        flips = 0
        for b in (blocks[s] for s in sorted(blocks)):
            for e in list(b.out_edges):
                if e.flipped:
                    continue
                if e.etype is EdgeType.DIRECT:
                    if entry_like(e.dst):
                        e.etype = EdgeType.TAILCALL
                        e.flipped = True
                        flips += 1
                elif e.etype is EdgeType.TAILCALL:
                    target = e.dst.start
                    src_funcs = containing.get(e.src.start, set())
                    inside = any(
                        target in closures[fa] and target != fa
                        for fa in src_funcs
                        if fa != target
                    )
                    sole = (len(e.dst.in_edges) == 1
                            and target not in symtab_entries
                            and target in functions
                            and functions[target].discovered_via
                            == "tailcall")
                    if inside or sole:
                        e.etype = EdgeType.DIRECT
                        e.flipped = True
                        flips += 1
        parser.stats.n_tailcall_flips += flips
        if flips:
            rt.metrics.inc("finalize.tailcall_flips", flips)
        if flips == 0:
            return closures
        for b in blocks.values():
            for e in b.out_edges:
                if e.etype is EdgeType.TAILCALL and \
                        e.dst.start not in functions:
                    func = Function(e.dst.start, f"func_{e.dst.start:x}",
                                    e.dst, from_symtab=False,
                                    discovered_via="tailcall")
                    func.status = parser.noreturn.status_of(e.dst.start)
                    functions[e.dst.start] = func
    return None


def _inter_in_degree(blocks: dict[int, Block]) -> dict[int, int]:
    """Each block's interprocedural in-degree, counted afresh."""
    counts: dict[int, int] = {}
    for b in blocks.values():
        for e in b.out_edges:
            if e.etype.interprocedural:
                counts[e.dst.start] = counts.get(e.dst.start, 0) + 1
    return counts


def _walk_remove_dead_functions(parser, functions: dict[int, Function],
                                inter_in=None) -> dict[int, Function]:
    """Dead-function removal before the in-degree: walk every function's
    blocks for interprocedural out-edges (``inter_in`` is ignored)."""
    incoming: set[int] = set()
    for addr, func in functions.items():
        for b in func.blocks:
            for e in b.out_edges:
                if e.etype in INTER_EDGES:
                    incoming.add(e.dst.start)
    kept: dict[int, Function] = {}
    for addr, func in sorted(functions.items()):
        if func.from_symtab or addr in incoming:
            kept[addr] = func
        else:
            parser.stats.n_funcs_removed += 1
            parser.rt.metrics.inc("finalize.dead_functions_removed")
    return kept


class _Recorder:
    """Patch :mod:`repro.core.finalize` to record each round's closures,
    either from the memoized production loop or from the oracle."""

    def __init__(self, monkeypatch, oracle: bool):
        self.rounds: list[dict[int, frozenset[int]]] = []
        if oracle:
            def correct(parser, blocks, functions, memo):
                closures = _full_correct_tail_calls(parser, blocks,
                                                    functions, self.rounds)
                return closures, _inter_in_degree(blocks)
            monkeypatch.setattr(fin, "_correct_tail_calls", correct)
            return
        refresh = fin._refresh_closures

        def spy(rt, functions, closures, dirty):
            refresh(rt, functions, closures, dirty)
            # The memo must hold exactly what a fresh walk finds.
            assert closures.keys() == functions.keys()
            for addr, func in functions.items():
                assert closures[addr] == fin._function_closure(func), \
                    hex(addr)
            self.rounds.append({a: frozenset(c)
                                for a, c in closures.items()})

        monkeypatch.setattr(fin, "_refresh_closures", spy)


def _serial(binary, monkeypatch, oracle: bool):
    with monkeypatch.context() as mp:
        rec = _Recorder(mp, oracle)
        rt = SerialRuntime(enable_metrics=True)
        cfg = parse_binary(binary, rt)
    return rec.rounds, cfg, rt.now(), rt.metrics.snapshot()


def _vtime(binary, monkeypatch, oracle: bool, task_parallel: bool):
    with monkeypatch.context() as mp:
        _Recorder(mp, oracle)
        rt = VirtualTimeRuntime(8)
        cfg = parse_binary(binary, rt,
                           ParseOptions(task_parallel=task_parallel))
    return rt.makespan, rt.metrics.snapshot(), cfg.signature()


#: Serial parses whose correction runs two rounds.
_TWO_ROUND_SERIAL = [
    ("jt-overapprox", 0), ("jt-overapprox", 2), ("jt-overapprox", 3),
    ("oob-entry", 0), ("oob-entry", 3),
    ("data-in-text", 0), ("data-in-text", 3),
    ("tensorflow", 104), ("tensorflow", 1104), ("tensorflow", 2104),
]


def _binary(preset: str, seed: int):
    if preset == "tensorflow":
        return tensorflow_like(seed=seed, scale=0.05).binary
    return hostile_binary(preset, seed=seed).binary


@pytest.mark.parametrize("preset,seed", _TWO_ROUND_SERIAL,
                         ids=[f"{p}-{s}" for p, s in _TWO_ROUND_SERIAL])
def test_memoized_correction_matches_full_recomputation(preset, seed,
                                                        monkeypatch):
    binary = _binary(preset, seed)
    memo_rounds, memo_cfg, memo_clock, memo_snap = \
        _serial(binary, monkeypatch, oracle=False)
    full_rounds, full_cfg, full_clock, full_snap = \
        _serial(binary, monkeypatch, oracle=True)
    assert len(full_rounds) == 2, "input no longer runs two rounds"
    assert memo_rounds == full_rounds
    assert memo_cfg.stats == full_cfg.stats
    assert memo_cfg.signature() == full_cfg.signature()
    assert memo_clock == full_clock
    assert memo_snap == full_snap
    for task_parallel in (True, False):
        assert _vtime(binary, monkeypatch, False, task_parallel) == \
            _vtime(binary, monkeypatch, True, task_parallel), task_parallel


@pytest.mark.parametrize("preset,seed", [("oob-entry", 0),
                                         ("tensorflow", 104)])
def test_coordinator_memoized_correction_matches(preset, seed,
                                                 monkeypatch):
    """The procs coordinator finalizes through the same loop: two
    in-process shards, two correction rounds on the merged graph."""
    binary = _binary(preset, seed)
    results = []
    for oracle in (False, True):
        with monkeypatch.context() as mp:
            rec = _Recorder(mp, oracle)
            rt = ProcsRuntime(2, in_process=True)
            cfg = parse_binary(binary, rt)
        assert rt.degradation["level"] == "none"
        results.append((rec.rounds, cfg.stats, cfg.signature()))
    assert len(results[1][0]) == 2, "input no longer runs two rounds"
    assert results[0] == results[1]


#: A hand-written binary whose correction orphans a function (rule 3
#: turns F's tail call to V into a jump), then the synthetic ones.
_DEAD_FUNCTION_INPUTS = ["orphaned-tailcall", *HOSTILE_PRESETS,
                         "tensorflow"]


def _dead_function_input(name: str):
    if name == "orphaned-tailcall":
        return make_binary(_unreached_after_teardown, {"F": "F"})[0]
    return _binary(name, 104 if name == "tensorflow" else 0)


def _parse_removing(binary, monkeypatch, walk: bool, rt):
    with monkeypatch.context() as mp:
        if walk:
            mp.setattr(fin, "_remove_dead_functions",
                       _walk_remove_dead_functions)
        cfg = parse_binary(binary, rt)
    return ([f.addr for f in cfg.functions()], cfg.stats, cfg.signature(),
            rt.now(), rt.metrics.snapshot())


@pytest.mark.parametrize("name", _DEAD_FUNCTION_INPUTS)
def test_dead_functions_match_the_edge_walk(name, monkeypatch):
    binary = _dead_function_input(name)
    by_degree = _parse_removing(binary, monkeypatch, False,
                                SerialRuntime(enable_metrics=True))
    by_walk = _parse_removing(binary, monkeypatch, True,
                              SerialRuntime(enable_metrics=True))
    assert by_degree == by_walk
    if name == "orphaned-tailcall":
        assert by_degree[1].n_funcs_removed == 1
    assert _parse_removing(binary, monkeypatch, False,
                           VirtualTimeRuntime(4)) == \
        _parse_removing(binary, monkeypatch, True, VirtualTimeRuntime(4))
