"""Program specifications: what a synthetic binary should contain.

:func:`generate_program` draws a :class:`ProgramSpec` from a seeded RNG and
a :class:`GenParams` profile.  The spec is purely declarative — function
shapes, call graph, challenging constructs — and the code generator lowers
it deterministically, so a (seed, params) pair identifies a binary exactly.

The generated population exercises every construct from Section 2.1 of the
paper: functions sharing code (error-handling groups), non-returning
functions (known, wrapper chains, mutual-recursion cycles, and the
``error``-style conditionally-returning function), jump tables (plain,
obscured-bound over-approximation traps, stack-spill failures), tail calls
(including the order-sensitive Listing 1 shape), outlined cold blocks and
hidden (symbol-less) functions that must be discovered through calls.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.errors import SynthesisError

#: Function names treated as known non-returning by the analyses, the
#: synthesizer, and the paper's name-matching heuristic alike.
KNOWN_NORETURN_NAMES = frozenset({
    "exit", "abort", "_exit", "__stack_chk_fail", "__assert_fail",
    "fatal_error",
})

#: Name of the conditionally non-returning function (Section 8.1's `error`).
ERROR_FUNC_NAME = "error_report"


class SegKind(enum.Enum):
    """Body segment kinds composed sequentially into a function."""

    LINEAR = "linear"        # straight-line filler
    DIAMOND = "diamond"      # if/else join
    LOOP = "loop"            # bounded loop with a back edge
    EARLY_RET = "early_ret"  # conditional early return (extra RET)
    CALL = "call"            # direct call to another function
    SWITCH = "switch"        # jump table


class Epilogue(enum.Enum):
    """How a function ends."""

    RET = "ret"                      # normal return
    TAIL_CALL = "tail_call"          # teardown + jump to another function
    NORETURN_CALL = "noreturn_call"  # last instruction calls a noreturn fn
    HALT = "halt"                    # known noreturn primitive (exit-like)
    ERROR_CALL = "error_call"        # calls error_report with nonzero arg
    FALL_SHARED = "fall_shared"      # jumps into a shared error block


@dataclass
class SwitchSpec:
    """One jump-table switch inside a function."""

    n_cases: int
    obscured_bound: bool = False  #: bound check unanalyzable -> over-approx
    stack_spill: bool = False     #: table base through memory -> unresolved


@dataclass
class Segment:
    kind: SegKind
    filler: int = 3                    #: straight-line instructions to emit
    callee: int | None = None          #: CALL target (function index)
    switch: SwitchSpec | None = None
    loop_trips: int = 4                #: cosmetic; bounds are static anyway


@dataclass
class FunctionSpec:
    """Declarative description of one function."""

    index: int
    name: str                         #: mangled symbol name
    segments: list[Segment] = field(default_factory=list)
    epilogue: Epilogue = Epilogue.RET
    has_frame: bool = True
    tail_target: int | None = None            #: for TAIL_CALL epilogues
    noreturn_callee: int | None = None        #: for NORETURN_CALL epilogues
    shared_error_group: int | None = None     #: FALL_SHARED group id
    cold_outline: bool = False                #: emit a .cold region
    hidden: bool = False                      #: omit from symtab/eh_frame
    eh_only: bool = False                     #: unwind-info entry only
    secondary_entry: bool = False             #: multi-entry (linear body)
    listing1_shared_jmp: int | None = None    #: Listing 1: raw-jmp target id
    inline_depth: int = 0                     #: DWARF inline tree depth
    cu: str = "src_0.c"
    decl_line: int = 1


@dataclass
class ProgramSpec:
    """A whole synthetic program."""

    seed: int
    functions: list[FunctionSpec] = field(default_factory=list)
    n_shared_error_groups: int = 0
    name: str = "synthetic"
    #: knobs forwarded to DWARF generation.
    type_dies_per_cu: int = 0
    lines_per_function: int = 4
    #: hostile-layout knobs forwarded to codegen (see GenParams).
    strip_symtab: bool = False
    pct_junk_padding: float = 0.15
    junk_max_bytes: int = 8
    #: indices of functions that can never return (a real compiler never
    #: emits code after calls to these, so the generator avoids making them
    #: ordinary call targets).
    noreturn_indices: set[int] = field(default_factory=set)

    def function_named(self, name: str) -> FunctionSpec:
        for f in self.functions:
            if f.name == name:
                return f
        raise SynthesisError(f"no function named {name!r}")


@dataclass
class GenParams:
    """Statistical profile of a generated binary (workload knobs)."""

    n_functions: int = 100
    #: lognormal body-size distribution (segments per function).
    size_mu: float = 1.3
    size_sigma: float = 0.7
    max_segments: int = 120
    #: construct frequencies (probabilities per function, except counts).
    pct_switch: float = 0.10
    pct_obscured_switch: float = 0.10     # of switches
    pct_stack_spill_switch: float = 0.05  # of switches
    max_switch_cases: int = 12
    pct_tail_call: float = 0.06
    pct_cold_outline: float = 0.04
    pct_hidden: float = 0.05
    pct_call_segment: float = 0.25        # chance a segment is a call
    pct_error_call: float = 0.04          # conditionally-noreturn callers
    pct_multi_entry: float = 0.01
    #: hostile-binary knobs (all off / benign by default; the hostile
    #: presets in :mod:`repro.synth.hostile` crank them up).
    pct_eh_only: float = 0.0              # unwind-entry-only functions
    strip_symtab: bool = False            # drop .symtab from the image
    pct_junk_padding: float = 0.15        # junk bytes between functions
    junk_max_bytes: int = 8               # max junk run length
    n_shared_error_groups: int = 2
    shared_group_size: int = 4
    noreturn_chain_len: int = 3
    n_noreturn_cycles: int = 1
    n_listing1_pairs: int = 1
    functions_per_cu: int = 12
    #: DWARF weight (drives DWARF-vs-CFG cost ratios per binary).
    type_dies_per_cu: int = 40
    lines_per_function: int = 4
    max_inline_depth: int = 2


def generate_program(seed: int, params: GenParams,
                     name: str = "synthetic") -> ProgramSpec:
    """Draw a program spec from the given seed and statistical profile."""
    rng = random.Random(seed)
    p = params
    n = p.n_functions
    if n < 8:
        raise SynthesisError("need at least 8 functions for the fixed cast")

    spec = ProgramSpec(seed=seed, name=name,
                       n_shared_error_groups=p.n_shared_error_groups,
                       type_dies_per_cu=p.type_dies_per_cu,
                       lines_per_function=p.lines_per_function,
                       strip_symtab=p.strip_symtab,
                       pct_junk_padding=p.pct_junk_padding,
                       junk_max_bytes=p.junk_max_bytes)

    # --- fixed cast -------------------------------------------------------
    # Index 0: the known-noreturn primitive.
    spec.functions.append(FunctionSpec(
        index=0, name="exit", epilogue=Epilogue.HALT, has_frame=False,
        segments=[Segment(SegKind.LINEAR, filler=2)]))
    # Index 1: error_report — returns iff first argument is zero.
    spec.functions.append(FunctionSpec(
        index=1, name=ERROR_FUNC_NAME, epilogue=Epilogue.RET,
        has_frame=False, segments=[]))

    next_index = 2

    def add(fn: FunctionSpec) -> FunctionSpec:
        nonlocal next_index
        fn.index = next_index
        next_index += 1
        spec.functions.append(fn)
        return fn

    # Non-returning wrapper chain: w0 -> w1 -> ... -> exit.
    chain: list[FunctionSpec] = []
    for i in range(p.noreturn_chain_len):
        chain.append(add(FunctionSpec(
            index=-1, name=f"_Z12fatal_step_{i}v",
            segments=[Segment(SegKind.LINEAR, filler=rng.randint(2, 5))],
            epilogue=Epilogue.NORETURN_CALL, has_frame=True)))
    for i, fn in enumerate(chain):
        fn.noreturn_callee = chain[i + 1].index if i + 1 < len(chain) else 0

    # Mutually-recursive non-returning cycles.
    for c in range(p.n_noreturn_cycles):
        a = add(FunctionSpec(
            index=-1, name=f"_Z9cycle_a_{c}v", has_frame=False,
            segments=[Segment(SegKind.LINEAR, filler=2)],
            epilogue=Epilogue.NORETURN_CALL))
        b = add(FunctionSpec(
            index=-1, name=f"_Z9cycle_b_{c}v", has_frame=False,
            segments=[Segment(SegKind.LINEAR, filler=2)],
            epilogue=Epilogue.NORETURN_CALL))
        a.noreturn_callee = b.index
        b.noreturn_callee = a.index

    # Listing 1 pairs: A (frame + teardown) and B (frameless) both jump to
    # one shared raw target.
    for j in range(p.n_listing1_pairs):
        a = add(FunctionSpec(
            index=-1, name=f"_Z11l1_frame_{j}v", has_frame=True,
            segments=[Segment(SegKind.LINEAR, filler=3)],
            epilogue=Epilogue.TAIL_CALL))
        b = add(FunctionSpec(
            index=-1, name=f"_Z14l1_frameless_{j}v", has_frame=False,
            segments=[Segment(SegKind.LINEAR, filler=2)],
            epilogue=Epilogue.TAIL_CALL))
        a.listing1_shared_jmp = j
        b.listing1_shared_jmp = j

    # --- the general population ------------------------------------------------
    while next_index < n:
        idx = next_index
        n_segs = min(p.max_segments,
                     max(1, int(rng.lognormvariate(p.size_mu, p.size_sigma))))
        fn = FunctionSpec(index=-1, name=_mangle(rng, idx))
        fn.cu = f"src_{idx // max(1, p.functions_per_cu)}.c"
        fn.decl_line = rng.randint(1, 500)
        fn.inline_depth = rng.randint(0, p.max_inline_depth)
        add(fn)

        for _ in range(n_segs):
            fn.segments.append(_draw_segment(rng, p, n, idx))

        if rng.random() < p.pct_switch:
            fn.segments.append(Segment(
                SegKind.SWITCH, filler=2, switch=_draw_switch(rng, p)))

        # Epilogue: mutually exclusive specials, else plain RET.
        roll = rng.random()
        if roll < p.pct_tail_call:
            fn.epilogue = Epilogue.TAIL_CALL
            fn.tail_target = rng.randrange(2, n)
        elif roll < p.pct_tail_call + p.pct_error_call:
            fn.epilogue = Epilogue.ERROR_CALL
        fn.has_frame = rng.random() < 0.8
        fn.cold_outline = rng.random() < p.pct_cold_outline
        fn.hidden = rng.random() < p.pct_hidden
        # Unwind-info-only entry (exception-handler style): visible to
        # eh_frame but absent from both symbol tables.  The guard keeps
        # the RNG stream bit-identical for benign presets (no draw when
        # the knob is off).
        fn.eh_only = (not fn.hidden and p.pct_eh_only > 0
                      and rng.random() < p.pct_eh_only)
        if (not fn.hidden and fn.epilogue is Epilogue.RET
                and rng.random() < p.pct_multi_entry):
            # Multi-entry functions get simple linear bodies so their
            # secondary-entry ground truth is exact (a suffix range).
            fn.secondary_entry = True
            fn.segments = [Segment(SegKind.LINEAR, filler=4),
                           Segment(SegKind.LINEAR, filler=4)]

    # Shared error-handling groups (functions sharing code).
    members = [f for f in spec.functions
               if f.epilogue is Epilogue.RET and not f.secondary_entry
               and f.index >= 2]
    rng.shuffle(members)
    gi = 0
    for g in range(p.n_shared_error_groups):
        took = 0
        while took < p.shared_group_size and gi < len(members):
            members[gi].shared_error_group = g
            gi += 1
            took += 1

    spec.noreturn_indices = {0} | {f.index for f in chain}
    spec.noreturn_indices.update(
        f.index for f in spec.functions
        if f.epilogue is Epilogue.NORETURN_CALL
    )
    _fix_call_targets(rng, spec)
    return spec


def _mangle(rng: random.Random, idx: int) -> str:
    base = f"fn{idx:05d}"
    args = "".join(rng.choice("ildps") for _ in range(rng.randint(0, 3)))
    return f"_Z{len(base)}{base}{args or 'v'}"


def _draw_switch(rng: random.Random, p: GenParams) -> SwitchSpec:
    n_cases = rng.randint(3, p.max_switch_cases)
    roll = rng.random()
    if roll < p.pct_stack_spill_switch:
        return SwitchSpec(n_cases, stack_spill=True)
    if roll < p.pct_stack_spill_switch + p.pct_obscured_switch:
        return SwitchSpec(n_cases, obscured_bound=True)
    return SwitchSpec(n_cases)


def _draw_segment(rng: random.Random, p: GenParams, n_functions: int,
                  self_idx: int) -> Segment:
    filler = rng.randint(1, 6)
    roll = rng.random()
    if roll < p.pct_call_segment:
        return Segment(SegKind.CALL, filler=filler,
                       callee=rng.randrange(2, n_functions))
    if roll < p.pct_call_segment + 0.18:
        return Segment(SegKind.DIAMOND, filler=filler)
    if roll < p.pct_call_segment + 0.30:
        return Segment(SegKind.LOOP, filler=filler,
                       loop_trips=rng.randint(2, 9))
    if roll < p.pct_call_segment + 0.36:
        return Segment(SegKind.EARLY_RET, filler=filler)
    return Segment(SegKind.LINEAR, filler=filler)


def _fix_call_targets(rng: random.Random, spec: ProgramSpec) -> None:
    """Make the call graph well-formed.

    - call/tail targets must exist, not be self, and not be non-returning
      (a compiler never emits code after a call to a noreturn function);
    - every hidden function needs at least one caller, or it could never be
      discovered and would pollute the checker with false missing-function
      reports.
    """
    n = len(spec.functions)
    bad = set(spec.noreturn_indices) | {1}  # error_report called specially

    def fix(t: int, self_idx: int) -> int:
        t %= n
        while t in bad or t == self_idx or t < 2:
            t = (t + 1) % n
        return t

    called: set[int] = set()
    for fn in spec.functions:
        if fn.tail_target is not None:
            fn.tail_target = fix(fn.tail_target, fn.index)
            called.add(fn.tail_target)
        for seg in fn.segments:
            if seg.kind is SegKind.CALL and seg.callee is not None:
                seg.callee = fix(seg.callee, fn.index)
                called.add(seg.callee)

    callers = [f for f in spec.functions
               if f.index >= 2 and not f.hidden
               and f.index not in spec.noreturn_indices
               and not f.secondary_entry]
    # Guarantee discoverability of hidden functions: insert one call at
    # the *front* of a *distinct* visible caller each.  Call sites later
    # in a body can be killed by noreturn cascades (including a cascade
    # started by an earlier hidden callee), and a hidden function whose
    # only call site is dead code could never be discovered — a compiler
    # would have eliminated such a function entirely.
    host_order = list(callers)
    rng.shuffle(host_order)
    next_host = 0
    for fn in spec.functions:
        if fn.hidden:
            host = host_order[next_host % len(host_order)]
            next_host += 1
            host.segments.insert(
                0, Segment(SegKind.CALL, filler=1, callee=fn.index))
