"""Hostile-binary presets: the inputs real-world corpora throw at CFA.

BCFA-scale analyses (PAPERS.md) run over millions of binaries where
stripped symbols, overlapping functions and data in ``.text`` are the
norm.  The benign presets in :mod:`repro.synth.corpus` mirror the
paper's well-behaved evaluation binaries; these presets deliberately
manufacture the pathologies, each still carrying exact ground truth so
parser behaviour can be pinned per preset
(``tests/synth/test_adversarial.py``) and fuzzed differentially
(:mod:`repro.fuzz`).

Preset axes
-----------

- ``stripped``      — no ``.symtab``: F0 comes from dynsym + eh_frame
  only, everything else must be discovered through calls;
- ``overlap-entry`` — dense multi-entry functions plus many functions
  sharing error-handling code (overlapping ranges);
- ``jt-overapprox`` — every switch bound is obscured through memory, so
  union-mode analysis scans the contiguous ``.rodata`` tables and
  over-approximates into the *neighboring* function's table until
  finalization trims the overlap;
- ``data-in-text``  — long undecodable junk runs interleaved between
  functions in ``.text``;
- ``oob-entry``     — exception-handler-style out-of-band entries:
  functions known only to the unwind information;
- ``hostile-all``   — all of the above at once.

Every preset is a pure function of ``(preset, seed, n_functions)``;
the fuzz driver derives per-case seeds by splitting one master seed
(:mod:`repro.seeds`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SynthesisError
from repro.synth.codegen import SynthesizedBinary, synthesize
from repro.synth.program import GenParams, generate_program

#: Challenging-construct floor every hostile preset keeps: the point is
#: hostile *layout* on top of — not instead of — the paper's hard cases.
_HOSTILE_BASE = GenParams(
    n_functions=28,
    size_mu=1.3, size_sigma=0.8,
    pct_switch=0.18, max_switch_cases=12,
    pct_tail_call=0.10, pct_error_call=0.10,
    pct_cold_outline=0.06, pct_hidden=0.06,
    n_shared_error_groups=2, shared_group_size=4,
    noreturn_chain_len=3, n_noreturn_cycles=1, n_listing1_pairs=1,
    functions_per_cu=6, type_dies_per_cu=6, lines_per_function=3,
)

#: preset name -> GenParams overrides applied to ``_HOSTILE_BASE``.
_PRESET_OVERRIDES: dict[str, dict] = {
    "stripped": dict(strip_symtab=True, pct_hidden=0.12),
    "overlap-entry": dict(pct_multi_entry=0.30,
                          n_shared_error_groups=4, shared_group_size=6),
    "jt-overapprox": dict(pct_switch=0.50, pct_obscured_switch=1.0,
                          pct_stack_spill_switch=0.0,
                          max_switch_cases=8),
    "data-in-text": dict(pct_junk_padding=0.70, junk_max_bytes=24),
    "oob-entry": dict(pct_eh_only=0.35, pct_hidden=0.10),
    "hostile-all": dict(strip_symtab=True, pct_hidden=0.12,
                        pct_multi_entry=0.20,
                        n_shared_error_groups=3, shared_group_size=5,
                        pct_switch=0.40, pct_obscured_switch=0.8,
                        pct_stack_spill_switch=0.1, max_switch_cases=8,
                        pct_junk_padding=0.60, junk_max_bytes=24,
                        pct_eh_only=0.25),
}

#: Stable preset order (the fuzz driver round-robins through this).
HOSTILE_PRESETS: tuple[str, ...] = tuple(sorted(_PRESET_OVERRIDES))


def hostile_params(preset: str, n_functions: int | None = None) -> GenParams:
    """The :class:`GenParams` profile of one hostile preset."""
    try:
        overrides = dict(_PRESET_OVERRIDES[preset])
    except KeyError:
        raise SynthesisError(
            f"unknown hostile preset {preset!r}; "
            f"choose from {', '.join(HOSTILE_PRESETS)}") from None
    if n_functions is not None:
        overrides["n_functions"] = n_functions
    return replace(_HOSTILE_BASE, **overrides)


def hostile_binary(preset: str, seed: int = 1337,
                   n_functions: int | None = None) -> SynthesizedBinary:
    """Synthesize one hostile binary with ground truth."""
    params = hostile_params(preset, n_functions)
    name = f"hostile-{preset}-{seed}"
    return synthesize(generate_program(seed, params, name=name))
