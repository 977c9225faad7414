"""Corpus presets mirroring the paper's evaluation binaries.

The paper's binaries are multi-gigabyte; simulated analysis makes their
*structure* the thing to preserve, not their absolute size.  Presets are
scaled down ~1000x but keep the proportions that drive the results:

- **LLNL1/LLNL2-like**: large scientific codes, debug info a few times
  bigger than text, many mid-sized functions.
- **Camellia-like**: smaller binary, similar proportions.
- **TensorFlow-like**: .debug dwarfs .text (template-heavy C++); very many
  small functions; deep inline trees.  DWARF parsing dominates at one
  thread, exactly as in Table 2.
- **Forensic corpus**: many small binaries (Apache/Redis/Nginx-style
  server code scaled down), where per-binary parallelism is scarce — the
  regime where BinFeat's CFG stage scales poorly (Table 3).
- **coreutils-like corpus**: many tiny binaries with ground truth, used by
  the correctness evaluation (Section 8.1).
"""

from __future__ import annotations

from dataclasses import replace

from repro.synth.codegen import SynthesizedBinary, synthesize
# Hostile preset axes live in repro.synth.hostile; re-exported here so
# corpus consumers (fuzz driver, CLI) see one preset namespace.
from repro.synth.hostile import (  # noqa: F401
    HOSTILE_PRESETS,
    hostile_binary,
)
from repro.synth.program import GenParams, generate_program


def _build(seed: int, params: GenParams, name: str) -> SynthesizedBinary:
    return synthesize(generate_program(seed, params, name=name))


def tiny_binary(seed: int = 7, n_functions: int = 24,
                name: str = "tiny.bin", **overrides) -> SynthesizedBinary:
    """A small binary for tests and the quickstart example."""
    params = replace(GenParams(n_functions=n_functions,
                               n_shared_error_groups=1,
                               shared_group_size=2,
                               n_listing1_pairs=1,
                               n_noreturn_cycles=1,
                               noreturn_chain_len=2,
                               functions_per_cu=6,
                               type_dies_per_cu=4),
                     **overrides)
    return _build(seed, params, name)


def llnl1_like(seed: int = 101, scale: float = 1.0) -> SynthesizedBinary:
    """LLNL1-like: Power scientific code, 363 MiB total (scaled)."""
    params = GenParams(
        n_functions=max(8, int(900 * scale)),
        size_mu=1.6, size_sigma=0.8,
        pct_switch=0.12, functions_per_cu=4,
        type_dies_per_cu=55, lines_per_function=6,
        n_shared_error_groups=6, shared_group_size=5,
        noreturn_chain_len=4, n_noreturn_cycles=2, n_listing1_pairs=2,
    )
    return _build(seed, params, "LLNL1-like")


def llnl2_like(seed: int = 102, scale: float = 1.0) -> SynthesizedBinary:
    """LLNL2-like: 1.9 GiB binary, debug info ~10x text (scaled)."""
    params = GenParams(
        n_functions=max(8, int(1400 * scale)),
        size_mu=1.5, size_sigma=0.85,
        pct_switch=0.10, functions_per_cu=5,
        type_dies_per_cu=120, lines_per_function=7,
        n_shared_error_groups=8, shared_group_size=5,
        noreturn_chain_len=4, n_noreturn_cycles=2, n_listing1_pairs=2,
    )
    return _build(seed, params, "LLNL2-like")


def camellia_like(seed: int = 103, scale: float = 1.0) -> SynthesizedBinary:
    """Camellia-like: 300 MiB discontinuous-Galerkin framework (scaled)."""
    params = GenParams(
        n_functions=max(8, int(650 * scale)),
        size_mu=1.7, size_sigma=0.7,
        pct_switch=0.08, functions_per_cu=4,
        type_dies_per_cu=95, lines_per_function=6,
        n_shared_error_groups=4, shared_group_size=4,
        noreturn_chain_len=3, n_noreturn_cycles=1, n_listing1_pairs=1,
    )
    return _build(seed, params, "Camellia-like")


def tensorflow_like(seed: int = 104, scale: float = 1.0) -> SynthesizedBinary:
    """TensorFlow-like: 7.7 GiB shared library, .debug ~68x .text (scaled).

    Very many small template-instantiation functions; the DWARF side
    dominates single-threaded time (Table 2: 703 s DWARF vs 113 s CFG).
    """
    params = GenParams(
        n_functions=max(8, int(2200 * scale)),
        size_mu=1.1, size_sigma=0.6,   # many small functions
        pct_switch=0.07, functions_per_cu=8,
        type_dies_per_cu=420, lines_per_function=10,
        max_inline_depth=3,
        n_shared_error_groups=10, shared_group_size=6,
        noreturn_chain_len=5, n_noreturn_cycles=2, n_listing1_pairs=3,
    )
    return _build(seed, params, "TensorFlow-like")


def hpcstruct_binaries(scale: float = 1.0) -> list[SynthesizedBinary]:
    """The four binaries of Table 1 / Table 2 / Figure 3."""
    return [llnl1_like(scale=scale), llnl2_like(scale=scale),
            camellia_like(scale=scale), tensorflow_like(scale=scale)]


def forensics_corpus(n_binaries: int = 40, seed: int = 500,
                     scale: float = 1.0) -> list[SynthesizedBinary]:
    """BinFeat's training-set corpus (504 real binaries, scaled to 40).

    Server-code profile: small binaries, handful of large parser functions
    with big switch statements (the jump-table-heavy imbalance source the
    paper identifies for the CFG stage of Table 3).
    """
    out = []
    for i in range(n_binaries):
        params = GenParams(
            n_functions=max(8, int((40 + (i * 13) % 50) * scale)),
            size_mu=1.4, size_sigma=1.0,   # heavy tail: few big functions
            pct_switch=0.22, max_switch_cases=24,
            functions_per_cu=8, type_dies_per_cu=10, lines_per_function=3,
            n_shared_error_groups=1, shared_group_size=3,
            noreturn_chain_len=3, n_noreturn_cycles=1, n_listing1_pairs=1,
        )
        out.append(_build(seed + i, params, f"forensic_{i:03d}.bin"))
    return out


def coreutils_like_corpus(n_binaries: int = 113, seed: int = 8000
                          ) -> list[SynthesizedBinary]:
    """The correctness corpus (113 coreutils/tar binaries, Section 8.1)."""
    out = []
    for i in range(n_binaries):
        params = GenParams(
            n_functions=10 + (i * 7) % 30,
            size_mu=1.2, size_sigma=0.8,
            pct_switch=0.15,
            pct_obscured_switch=0.15, pct_stack_spill_switch=0.10,
            pct_error_call=0.08, pct_cold_outline=0.08,
            functions_per_cu=6, type_dies_per_cu=5,
            n_shared_error_groups=1, shared_group_size=3,
            noreturn_chain_len=2, n_noreturn_cycles=1, n_listing1_pairs=1,
        )
        out.append(_build(seed + i, params, f"coreutil_{i:03d}"))
    return out


def corpus_stats(binaries: list[SynthesizedBinary]) -> dict[str, dict]:
    """Per-binary section statistics (Table 1 rows)."""
    stats = {}
    for sb in binaries:
        img = sb.binary.image
        stats[sb.name] = {
            "total": img.total_size,
            "text": img.text_size,
            "debug": img.debug_size,
            "functions": len(sb.spec.functions),
            "symbols": len(sb.binary.symtab),
        }
    return stats
