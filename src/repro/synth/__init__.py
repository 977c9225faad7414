"""Binary synthesizer: the workload-generator substrate.

The paper evaluates on real binaries (coreutils/tar for correctness; LLNL,
Camellia and TensorFlow binaries plus a 504-binary forensic corpus for
performance).  This package generates synthetic binaries with the same
*structural* properties — function count/size distributions, call-graph
shape, functions sharing code, tail calls, non-returning call chains, jump
tables (including over-approximation traps), outlined cold blocks — and
emits ground truth (function ranges, jump-table sizes, non-returning call
sites) exactly as the paper derives it from DWARF + RTL dumps
(Section 8.1).

Layers:

- :mod:`repro.synth.asm` — a two-pass label-resolving assembler;
- :mod:`repro.synth.program` — seeded program-spec generation;
- :mod:`repro.synth.codegen` — lowering specs to a
  :class:`~repro.binary.format.BinaryImage` plus
  :class:`~repro.synth.groundtruth.GroundTruth`;
- :mod:`repro.synth.corpus` — presets named after the paper's binaries.
"""

from repro.synth.asm import Assembler
from repro.synth.groundtruth import GroundTruth
from repro.synth.program import (
    FunctionSpec,
    GenParams,
    ProgramSpec,
    generate_program,
)
from repro.synth.codegen import SynthesizedBinary, synthesize
from repro.synth.hostile import (
    HOSTILE_PRESETS,
    hostile_binary,
    hostile_params,
)
from repro.synth.corpus import (
    camellia_like,
    corpus_stats,
    coreutils_like_corpus,
    forensics_corpus,
    hpcstruct_binaries,
    llnl1_like,
    llnl2_like,
    tensorflow_like,
    tiny_binary,
)

__all__ = [
    "Assembler",
    "GroundTruth",
    "FunctionSpec",
    "ProgramSpec",
    "generate_program",
    "SynthesizedBinary",
    "synthesize",
    "GenParams",
    "tiny_binary",
    "llnl1_like",
    "llnl2_like",
    "camellia_like",
    "tensorflow_like",
    "hpcstruct_binaries",
    "forensics_corpus",
    "coreutils_like_corpus",
    "corpus_stats",
    "HOSTILE_PRESETS",
    "hostile_binary",
    "hostile_params",
]
