"""Differential fuzzing: adversarial synthesis, oracle, delta reduction.

The paper's correctness claim — every parallel schedule reaches the same
CFG fixed point as the serial parser — deserves an adversary.  This
package closes the generator → oracle → reducer loop:

- :mod:`repro.synth.hostile` manufactures hostile binaries (stripped
  symbols, overlapping functions, over-approximating jump tables,
  data-in-text, out-of-band entries), each with ground truth;
- :mod:`repro.fuzz.oracle` parses each binary on every backend axis
  (serial / vtime / threads / procs, including a fault-plan axis)
  plus the cfgsan and race sanity checks, and compares result
  signatures byte-for-byte;
- :mod:`repro.fuzz.reduce` delta-reduces any diverging binary to a
  minimal repro at the program-spec level (drop function, drop block,
  straighten branch, shrink jump table), deterministically;
- :mod:`repro.fuzz.driver` runs the seeded sweep (``repro fuzz``) and
  emits the versioned ``repro.fuzz-report/1`` sidecar;
- :mod:`repro.fuzz.specio` pins minimized cases as JSON so they land in
  ``tests/fuzz/corpus/`` and replay forever as regression tests.

Everything is a pure function of one master seed (:mod:`repro.seeds`):
the same ``repro fuzz --runs N --seed S`` invocation reproduces the
same binaries, schedules and report bytes.
"""

from repro.fuzz.oracle import (
    OracleAxis,
    OracleResult,
    default_axes,
    run_oracle,
    signature_digest,
)
from repro.fuzz.reduce import ReduceResult, divergence_predicate, reduce
from repro.fuzz.driver import fuzz_run
from repro.fuzz.specio import (
    CASE_SCHEMA,
    case_from_json,
    case_to_json,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "OracleAxis",
    "OracleResult",
    "default_axes",
    "run_oracle",
    "signature_digest",
    "ReduceResult",
    "divergence_predicate",
    "reduce",
    "fuzz_run",
    "CASE_SCHEMA",
    "case_to_json",
    "case_from_json",
    "spec_to_json",
    "spec_from_json",
]
