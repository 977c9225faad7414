"""Read-only intra-procedural analyses (the paper's AC2–AC6).

These run *after* CFG construction, when the CFG is read-only and
different workers can analyze different functions independently without
synchronization — the application parallelization pattern of Listing 7:

- :mod:`repro.analyses.dataflow` — generic worklist solver;
- :mod:`repro.analyses.dominators` — iterative dominator trees;
- :mod:`repro.analyses.loops` — natural-loop detection and nesting (AC2);
- :mod:`repro.analyses.liveness` — register liveness (AC6);
- :mod:`repro.analyses.stack_height` — stack-pointer height analysis;
- :mod:`repro.analyses.slicing` — backward slicing over registers.

Plus the *interprocedural* layer (docs/ANALYSES.md):

- :mod:`repro.analyses.callgraph` — call graph + SCC condensation;
- :mod:`repro.analyses.interproc` — bottom-up summary fixpoint
  scheduler over SCC waves (parallel across backends);
- :mod:`repro.analyses.checkers` — the checker clients;
- :mod:`repro.analyses.findings` — the ``repro.findings/1`` sidecar.
"""

from repro.analyses.callgraph import (
    CallGraph,
    build_call_graph,
    condensation_waves,
    tarjan_sccs,
)
from repro.analyses.checkers import (
    ALL_CHECKS,
    TOP,
    make_checker,
    resolve_checks,
)
from repro.analyses.dataflow import DataflowProblem, solve_dataflow
from repro.analyses.findings import (
    FINDINGS_SCHEMA,
    canonical_bytes,
    findings_document,
    sort_findings,
)
from repro.analyses.interproc import AnalysisResult, run_checkers
from repro.analyses.dominators import dominator_tree, immediate_dominators
from repro.analyses.loops import Loop, LoopForest, find_loops
from repro.analyses.liveness import LivenessResult, liveness
from repro.analyses.stack_height import StackHeightResult, stack_heights
from repro.analyses.slicing import backward_slice

__all__ = [
    "ALL_CHECKS",
    "AnalysisResult",
    "CallGraph",
    "FINDINGS_SCHEMA",
    "build_call_graph",
    "canonical_bytes",
    "condensation_waves",
    "findings_document",
    "make_checker",
    "resolve_checks",
    "run_checkers",
    "sort_findings",
    "tarjan_sccs",
    "DataflowProblem",
    "solve_dataflow",
    "immediate_dominators",
    "dominator_tree",
    "Loop",
    "LoopForest",
    "find_loops",
    "LivenessResult",
    "liveness",
    "StackHeightResult",
    "stack_heights",
    "TOP",
    "backward_slice",
]
