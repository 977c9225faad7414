"""Crash-isolated, resumable corpus driver (`repro corpus`).

The paper's BinFeat client parallelizes analysis *across* a 504-binary
corpus as well as within each binary; BCFA (PAPERS.md) pushes the same
shape to millions of programs.  At that scale the dominant failure mode
is no longer "a shard timed out" but "binary #3127 wedged the pool" or
"the coordinator was OOM-killed at hour two" — so this subsystem is
built robustness-first, on three pillars:

- **Per-binary supervision** (:mod:`repro.corpus.driver`) — every
  binary runs under a deadline and attempt budget; a crash, timeout or
  divergence quarantines *that binary* and the run continues.  The
  procs degradation ladder of docs/ROBUSTNESS.md still protects each
  parse; a corpus-level ladder sits above it (drop the binary to the
  serial backend → quarantine).
- **Resumable journaling** (:mod:`repro.corpus.journal`) — an
  append-only ``journal.jsonl`` records every outcome with result
  digests, fsync'd in batches; ``repro corpus --resume <dir>`` after a
  ``kill -9`` replays it, skips completed work, and produces a final
  ``repro.corpus-report/1`` sidecar byte-identical to an uninterrupted
  run's (the report is a pure function of the journal).
- **Deterministic chaos** — corpus-level fault sites in
  :mod:`repro.runtime.faults` (``binary-crash``, ``binary-hang``,
  ``journal-torn``, ``coordinator-kill``) drive kill-and-resume tests
  in ``tests/corpus/``.

See docs/ROBUSTNESS.md for the supervision ladder, the journal format
and the quarantine triage workflow.
"""

from repro.corpus.driver import (  # noqa: F401
    CORPUS_PRESETS,
    CorpusConfig,
    corpus_program,
    run_corpus,
)
from repro.corpus.journal import JOURNAL_SCHEMA, Journal  # noqa: F401
from repro.corpus.report import build_report  # noqa: F401
