"""Per-binary supervision: the corpus scheduler and its ladder.

The driver streams a deterministic corpus — binary *i* is a pure
function of ``(seed, i)`` via the sanctioned seed split
(:mod:`repro.seeds`) — through the analysis backends under an inflight
window, journaling every outcome (:mod:`repro.corpus.journal`) and
quarantining binaries that exhaust their attempt budget
(:mod:`repro.corpus.quarantine`).

Supervision model
-----------------
Each attempt of each binary runs on its own daemon thread: synthesize,
parse on the configured backend, digest, optionally verify against a
serial reference parse.  The scheduler thread owns all state; workers
only post ``(key, outcome, payload)`` tuples to a queue.  A binary's
attempt is bounded by ``binary_deadline`` — when it expires the
attempt is *abandoned* (its key is remembered so a straggling result
is discarded; the thread dies with the process) and the failure is
handled exactly like a crash.  An abandoned attempt keeps running
until its own parse ends, outside the window: the window is a plain
concurrency limit on supervised attempts.  The per-parse procs
degradation ladder of docs/ROBUSTNESS.md still runs *inside* each
attempt; above it sits the corpus ladder:

1. **drop to the serial backend** — a binary's *final* attempt after
   crash/timeout failures runs on the serial backend, sidestepping the
   pool entirely.  Divergence failures never take this rung: a procs
   result that disagrees with the serial reference would trivially
   "pass" when re-run serially, masking the very bug the verify
   exists to catch — divergent binaries retry on procs or quarantine;
2. **quarantine** — the attempt budget is spent: triage bundle to
   disk, journal record, run continues.

Determinism
-----------
Outcomes are journaled in binary-index order, not completion order: a
finished binary's record waits until every lower index of the run has
its outcome, so thread timing decides neither the journal's bytes nor
which outcome a ``coordinator-kill`` counts.  With
``REPRO_CORPUS_FAKE_CLOCK=1`` recorded latencies also become a pure
function of ``(binary index, attempt)``, making the journal, the
resumed summary and the final report — a pure function of the journal
— byte-identical across kill/resume, which is what the chaos tests pin.
Production runs use real wall clock.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.core import parse_binary
from repro.corpus.journal import JOURNAL_NAME, Journal, summarize_records
from repro.corpus.quarantine import write_quarantine
from repro.corpus.report import REPORT_NAME, build_report
from repro.errors import CorpusError
from repro.fuzz.oracle import signature_digest
from repro.runtime.faults import (
    FaultPlan,
    inject_binary_entry,
    maybe_kill_coordinator,
)
from repro.runtime.metrics import NULL_METRICS
from repro.runtime.procs import ProcsRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.shm import sweep_orphans
from repro.schema import CORPUS_BACKENDS, canonical_bytes, is_int, is_num
from repro.seeds import derive_seed
from repro.synth.codegen import synthesize
from repro.synth.hostile import HOSTILE_PRESETS, hostile_params
from repro.synth.program import MIN_FUNCTIONS, GenParams, generate_program

#: Deterministic-latency switch for the chaos tests (see module doc).
FAKE_CLOCK_ENV = "REPRO_CORPUS_FAKE_CLOCK"

#: The default preset mix: one benign profile plus every hostile axis,
#: round-robined across binary indexes.
CORPUS_PRESETS: tuple[str, ...] = ("benign",) + HOSTILE_PRESETS

#: The benign profile (small, well-behaved — the paper's evaluation
#: binaries look like this; the hostile presets supply the pathology).
_BENIGN = GenParams(n_functions=12, n_shared_error_groups=1,
                    shared_group_size=2, n_listing1_pairs=1,
                    n_noreturn_cycles=1, noreturn_chain_len=2,
                    functions_per_cu=6, type_dies_per_cu=4)


def corpus_program(index: int, seed: int,
                   presets: tuple[str, ...] = CORPUS_PRESETS,
                   n_functions: int | None = None):
    """The :class:`ProgramSpec` of corpus binary ``index`` — a pure
    function of its arguments (seed split, never arithmetic)."""
    preset = presets[index % len(presets)]
    bin_seed = derive_seed(seed, "corpus-bin", index)
    name = f"corpus-{index:04d}-{preset}"
    if preset == "benign":
        params = (_BENIGN if n_functions is None
                  else replace(_BENIGN, n_functions=n_functions))
    else:
        params = hostile_params(preset, n_functions)
    return generate_program(bin_seed, params, name=name)


#: Config fields added after the journal format was first written.
_LATER_FIELDS = ("n_functions", "procs_workers", "journal_batch")

#: What each config field's annotation admits, and how a problem says
#: so: a restored config comes from a journal header read from disk.
_FIELD_TYPES = {
    "int": (is_int, "an int"),
    "int | None": (lambda v: v is None or is_int(v), "an int or null"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "float": (is_num, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: isinstance(v, tuple) and all(
        isinstance(p, str) for p in v), "a list of strings"),
}


@dataclass(frozen=True)
class CorpusConfig:
    """Everything that determines a corpus run's *results*.

    The full config is journaled in the header record and restored on
    resume — a resumed run may not silently analyze a different corpus.
    Runtime-environment knobs that cannot change results
    (``in_process``, the fault plan) are deliberately not here.  A
    config is validated where it is built, restored ones included.
    """

    count: int = 50
    seed: int = 0
    presets: tuple[str, ...] = CORPUS_PRESETS
    n_functions: int | None = None
    attempts: int = 3
    verify: bool = True
    window: int = 2
    binary_deadline: float = 120.0
    backend: str = "procs"
    procs_workers: int = 2
    journal_batch: int = 8

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            admits, what = _FIELD_TYPES[f.type]
            if not admits(v):
                raise CorpusError(f"{f.name} must be {what} (got {v!r})")
        for bad, problem in (
                (self.count < 1, "count must be >= 1"),
                (self.attempts < 1, "attempts must be >= 1"),
                (self.window < 1, "window must be >= 1"),
                (self.binary_deadline <= 0,
                 "binary deadline must be positive"),
                (self.backend not in CORPUS_BACKENDS,
                 f"unknown backend {self.backend!r}"),
                (self.procs_workers < 1, "procs workers must be >= 1"),
                (self.journal_batch < 1, "journal batch must be >= 1"),
                (self.n_functions is not None
                 and self.n_functions < MIN_FUNCTIONS,
                 f"n_functions must be >= {MIN_FUNCTIONS}"),
                (not self.presets, "need at least one preset")):
            if bad:
                raise CorpusError(problem)
        for p in self.presets:
            if p != "benign" and p not in HOSTILE_PRESETS:
                raise CorpusError(
                    f"unknown preset {p!r} (one of {CORPUS_PRESETS})")

    def header(self) -> dict:
        return asdict(self)

    @classmethod
    def from_header(cls, header: dict) -> "CorpusConfig":
        """The config a journal header records; the fields older
        journals lack keep their defaults."""
        kw = {}
        for f in fields(cls):
            if f.name in header:
                kw[f.name] = header[f.name]
            elif f.name not in _LATER_FIELDS:
                raise CorpusError(
                    f"journal header is missing field {f.name!r}")
        if isinstance(kw["presets"], list):
            kw["presets"] = tuple(kw["presets"])
        return cls(**kw)


class CorpusDriver:
    """One corpus run (fresh or resumed) over one run directory."""

    def __init__(self, run_dir, config: CorpusConfig | None = None, *,
                 resume: bool = False, in_process: bool = False,
                 fault_plan: FaultPlan | None = None, metrics=None):
        if resume and config is not None:
            raise CorpusError(
                "--resume restores the config from the journal header; "
                "do not pass one")
        if not resume and config is None:
            config = CorpusConfig()
        self.run_dir = Path(run_dir)
        self.config = config
        self.resume = resume
        self.in_process = in_process
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fake_clock = os.environ.get(FAKE_CLOCK_ENV) == "1"
        # scheduler state (owned by the thread that calls run())
        self._results: queue.Queue = queue.Queue()
        self._inflight: dict[tuple[int, int], dict] = {}
        self._abandoned: set[tuple[int, int]] = set()
        self._bins: dict[int, dict] = {}
        self._unreleased: list[int] = []  # unjournaled indexes, next last
        self._held: dict[int, tuple[dict, dict]] = {}  # outcomes waiting
        self._outcomes = 0       # per-invocation ordinal (coordinator-kill)
        self.analyzed = 0        # attempts run by *this* invocation
        self.orphans_reaped: list[str] = []

    # -- public entry --------------------------------------------------------

    def run(self) -> dict:
        """Drive the corpus to completion; returns a summary dict."""
        # A previous coordinator killed mid-run never swept its shm
        # segments (os._exit skips atexit); reap anything owned by a
        # dead pid before publishing new ones.
        self.orphans_reaped = sweep_orphans()
        if self.orphans_reaped:
            self.metrics.inc("corpus.shm_orphans_reaped",
                             len(self.orphans_reaped))
        journal_path = self.run_dir / JOURNAL_NAME
        if self.resume:
            journal, header, records, torn = Journal.resume(
                journal_path, fault_plan=self.fault_plan)
            self.config = CorpusConfig.from_header(header)
            journal.batch = self.config.journal_batch
            state = summarize_records(records)
            journal.append({
                "kind": "resume",
                "completed": len(state["completed"]),
                "quarantined": len(state["quarantined"]),
                "torn_tail": torn,
            })
            self.metrics.inc("corpus.resumes")
        else:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            journal = Journal.create(
                journal_path, self.config.header(),
                batch=self.config.journal_batch,
                fault_plan=self.fault_plan)
            state = summarize_records([])
        completed: dict[int, dict] = state["completed"]
        quarantined: dict[int, dict] = state["quarantined"]
        skipped = len(completed) + len(quarantined)
        if self.fake_clock:
            self.metrics.inc("corpus.fake_clock")

        pending = [i for i in range(self.config.count)
                   if i not in completed and i not in quarantined]
        self.metrics.inc("corpus.scheduled", len(pending))
        try:
            self._supervise(pending, journal, completed, quarantined)
        finally:
            journal.close()

        report = build_report(self.config.header(), completed, quarantined)
        report_path = self.run_dir / REPORT_NAME
        report_path.write_bytes(canonical_bytes(report))
        return {
            "dir": str(self.run_dir),
            "schema": report["schema"],
            "report": str(report_path),
            "count": self.config.count,
            "completed": report["summary"]["completed"],
            "quarantined": report["summary"]["quarantined"],
            "analyzed_this_run": self.analyzed,
            "skipped_completed": skipped,
            "resumed": self.resume,
            "orphans_reaped": len(self.orphans_reaped),
        }

    # -- the scheduler loop --------------------------------------------------

    def _supervise(self, pending: list[int], journal: Journal,
                   completed: dict[int, dict],
                   quarantined: dict[int, dict]) -> None:
        pending = list(reversed(pending))  # pop() from the low end
        self._unreleased = list(pending)
        while pending or self._inflight:
            while pending and len(self._inflight) < self.config.window:
                self._launch(pending.pop())
            try:
                key, kind, payload = self._results.get(
                    timeout=self._poll_timeout())
            except queue.Empty:
                self._expire_deadlines(pending, journal, quarantined)
                continue
            if key in self._abandoned:
                self._abandoned.discard(key)   # stale result: drop it
                continue
            info = self._inflight.pop(key, None)
            if info is None:  # pragma: no cover - duplicate post
                continue
            if kind == "ok":
                self._complete(info, payload, journal, completed)
            else:
                self._fail(info, kind, payload, pending, journal,
                           quarantined)

    def _poll_timeout(self) -> float:
        if not self._inflight:
            return 0.05
        now = time.monotonic()
        soonest = min(i["deadline_at"] for i in self._inflight.values())
        return min(0.2, max(0.01, soonest - now))

    def _launch(self, index: int) -> None:
        st = self._bins.setdefault(
            index, {"attempt": 0, "failures": [], "backend":
                    self.config.backend})
        st["attempt"] += 1
        attempt = st["attempt"]
        backend = st["backend"]
        key = (index, attempt)
        self._inflight[key] = {
            "index": index, "attempt": attempt, "backend": backend,
            "deadline_at": time.monotonic() + self.config.binary_deadline,
        }
        self.analyzed += 1
        self.metrics.inc("corpus.attempts")
        t = threading.Thread(
            target=self._analyze, args=(key, index, attempt, backend),
            name=f"corpus-{index}-a{attempt}", daemon=True)
        t.start()

    def _expire_deadlines(self, pending: list[int], journal: Journal,
                          quarantined: dict[int, dict]) -> None:
        now = time.monotonic()
        for key, info in list(self._inflight.items()):
            if now < info["deadline_at"]:
                continue
            del self._inflight[key]
            self._abandoned.add(key)
            self._fail(info, "timeout", {
                "error": ("binary exceeded its deadline of "
                          f"{self.config.binary_deadline:g}s"),
                "latency_s": round(self.config.binary_deadline, 6),
            }, pending, journal, quarantined)

    # -- outcome handling ----------------------------------------------------

    def _complete(self, info: dict, payload: dict, journal: Journal,
                  completed: dict[int, dict]) -> None:
        index = info["index"]
        rec = {"kind": "completed", "index": index,
               "name": self._name(index), "preset": self._preset(index),
               "attempt": info["attempt"], "backend": info["backend"],
               **payload, "failures": self._bins[index]["failures"]}
        self.metrics.inc("corpus.completed")
        self._release(rec, journal, completed)

    def _fail(self, info: dict, kind: str, payload: dict,
              pending: list[int], journal: Journal,
              quarantined: dict[int, dict]) -> None:
        index = info["index"]
        st = self._bins[index]
        st["failures"].append({"attempt": info["attempt"],
                               "backend": info["backend"],
                               "outcome": kind, **payload})
        self.metrics.inc(f"corpus.failure.{kind}")
        nxt = info["attempt"] + 1
        if nxt > self.config.attempts:
            self._quarantine(index, kind, payload["error"], journal,
                             quarantined)
            return
        if (kind in ("crash", "timeout") and nxt == self.config.attempts
                and self.config.backend == "procs"):
            # The corpus ladder's serial rung: the last attempt
            # sidesteps the pool.  Divergence never takes it (a serial
            # re-run trivially matches the serial reference and would
            # mask the divergence).
            st["backend"] = "serial"
            self.metrics.inc("corpus.serial_rung")
        pending.append(index)  # retries are popped first

    def _quarantine(self, index: int, reason: str, error: str,
                    journal: Journal, quarantined: dict[int, dict]
                    ) -> None:
        st = self._bins[index]
        preset = self._preset(index)
        spec = spec_error = None
        try:
            spec = corpus_program(index, self.config.seed,
                                  self.config.presets,
                                  self.config.n_functions)
        except Exception as exc:  # synthesis itself is the failure
            spec_error = f"{type(exc).__name__}: {exc}"
        rel = write_quarantine(self.run_dir, index, preset, reason,
                               error, st["failures"], spec=spec,
                               spec_error=spec_error)
        rec = {"kind": "quarantined", "index": index,
               "name": self._name(index), "preset": preset,
               "reason": reason, "error": error,
               "attempts": st["failures"], "path": rel}
        self.metrics.inc("corpus.quarantined")
        self.metrics.inc(f"corpus.quarantined.{reason}")
        self._release(rec, journal, quarantined)

    def _release(self, rec: dict, journal: Journal, table: dict) -> None:
        """Hold the terminal outcome ``rec`` (bound for ``table``), then
        journal every held outcome whose turn has come, in binary-index
        order.  Each one passes the coordinator-kill site, which fires
        before a quarantine's flush, so buffered records are genuinely
        lost — the state kill -9 leaves."""
        self._held[rec["index"]] = (rec, table)
        while self._unreleased and self._unreleased[-1] in self._held:
            rec, table = self._held.pop(self._unreleased.pop())
            table[rec["index"]] = rec
            journal.append(rec)
            self._outcomes += 1
            maybe_kill_coordinator(self.fault_plan, self._outcomes)
            if rec["kind"] == "quarantined":
                # A quarantine record is precious: flush immediately so
                # resume never re-runs a known-bad binary's whole ladder.
                journal.flush()

    # -- naming --------------------------------------------------------------

    def _preset(self, index: int) -> str:
        return self.config.presets[index % len(self.config.presets)]

    def _name(self, index: int) -> str:
        return f"corpus-{index:04d}-{self._preset(index)}"

    # -- the per-attempt worker (runs on a daemon thread) --------------------

    def _latency(self, index: int, attempt: int, t0: float) -> float:
        if self.fake_clock:
            return round(((index * 37 + attempt * 11) % 89 + 1) / 1000.0,
                         6)
        return round(time.perf_counter() - t0, 6)

    def _analyze(self, key: tuple[int, int], index: int, attempt: int,
                 backend: str) -> None:
        t0 = time.perf_counter()
        try:
            inject_binary_entry(self.fault_plan, index, attempt)
            spec = corpus_program(index, self.config.seed,
                                  self.config.presets,
                                  self.config.n_functions)
            binary = synthesize(spec).binary
            digest, stats = self._parse(binary, backend)
            serial_digest = None
            if self.config.verify:
                if backend == "serial":
                    serial_digest = digest
                else:
                    serial_digest, _ = self._parse(binary, "serial")
                    if serial_digest != digest:
                        self._results.put((key, "divergence", {
                            "error": (f"{backend} digest {digest} != "
                                      f"serial digest {serial_digest}"),
                            "latency_s": self._latency(index, attempt,
                                                       t0),
                        }))
                        return
            self._results.put((key, "ok", {
                "digest": digest,
                "serial_digest": serial_digest,
                "latency_s": self._latency(index, attempt, t0),
                "functions": stats[0],
                "blocks": stats[1],
                "edges": stats[2],
                "degraded": stats[3],
            }))
        except BaseException as exc:
            self._results.put((key, "crash", {
                "error": f"{type(exc).__name__}: {exc}",
                "latency_s": self._latency(index, attempt, t0),
            }))

    def _parse(self, binary, backend: str) -> tuple[str, tuple]:
        if backend == "serial":
            rt = SerialRuntime(enable_metrics=False)
            cfg = parse_binary(binary, rt)
            degraded = "none"
        else:
            rt = ProcsRuntime(
                self.config.procs_workers,
                enable_metrics=False,
                in_process=self.in_process,
                fault_plan=self.fault_plan)
            cfg = parse_binary(binary, rt)
            degraded = rt.degradation["level"]
        stats = (len(cfg.functions()), len(cfg.blocks()),
                 len(cfg.edges()), degraded)
        digest = signature_digest(cfg.signature())
        cfg.release()
        return digest, stats


def run_corpus(run_dir, config: CorpusConfig | None = None, *,
               resume: bool = False, in_process: bool = False,
               fault_plan: FaultPlan | None = None, metrics=None) -> dict:
    """Convenience wrapper: construct a driver and run it."""
    return CorpusDriver(run_dir, config, resume=resume,
                        in_process=in_process, fault_plan=fault_plan,
                        metrics=metrics).run()
