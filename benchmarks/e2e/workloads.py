"""The four workloads: inputs, one operation each, and the validity gate.

A workload object is built once per child process (``__init__`` is the
set-up: synthesis, the reference result, pool warm-up and one verified
warm-up operation, all on its first input; ``more_inputs()`` adds the
others the measuring loop takes turns on, so that a run's number does
not hang on one binary).  ``op()`` is what gets timed; ``verify(out)`` runs
outside the timed region and returns ``None`` or the reason the
operation counts as failed.  A degraded or fallen-back operation is a
failure, never a fast sample.

Importing this module imports ``repro`` — ``child.py`` does it inside
the set-up it times.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from functools import cached_property
from pathlib import Path

from repro.analyses.checkers import resolve_checks
from repro.analyses.findings import canonical_bytes, findings_document
from repro.analyses.interproc import run_checkers
from repro.apps.checker import check_binary
from repro.core import parse_binary
from repro.corpus import CorpusConfig, corpus_program, run_corpus
from repro.fuzz.oracle import signature_digest
from repro.runtime import ProcsRuntime, SerialRuntime
from repro.synth import llnl2_like, synthesize, tensorflow_like

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Input sizes at scale 1.0 (never cut to save time — cut op counts).
TF_SEED, LLNL2_SEED, LLNL2_SCALE, CORPUS_COUNT = 104, 102, 0.5, 50

#: Binaries a measuring loop takes turns on (TF workloads, llnl2).  Two
#: LLNL2-like binaries of one size differ by up to 25 % in checker cost
#: (SCC shapes), TF-like ones by ~5 % in parse cost — several times what
#: one binary differs from itself between runs — so a run's number is the
#: mean over a few inputs, not the luck of one.
TF_INPUTS, LLNL2_INPUTS = 3, 6
#: Input ``j`` is synthesized from ``<base seed> + seed + j * stride``.
INPUT_STRIDE = 1000


def _ground_truth(sb, cfg) -> dict:
    """``check_binary`` matches against the synthesizer's ground truth:
    a reference that does not come from the parser under test."""
    r = check_binary(sb, cfg)
    return {"functions_matched": r.n_functions_matched,
            "tables_matched": r.n_tables_matched,
            "noreturn_matched": r.n_noreturn_matched}


class Workload:
    """Base: pin checking shared by all four."""

    name = ""
    pin_key = ""
    #: inputs the measuring loop takes turns on
    rotate = 1

    def __init__(self, seed: int, scale: float, scratch: Path):
        self.seed, self.scale, self.scratch = seed, scale, scratch
        #: why every op of this run is invalid (a set-up check failed)
        self.invalid: str | None = None
        #: ``[binary, reference]`` per input; set-up makes the first
        self.inputs: list[list] = []
        self._turn = 0
        #: the input the last op ran on
        self.last_input = 0

    def synth(self, j: int):
        """The ``SynthBinary`` of input ``j``."""
        raise NotImplementedError

    def more_inputs(self) -> None:
        """Synthesize the inputs beyond the first.  Only the measuring
        loop needs them, so this is not part of the set-up ``setup_s``
        times (to the first verified op on the first input).  Their
        references are taken from the first op on each (see
        :meth:`_check`)."""
        for j in range(1, self.rotate):
            self.inputs.append([self.synth(j).binary, None])

    def _take_turn(self) -> int:
        self.last_input = self._turn % len(self.inputs)
        self._turn += 1
        return self.last_input

    def _check(self, j: int, got, why: str) -> str | None:
        """``got`` against input ``j``'s reference.  The first op on an
        input without one sets it: every later op must repeat it."""
        if self.inputs[j][1] is None:
            self.inputs[j][1] = got
        elif got != self.inputs[j][1]:
            return why
        return None

    @property
    def binaries(self) -> list:
        """The ``LoadedBinary`` inputs, for the per-layer spans."""
        raise NotImplementedError

    def pins(self) -> dict:
        """What ``expected.json`` records for this input."""
        raise NotImplementedError

    def check_pins(self) -> None:
        """Compare :meth:`pins` with ``expected.json`` where this
        (seed, scale) is pinned: digests equal, ground-truth counts
        as floors."""
        doc = json.loads(EXPECTED_PATH.read_text())
        want = doc["scales"].get(repr(self.scale), {}).get(self.pin_key)
        if self.seed != doc["seed"] or want is None:
            return
        got = self.pins()
        for key, value in want.items():
            if key == "ground_truth":
                low = [k for k, floor in value.items()
                       if got[key][k] < floor]
                if low:
                    self._fail(f"ground truth below floor: {low}")
            elif got[key] != value:
                self._fail(f"{key} differs from expected.json")

    def _fail(self, why: str | None) -> None:
        """Record the first reason this run's set-up is invalid."""
        if why is not None and self.invalid is None:
            self.invalid = why


class TfSerial(Workload):
    name = "tf-serial"
    pin_key = "tf"
    rotate = TF_INPUTS

    def __init__(self, seed, scale, scratch):
        super().__init__(seed, scale, scratch)
        self.sb = self.synth(0)
        self.binary = self.sb.binary
        # The serial fixed point is the oracle for both TF workloads;
        # this parse is also tf-serial's warm-up operation.
        cfg = self._serial_reference(self.binary)
        self.truth = _ground_truth(self.sb, cfg)
        self.check_pins()

    def synth(self, j):
        return tensorflow_like(seed=TF_SEED + self.seed + j * INPUT_STRIDE,
                               scale=self.scale)

    def _serial_reference(self, binary):
        cfg = parse_binary(binary, SerialRuntime())
        self.inputs.append([binary, signature_digest(cfg.signature())])
        return cfg

    @property
    def binaries(self):
        return [self.binary]

    def pins(self):
        return {"signature_digest": self.inputs[0][1],
                "ground_truth": self.truth}

    def op(self):
        j, rt = self._take_turn(), SerialRuntime()
        return j, parse_binary(self.inputs[j][0], rt), rt

    def verify(self, out):
        j, cfg, _rt = out
        return self.invalid or self._check(
            j, signature_digest(cfg.signature()),
            "CFG digest differs from the serial reference")


class TfProcs2(TfSerial):
    name = "tf-procs2"

    def __init__(self, seed, scale, scratch):
        super().__init__(seed, scale, scratch)
        # The warm-up op creates the shared worker pool.
        self._fail(self.verify(self.op()))

    def more_inputs(self):
        # A sharded op must never be its own reference.
        for j in range(1, self.rotate):
            self._serial_reference(self.synth(j).binary)

    def op(self, in_process: bool = False):
        j, rt = self._take_turn(), ProcsRuntime(2, in_process=in_process)
        return j, parse_binary(self.inputs[j][0], rt), rt

    def verify(self, out):
        _j, _cfg, rt = out
        if rt.degradation["level"] != "none":
            return f"degraded to {rt.degradation['level']}"
        for counter in ("procs.pool_fallback", "procs.shm.fallback"):
            if rt.metrics.counter(counter):
                return f"{counter} fired"
        return super().verify(out)


class CorpusProcs2(Workload):
    name = "corpus-procs2"
    pin_key = "corpus"

    def __init__(self, seed, scale, scratch):
        super().__init__(seed, scale, scratch)
        self.config = CorpusConfig(
            count=max(2, round(CORPUS_COUNT * scale)), seed=seed,
            backend="procs", procs_workers=2, window=2)
        self._runs = 0
        self.reference: list[str] | None = None
        report = self._report(self.op())
        self._fail(self._health(report))
        self.reference = [b["digest"] for b in report["binaries"]]
        self.check_pins()

    @cached_property
    def binaries(self):
        return [synthesize(corpus_program(i, self.seed)).binary
                for i in range(self.config.count)]

    def pins(self):
        return {"digests": self.reference}

    def op(self, in_process: bool = False):
        self._runs += 1
        return run_corpus(self.scratch / f"corpus-{self._runs}",
                          self.config, in_process=in_process)

    def _report(self, summary: dict) -> dict:
        """Load the op's report sidecar and delete its run directory."""
        report = json.loads(Path(summary["report"]).read_text())
        shutil.rmtree(summary["dir"])
        self.last_report = report
        return report

    def _health(self, report: dict) -> str | None:
        s = report["summary"]
        if s["completed"] < s["count"] or s["quarantined"]:
            return (f"{s['completed']}/{s['count']} completed, "
                    f"{s['quarantined']} quarantined")
        for b in report["binaries"]:
            if b["degraded"] != "none" or b["backend"] != "procs" \
                    or b["failures"]:
                return f"{b['name']} degraded or retried"
            if b["digest"] != b["serial_digest"]:
                return f"{b['name']} diverged from its serial parse"
        return None

    def verify(self, out):
        report = self._report(out)
        if self.invalid:
            return self.invalid
        why = self._health(report)
        if why is None and \
                [b["digest"] for b in report["binaries"]] != self.reference:
            why = "per-binary digests differ from the reference run"
        return why


class Llnl2Analyze(Workload):
    name = "llnl2-analyze"
    pin_key = "llnl2"
    rotate = LLNL2_INPUTS

    def __init__(self, seed, scale, scratch):
        super().__init__(seed, scale, scratch)
        self.checks = list(resolve_checks("all"))
        self.sb = self.synth(0)
        self.binary = self.sb.binary
        self.inputs.append([self.binary, None])
        warm_up = self.op()
        self.verify(warm_up)                  # takes the reference
        self.truth = _ground_truth(self.sb, warm_up[1])
        self.check_pins()

    def synth(self, j):
        return llnl2_like(seed=LLNL2_SEED + self.seed + j * INPUT_STRIDE,
                          scale=LLNL2_SCALE * self.scale)

    @property
    def binaries(self):
        return [self.binary]

    def pins(self):
        return {**self.inputs[0][1], "ground_truth": self.truth}

    def op(self):
        j = self._take_turn()
        cfg = parse_binary(self.inputs[j][0], SerialRuntime())
        return j, cfg, run_checkers(cfg)

    def verify(self, out):
        j, cfg, result = out
        doc = findings_document("bench-e2e", self.checks, result.findings,
                                subject={"workload": self.name})
        got = {"signature_digest": signature_digest(cfg.signature()),
               "findings_sha256":
                   hashlib.sha256(canonical_bytes(doc)).hexdigest()}
        return self.invalid or self._check(
            j, got, "CFG or findings digest differs from the reference")


WORKLOADS = {w.name: w for w in
             (TfSerial, TfProcs2, CorpusProcs2, Llnl2Analyze)}
