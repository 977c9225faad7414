"""The differential oracle: one binary, every backend, one verdict.

An axis is one way of running the parser end to end — a backend
(serial / vtime / threads / procs), a procs resilience configuration
(a fault plan), or a sanity analysis (cfgsan invariants,
race-detection sweep, findings-sidecar byte determinism of the
interprocedural checkers).  The oracle runs a binary through
every axis and compares :meth:`ParsedCFG.signature` digests
byte-for-byte against the first (serial) axis; signature axes must
match exactly, check axes must report zero findings.

Axes are plain ``(name, kind, fn)`` records so tests can add ablation
axes — :func:`strict_jt_axis` wires up the pre-fix strict jump-table
mode, the one configuration that *genuinely* diverges on obscured-bound
switches, which the reducer tests and the seed corpus use as a real
divergence source.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.binary.loader import LoadedBinary
from repro.core import parse_binary
from repro.core.jump_table import JumpTableOptions
from repro.core.parallel_parser import ParseOptions
from repro.errors import SanityCheckError


def signature_digest(sig: tuple) -> str:
    """Stable hex digest of a :meth:`ParsedCFG.signature` tuple."""
    return hashlib.sha256(repr(sig).encode()).hexdigest()


@dataclass(frozen=True)
class OracleAxis:
    """One way of running the parser over a binary.

    ``kind`` is ``"signature"`` (``fn`` returns a signature tuple to
    compare against the reference axis) or ``"check"`` (``fn`` returns
    a list of finding dicts; any finding fails the axis).
    """

    name: str
    kind: str
    fn: Callable[[LoadedBinary], Any]


@dataclass
class OracleResult:
    """Verdict for one binary across every axis."""

    binary_name: str
    reference: str                 #: name of the reference axis
    reference_digest: str
    digests: dict[str, str] = field(default_factory=dict)
    findings: dict[str, list[dict]] = field(default_factory=dict)
    failing: list[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return bool(self.failing)

    def to_row(self) -> dict:
        """Flat JSON row for the fuzz report."""
        return {
            "binary": self.binary_name,
            "reference": self.reference,
            "reference_digest": self.reference_digest,
            "digests": dict(sorted(self.digests.items())),
            "failing": list(self.failing),
            "findings": {k: list(v)
                         for k, v in sorted(self.findings.items())},
        }


# ------------------------------------------------------------------- axes

def _parse_sig(rt_factory: Callable[[], Any],
               options: ParseOptions | None = None
               ) -> Callable[[LoadedBinary], tuple]:
    def run(binary: LoadedBinary) -> tuple:
        cfg = parse_binary(binary, rt_factory(), options)
        sig = cfg.signature()
        cfg.release()
        return sig
    return run


def _cfgsan_check(binary: LoadedBinary) -> list[dict]:
    from repro.runtime.serial import SerialRuntime

    try:
        cfg = parse_binary(binary, SerialRuntime(),
                           ParseOptions(sanitize=True))
    except SanityCheckError as e:
        return [{"check": "cfgsan", "where": e.where, "finding": str(f)}
                for f in e.findings]
    cfg.release()
    return []


def _races_check(seed: int, schedules: int, n_workers: int
                 ) -> Callable[[LoadedBinary], list[dict]]:
    from repro.sanity.races import run_race_sweep

    def run(binary: LoadedBinary) -> list[dict]:
        rep = run_race_sweep(
            lambda rt: parse_binary(binary, rt),
            n_workers=n_workers, schedules=schedules, base_seed=seed,
            workload_name="fuzz-case")
        return [{"check": "races", **f} if isinstance(f, dict)
                else {"check": "races", "finding": str(f)}
                for f in rep["findings"]]
    return run


def _checkers_check(workers: int, procs_workers: int, procs_inline: bool
                    ) -> Callable[[LoadedBinary], list[dict]]:
    """Findings-sidecar determinism axis: the full analyze pipeline
    (parse + interprocedural checkers) must produce byte-identical
    ``repro.findings/1`` canonical bytes on every backend."""
    from repro.analyses.checkers import ALL_CHECKS
    from repro.analyses.findings import canonical_bytes, findings_document
    from repro.analyses.interproc import run_checkers
    from repro.runtime import ProcsRuntime, SerialRuntime, ThreadRuntime

    def one(binary: LoadedBinary, make_rt: Callable[[], Any]) -> bytes:
        cfg = parse_binary(binary, make_rt())
        res = run_checkers(cfg, "all", rt=make_rt(),
                           binary=getattr(binary, "name", None))
        doc = findings_document("checkers", list(ALL_CHECKS),
                                res.findings)
        out = canonical_bytes(doc)
        cfg.release()
        return out

    def run(binary: LoadedBinary) -> list[dict]:
        ref = one(binary, SerialRuntime)
        out: list[dict] = []
        for name, make_rt in (
                ("threads", lambda: ThreadRuntime(workers)),
                ("procs", lambda: ProcsRuntime(
                    procs_workers, in_process=procs_inline))):
            got = one(binary, make_rt)
            if got != ref:
                out.append({"check": "checkers", "backend": name,
                            "detail": "findings sidecar diverged from "
                                      "the serial reference bytes"})
        return out
    return run


def default_axes(*, workers: int = 4, procs_workers: int = 2,
                 procs_inline: bool = True, include_faults: bool = True,
                 race_seed: int = 0, race_schedules: int = 2,
                 race_workers: int = 4,
                 include_checkers: bool = True
                 ) -> list[OracleAxis]:
    """The standard axis battery.  The first axis is the reference.

    ``procs_inline`` keeps the sharded pipeline in-process (no pool) so
    the oracle runs anywhere.
    """
    from repro.runtime import (
        ProcsRuntime,
        SerialRuntime,
        ThreadRuntime,
        VirtualTimeRuntime,
    )
    from repro.runtime.faults import FaultPlan

    axes = [
        OracleAxis("serial", "signature", _parse_sig(SerialRuntime)),
        OracleAxis("vtime", "signature",
                   _parse_sig(lambda: VirtualTimeRuntime(workers))),
        OracleAxis("threads", "signature",
                   _parse_sig(lambda: ThreadRuntime(workers))),
        OracleAxis("procs", "signature",
                   _parse_sig(lambda: ProcsRuntime(
                       procs_workers, in_process=procs_inline))),
    ]
    if include_faults:
        axes.append(OracleAxis(
            "procs-fault", "signature",
            _parse_sig(lambda: ProcsRuntime(
                procs_workers, in_process=procs_inline,
                fault_plan=FaultPlan.from_spec("exc@0x1"),
                shard_deadline=30.0))))
    axes.append(OracleAxis("cfgsan", "check", _cfgsan_check))
    axes.append(OracleAxis(
        "races", "check",
        _races_check(race_seed, race_schedules, race_workers)))
    if include_checkers:
        axes.append(OracleAxis(
            "checkers", "check",
            _checkers_check(workers, procs_workers, procs_inline)))
    return axes


def strict_jt_axis(name: str = "serial-strict-jt") -> OracleAxis:
    """Pre-fix ablation: strict jump-table mode (no union-semantics
    scan).  Diverges from the reference on obscured-bound switches —
    the real divergence source the reducer tests and seed corpus use.
    """
    from repro.runtime.serial import SerialRuntime

    opts = ParseOptions(jt_options=JumpTableOptions(union_mode=False))
    return OracleAxis(name, "signature", _parse_sig(SerialRuntime, opts))


# ----------------------------------------------------------------- oracle

def run_oracle(binary: LoadedBinary, axes: list[OracleAxis] | None = None,
               *, metrics: Any = None, name: str | None = None
               ) -> OracleResult:
    """Run ``binary`` through every axis; compare against the first.

    The first axis must be a signature axis — it is the reference all
    other signature axes are compared to.  An axis that raises is
    recorded as ``error:<ExceptionType>`` and fails (a backend crashing
    on a hostile binary is as much a divergence as a wrong CFG).
    """
    if axes is None:
        axes = default_axes()
    if not axes or axes[0].kind != "signature":
        raise ValueError("first oracle axis must be a signature axis")

    result = OracleResult(
        binary_name=name if name is not None else getattr(
            binary, "name", "<binary>"),
        reference=axes[0].name, reference_digest="")

    for axis in axes:
        if metrics is not None:
            metrics.inc("fuzz.axes.runs")
        if axis.kind == "signature":
            try:
                digest = signature_digest(axis.fn(binary))
            except Exception as e:  # crash == divergence, keep fuzzing
                digest = f"error:{type(e).__name__}"
                result.findings.setdefault(axis.name, []).append(
                    {"check": axis.name, "error": type(e).__name__,
                     "detail": str(e)})
            result.digests[axis.name] = digest
            if not result.reference_digest:
                result.reference_digest = digest
            elif digest != result.reference_digest:
                result.failing.append(axis.name)
        else:
            try:
                findings = axis.fn(binary)
            except Exception as e:
                findings = [{"check": axis.name,
                             "error": type(e).__name__, "detail": str(e)}]
            if findings:
                result.findings[axis.name] = findings
                result.failing.append(axis.name)

    if metrics is not None and result.diverged:
        metrics.inc("fuzz.divergences")
    return result
