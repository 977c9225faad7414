"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class EncodingError(ReproError):
    """An instruction could not be encoded (bad operands, out-of-range imm)."""


class InvalidInstructionError(ReproError):
    """Bytes at an address do not decode to a valid instruction.

    Carries the offending address so CFG construction can terminate a basic
    block at undecodable bytes, mirroring how Dyninst handles junk bytes.
    """

    def __init__(self, address: int, reason: str = "invalid opcode"):
        super().__init__(f"invalid instruction at {address:#x}: {reason}")
        self.address = address
        self.reason = reason


class ImageFormatError(ReproError):
    """A binary image or one of its sections failed to parse."""


class SectionNotFoundError(ImageFormatError):
    """A required section is missing from a binary image."""

    def __init__(self, name: str):
        super().__init__(f"section not found: {name}")
        self.name = name


class SynthesisError(ReproError):
    """The binary synthesizer was given an unsatisfiable program spec."""


class RuntimeConfigError(ReproError):
    """A parallel runtime was misconfigured (bad worker count, etc.)."""


class CorpusError(ReproError):
    """The corpus driver cannot make progress (unusable run directory,
    corrupt journal body, resume/config mismatch)."""


class ShardFailedError(ReproError):
    """A procs-backend shard has no usable delta: the error that sends
    a sharded parse down to the serial rung.

    Carries the shard id, the attempt number (1-based) it failed on and
    the one-line reason, so the run report can attribute the fault.
    """

    def __init__(self, shard_id: int, attempt: int, reason: str):
        super().__init__(
            f"shard {shard_id} attempt {attempt} failed: {reason}")
        self.shard_id = shard_id
        self.attempt = attempt
        self.reason = reason


class InjectedFaultError(ReproError):
    """A deterministic fault injected by a :class:`~repro.runtime.faults.FaultPlan`."""

    def __init__(self, site: str, shard_id: int | None, attempt: int):
        super().__init__(
            f"injected fault at site {site!r} "
            f"(shard={shard_id}, attempt={attempt})")
        self.site = site
        self.shard_id = shard_id
        self.attempt = attempt


class SimDeadlockError(ReproError):
    """The virtual-time scheduler detected that all workers are blocked."""


class SanityCheckError(ReproError):
    """A sanity analysis (cfgsan / race detector) found a violation.

    Carries the structured findings so callers (CLI, tests) can render
    or serialize them instead of re-parsing the message text.
    """

    def __init__(self, where: str, findings: list):
        lines = "; ".join(str(f) for f in findings[:5])
        more = f" (+{len(findings) - 5} more)" if len(findings) > 5 else ""
        super().__init__(
            f"{len(findings)} sanity violation(s) at {where}: {lines}{more}")
        self.where = where
        self.findings = findings
