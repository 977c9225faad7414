"""Deterministic fault injection for the procs backend.

The fault-tolerance layer in :mod:`repro.runtime.procs` (per-shard
deadlines, retry ladder, serial fallback) is only
trustworthy if every failure mode can be provoked *on demand and
reproducibly*.  This module is the harness: a :class:`FaultPlan` names
the faults to inject — keyed by injection **site**, **shard id** and
**attempt number**, never by wall-clock time or randomness — and the
procs runtime threads it through the coordinator, the pool payloads and
the worker processes.  Two runs with the same plan inject the same
faults at the same points.

Injection sites (grammar: ``site[@shard][xattempts][=value]``, entries
joined by commas; full format in ``docs/ROBUSTNESS.md``):

========== ============================================================
``exc``    the attempt raises :class:`~repro.errors.InjectedFaultError`
           before parsing its shard (``_attempt_shard`` in procs.py)
``delay``  worker sleeps ``value`` seconds before parsing (trips the
           per-shard deadline when ``value`` exceeds it)
``kill``   worker process dies via ``os._exit`` (pool workers only;
           an inline attempt raises, as for ``exc``)
``corrupt`` one byte of the returned :class:`ShardDelta`'s sealed
           payload is flipped after the digest was stamped (detected
           by whoever collects the delta)
``truncate`` the returned delta's payload is dropped entirely
``pool``   pool creation fails, so the parse takes the serial rung
``shm``    publishing the image to shared memory fails on the
           coordinator, so the parse takes the serial rung, as when
           no pool can be created
========== ============================================================

Corpus-level sites (consumed by :mod:`repro.corpus`, where the
"shard" key is reinterpreted per site — the binary index, a flush
ordinal, or a completion ordinal):

=================== ===================================================
``binary-crash``    the corpus driver's per-binary analysis raises
                    before synthesis (``@i`` scopes it to binary *i*,
                    ``xN`` to that binary's first N attempts)
``binary-hang``     the per-binary analysis sleeps ``value`` seconds
                    before synthesis — trips the binary deadline when
                    ``value`` exceeds it
``journal-torn``    the journal flush writes only a prefix of its batch
                    (tearing the final record mid-line), fsyncs, then
                    kills the coordinator via ``os._exit`` (``@k``
                    scopes it to the k-th flush of the run, 1-based)
``coordinator-kill`` the coordinator dies via ``os._exit`` immediately
                    after recording a binary outcome, without flushing
                    the journal buffer (``@n`` scopes it to the n-th
                    outcome of the run, 1-based)
=================== ===================================================

The two process-killing sites (``journal-torn``, ``coordinator-kill``)
fire *per invocation*: their ordinals restart when ``repro corpus
--resume`` replays the journal, so a resume must be given a plan
without them (or it dies at the same point again).  The ``binary-*``
sites key on the binary index and attempt, both of which the journal
replay reconstructs — keep them in the resume's plan so a re-analyzed
binary walks the identical retry sequence.

A spec fires while ``attempt <= attempts`` (default 1), so a fault that
fires on the first attempt and not the second exercises exactly one
rung of the retry ladder; ``x99`` effectively never stops firing and
pushes execution down to the serial rung.

The plan also rides in worker payloads (it is a frozen, pickle-friendly
dataclass) and can come from the environment via ``REPRO_FAULT_PLAN``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import InjectedFaultError, RuntimeConfigError
from repro.isa.columns import pack_instructions, unpack_instructions

#: Every legal injection site, in ladder order.  The hyphenated tail
#: entries are corpus-level sites consumed by :mod:`repro.corpus`.
SITES = ("exc", "delay", "kill", "corrupt", "truncate", "pool", "shm",
         "binary-crash", "binary-hang", "journal-torn",
         "coordinator-kill")

#: Environment variable consulted by :meth:`FaultPlan.from_env`.
ENV_VAR = "REPRO_FAULT_PLAN"

_SPEC = re.compile(
    r"^(?P<site>[a-z][a-z-]*)"
    r"(?:@(?P<shard>\d+|\*))?"
    r"(?:x(?P<attempts>\d+))?"
    r"(?:=(?P<value>\d+(?:\.\d+)?))?$")


@dataclass(frozen=True)
class FaultSpec:
    """One fault directive: fire at ``site`` for ``shard`` (None = any)
    while the attempt number is ``<= attempts``."""

    site: str
    shard: int | None = None
    attempts: int = 1
    value: float = 0.0

    def matches(self, site: str, shard: int | None, attempt: int) -> bool:
        return (self.site == site
                and (self.shard is None or shard is None
                     or self.shard == shard)
                and attempt <= self.attempts)

    def to_entry(self) -> str:
        """The grammar form of this spec (``from_spec`` round-trips it)."""
        out = self.site
        if self.shard is not None:
            out += f"@{self.shard}"
        if self.attempts != 1:
            out += f"x{self.attempts}"
        if self.value:
            out += f"={self.value:g}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, deterministic set of fault directives.

    ``fires(site, shard, attempt)`` is a pure function of its arguments
    — the plan holds no mutable counters, so the same plan object can
    be consulted from the coordinator and (pickled) from every worker
    and always agree.
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse the ``site[@shard][xattempts][=value]`` grammar."""
        specs = []
        for entry in filter(None, (e.strip()
                                   for e in text.replace(";", ",")
                                   .split(","))):
            m = _SPEC.match(entry)
            if m is None:
                raise RuntimeConfigError(
                    f"bad fault spec entry {entry!r} "
                    f"(want site[@shard][xattempts][=value])")
            site = m.group("site")
            if site not in SITES:
                raise RuntimeConfigError(
                    f"unknown fault site {site!r} (one of {SITES})")
            shard = m.group("shard")
            specs.append(FaultSpec(
                site=site,
                shard=None if shard in (None, "*") else int(shard),
                attempts=int(m.group("attempts") or 1),
                value=float(m.group("value") or 0.0)))
        return cls(tuple(specs))

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The plan named by ``REPRO_FAULT_PLAN``, or None if unset."""
        text = (environ if environ is not None else os.environ).get(ENV_VAR)
        return cls.from_spec(text) if text else None

    def fires(self, site: str, shard: int | None = None,
              attempt: int = 1) -> FaultSpec | None:
        """The first spec matching (site, shard, attempt), or None."""
        for spec in self.specs:
            if spec.matches(site, shard, attempt):
                return spec
        return None

    def to_spec(self) -> str:
        return ",".join(s.to_entry() for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


# ------------------------------------------------------- injection hooks

def inject_entry(plan: FaultPlan | None, shard_id: int, attempt: int,
                 in_worker: bool) -> None:
    """Shard entry faults: kill, delay, exc (in that order).

    ``kill`` is a hard death only in a pool worker; in the coordinator
    it must not take the process down, so it raises like ``exc`` — the
    ladder still sees a failed attempt.
    """
    if not plan:
        return
    if plan.fires("kill", shard_id, attempt):
        if in_worker:
            # A hard worker death: no exception, no cleanup, no delta.
            os._exit(86)
        raise InjectedFaultError("kill", shard_id, attempt)
    spec = plan.fires("delay", shard_id, attempt)
    if spec is not None:
        time.sleep(spec.value)
    if plan.fires("exc", shard_id, attempt):
        raise InjectedFaultError("exc", shard_id, attempt)


def inject_binary_entry(plan: FaultPlan | None, index: int,
                        attempt: int) -> None:
    """Corpus-driver per-binary entry faults: hang, then crash.

    The ``shard`` key of the spec grammar is the binary index here, and
    ``attempt`` the binary's attempt number — both reconstructed
    identically by a journal replay, so a resumed run re-injects the
    same faults for any binary it re-analyzes.  The hang is a plain
    sleep on the supervisor thread; the binary deadline is enforced by
    the corpus scheduler, which abandons the attempt and lets the
    sleeping thread die with the process.
    """
    if not plan:
        return
    spec = plan.fires("binary-hang", index, attempt)
    if spec is not None:
        time.sleep(spec.value)
    if plan.fires("binary-crash", index, attempt):
        raise InjectedFaultError("binary-crash", index, attempt)


def maybe_kill_coordinator(plan: FaultPlan | None, ordinal: int) -> None:
    """The ``coordinator-kill`` site: die hard after the ``ordinal``-th
    recorded binary outcome, before the journal buffer is flushed.

    ``os._exit`` skips atexit handlers — including the shm sweep — so
    this models a real ``kill -9``/OOM kill: buffered journal records
    are lost (the resume re-analyzes them) and any published segments
    leak until the next run's orphan sweep reaps them.
    """
    if plan and plan.fires("coordinator-kill", ordinal, 1):
        os._exit(86)


def corrupt_delta(plan: FaultPlan | None, delta: Any, shard_id: int,
                  attempt: int) -> Any:
    """Delta faults, applied to the sealed payload *after* the digest
    was stamped so the collector's integrity check is what catches
    them — on pool and inline attempts alike."""
    if not plan:
        return delta
    if plan.fires("truncate", shard_id, attempt):
        delta.payload = None
    elif plan.fires("corrupt", shard_id, attempt) and delta.payload:
        blob = bytearray(delta.payload)
        blob[len(blob) // 2] ^= 0xFF
        delta.payload = bytes(blob)
    return delta


# ------------------------------------------------------- delta integrity

def seal_delta(delta: Any, fragment: Any, insns: dict,
               metrics: dict | None) -> None:
    """Pack everything the coordinator reads into one payload and stamp it.

    The producer's half of the hand-off: one ``pickle.dumps`` over the
    fragment, the decode cache as instruction columns
    (:mod:`repro.isa.columns`) and the worker metrics snapshot, then
    one hash over the resulting bytes.
    """
    delta.payload = pickle.dumps(
        (fragment, pack_instructions(insns), metrics),
        pickle.HIGHEST_PROTOCOL)
    delta.digest = delta_digest(delta)


def delta_digest(delta: Any) -> str:
    """Digest of a sealed :class:`ShardDelta`: sha256 over a
    ``shard_id:attempt:`` header and the payload bytes.

    Covers everything the payload carries — block, edge and function
    records, instruction *values*, worker metrics — and binds it
    to the attempt it was produced on.  Stamped once by the producer and
    recomputed once by the collector; any mismatch (bit rot, truncation,
    an injected ``corrupt`` fault, a re-stamped header) makes the delta
    invalid and sends the shard down the retry ladder.
    """
    h = hashlib.sha256(f"{delta.shard_id}:{delta.attempt}:".encode())
    h.update(delta.payload)
    return h.hexdigest()


def delta_error(delta: Any) -> str | None:
    """Why a collected delta is unusable, or None — and then it is open.

    The collector's half of the hand-off, run exactly once per collected
    delta; a non-None reason counts as a failed attempt exactly like a
    worker exception.  Only a payload whose digest matched is ever
    unpickled: an intact delta is *opened* in place (``fragment``,
    ``insns`` and ``metrics`` filled in, the payload bytes released).
    """
    if delta is None:
        return "no delta returned"
    if delta.error is not None:
        # The traceback's last line names the exception.
        lines = delta.error.strip().splitlines() or [""]
        return f"worker exception: {lines[-1]}"
    if delta.payload is None:
        return "truncated delta: payload missing"
    if delta.digest is None:
        return "delta carries no integrity digest"
    if delta_digest(delta) != delta.digest:
        return "corrupt delta: content digest mismatch"
    delta.fragment, columns, delta.metrics = pickle.loads(delta.payload)
    delta.payload = None
    delta.insns = unpack_instructions(columns)
    return None
