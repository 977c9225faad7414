"""Non-returning function analysis (Section 5.3, Meng & Miller 2016).

Each function has a return status in {UNSET, RETURN, NORETURN}:

- functions whose name matches a known non-returning function start
  NORETURN;
- finding a reachable return instruction makes a function RETURN — with
  the paper's *eager notification* improvement, the very first return
  instruction encountered during traversal resolves the status and
  immediately releases every call site waiting to create its call
  fall-through edge, without waiting for the callee's analysis to finish;
- call sites whose callee is UNSET register a deferred fall-through; the
  wave-level fixed point (:meth:`NoReturnState.resolve_wave`) propagates
  statuses through call chains, and cyclic dependencies resolve to
  NORETURN (all functions in the cycle are non-returning).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.cfg import Function, ReturnStatus
from repro.errors import RuntimeConfigError
from repro.runtime.api import Runtime
from repro.runtime.conchash import SharedMap
from repro.synth.program import KNOWN_NORETURN_NAMES


@dataclass
class DeferredCallSite:
    """A call site waiting on its callee's return status."""

    caller_addr: int          #: function whose traversal hit the call
    block: Any                #: Block containing the call
    fallthrough: int          #: address the call would fall through to
    callee_addr: int


@dataclass
class _StatusRec:
    status: ReturnStatus = ReturnStatus.UNSET
    waiters: list[DeferredCallSite] = field(default_factory=list)
    #: functions that tail-call this one and inherit its RETURN status
    #: (eager notification across tail-call dependencies).
    tail_waiters: list[int] = field(default_factory=list)


class NoReturnState:
    """Shared return-status table with eager notification."""

    def __init__(self, rt: Runtime, eager_notify: bool = True):
        self._rt = rt
        self.eager_notify = eager_notify
        self._table: SharedMap[int, _StatusRec] = \
            rt.make_map("noreturn")

    # -- setup ---------------------------------------------------------------

    def init_function(self, func: Function) -> None:
        """Initialize status: NORETURN for known names, else UNSET."""
        rt = self._rt
        rt.charge(rt.cost.noreturn_update)
        status = (ReturnStatus.NORETURN
                  if _known_noreturn(func.name) else ReturnStatus.UNSET)
        with self._table.accessor(func.addr) as acc:
            if acc.created:
                acc.value = _StatusRec(status)
            elif status is not ReturnStatus.UNSET:
                acc.value.status = status
        func.status = status

    # -- queries ---------------------------------------------------------------

    def status_of(self, addr: int) -> ReturnStatus:
        rec = self._table.get(addr)
        return rec.status if rec is not None else ReturnStatus.UNSET

    # -- updates ----------------------------------------------------------------

    def mark_return(self, addr: int) -> list[DeferredCallSite]:
        """Set RETURN (first return instruction found); returns the call
        sites released by the eager notification (empty when disabled —
        they are then released at the next wave boundary instead).

        A RETURN cascades through registered tail-call dependencies: a
        function that tail-calls a returning function returns too, so its
        own waiting call sites are released in the same notification.
        """
        rt = self._rt
        released: list[DeferredCallSite] = []
        worklist = [addr]
        while worklist:
            a = worklist.pop()
            rt.charge(rt.cost.noreturn_update)
            with self._table.accessor(a) as acc:
                if acc.created:
                    acc.value = _StatusRec()
                rec = acc.value
                if rec.status is not ReturnStatus.UNSET:
                    continue
                rec.status = ReturnStatus.RETURN
                if not self.eager_notify:
                    continue
                released.extend(rec.waiters)
                rec.waiters = []
                worklist.extend(rec.tail_waiters)
                rec.tail_waiters = []
        if released:
            rt.metrics.inc("noreturn.eager_released", len(released))
        return released

    def mark_noreturn(self, addr: int) -> None:
        rt = self._rt
        rt.charge(rt.cost.noreturn_update)
        with self._table.accessor(addr) as acc:
            if acc.created:
                acc.value = _StatusRec()
            if acc.value.status is ReturnStatus.UNSET:
                acc.value.status = ReturnStatus.NORETURN
                acc.value.waiters = []  # dropped: no fall-through edges

    def defer_tail(self, caller_addr: int, callee_addr: int) -> ReturnStatus:
        """Register a tail-call dependency: ``caller`` returns if
        ``callee`` does.  Returns the callee status observed under the
        lock — if already RETURN, the caller handles the propagation
        itself (by calling :meth:`mark_return` on its own address)."""
        rt = self._rt
        rt.charge(rt.cost.noreturn_update)
        with self._table.accessor(callee_addr) as acc:
            if acc.created:
                acc.value = _StatusRec()
            rec = acc.value
            if rec.status is ReturnStatus.UNSET and self.eager_notify:
                rec.tail_waiters.append(caller_addr)
            return rec.status

    def defer(self, site: DeferredCallSite) -> ReturnStatus:
        """Register a deferred call fall-through (component 2 of the
        analysis).  Returns the callee status observed under the lock: if
        it is already resolved the caller handles it immediately and
        nothing is registered."""
        rt = self._rt
        rt.charge(rt.cost.noreturn_update)
        with self._table.accessor(site.callee_addr) as acc:
            if acc.created:
                acc.value = _StatusRec()
            rec = acc.value
            if rec.status is ReturnStatus.UNSET:
                rec.waiters.append(site)
            return rec.status

    # -- fragment export / import (procs backend structural merge) ---------------

    def dump_state(self) -> list[
            tuple[int, ReturnStatus, list[DeferredCallSite], list[int]]]:
        """Flatten the table for shard fragment export: one
        ``(addr, status, waiters, tail_waiters)`` record per entry, sorted
        by address.  Shard ownership makes the tables disjoint — waiters
        are only ever registered on own-region callees (foreign callees
        are frontier-deferred), so the coordinator can seed the union."""
        out = []
        for addr, rec in self._table.sorted_items():
            out.append((addr, rec.status, list(rec.waiters),
                        list(rec.tail_waiters)))
        return out

    def seed_state(self, addr: int, status: ReturnStatus,
                   waiters: list[DeferredCallSite],
                   tail_waiters: list[int]) -> None:
        """Install one exported record (coordinator merge phase).
        Ownership keeps the shard tables disjoint, so the record is new."""
        rt = self._rt
        rt.charge(rt.cost.noreturn_update)
        with self._table.accessor(addr) as acc:
            if not acc.created:
                raise RuntimeConfigError(
                    f"shard ownership violated: noreturn record {addr:#x} "
                    f"exported by two shards")
            acc.value = _StatusRec(status, list(waiters),
                                   list(tail_waiters))

    # -- wave-level fixed point ---------------------------------------------------

    def resolve_wave(
        self,
        functions: list[Function],
        closure_summary: Callable[[Function], tuple[bool, frozenset[int]]],
    ) -> list[DeferredCallSite]:
        """One round of the fixed point run at a wave boundary.

        ``closure_summary(f)`` is the
        :func:`~repro.core.finalize.return_summary` of f's
        intra-procedural closure.  Only RETURN statuses are derived
        here: a function returns if a return instruction is reachable or
        a tail-callee returns (a tail call transfers the callee's return
        to *our* caller).  NORETURN is never concluded mid-wave — a
        released-but-unprocessed call fall-through could still reveal a
        return, so non-returning conclusions wait for quiescence
        (:meth:`resolve_cycles`).  Returns all call sites newly released
        by RETURN statuses.
        """
        released: list[DeferredCallSite] = []
        # Without eager notification, call sites accumulate on functions
        # already known to return; drain them first.
        for f in functions:
            if self.status_of(f.addr) is ReturnStatus.RETURN:
                with self._table.accessor(f.addr) as acc:
                    rec = acc.value
                    released.extend(rec.waiters)
                    rec.waiters = []
        changed = True
        while changed:
            changed = False
            for f in functions:
                if self.status_of(f.addr) is not ReturnStatus.UNSET:
                    continue
                has_ret, tail_targets = closure_summary(f)
                if has_ret or any(
                        self.status_of(t) is ReturnStatus.RETURN
                        for t in tail_targets):
                    with self._table.accessor(f.addr) as acc:
                        rec = acc.value
                        if rec.status is ReturnStatus.UNSET:
                            rec.status = ReturnStatus.RETURN
                            released.extend(rec.waiters)
                            rec.waiters = []
                            changed = True
        for f in functions:
            f.status = self.status_of(f.addr)
        if released:
            self._rt.metrics.inc("noreturn.wave_released", len(released))
        return released

    def resolve_cycles(self, functions: list[Function]) -> None:
        """Terminal rule at quiescence: once no wave can derive another
        RETURN, every remaining UNSET function either always ends in calls
        to non-returning functions or sits in a cyclic dependency — both
        non-returning (the paper's component 3)."""
        for f in functions:
            if self.status_of(f.addr) is ReturnStatus.UNSET:
                self.mark_noreturn(f.addr)
        for f in functions:
            f.status = self.status_of(f.addr)


def _known_noreturn(name: str) -> bool:
    from repro.binary.symtab import demangle_pretty

    return (name in KNOWN_NORETURN_NAMES
            or demangle_pretty(name) in KNOWN_NORETURN_NAMES)
