"""Direct unit tests for the NoReturnState machinery."""

import pytest

from repro.core.cfg import Block, Function, ReturnStatus
from repro.core.noreturn import DeferredCallSite, NoReturnState
from repro.errors import RuntimeConfigError
from repro.runtime import SerialRuntime


def make_state(eager=True):
    rt = SerialRuntime()
    # NoReturnState only uses the runtime for charges/locks; safe outside
    # run() on the serial backend? No — charges need a worker. Drive
    # through rt.run in each test instead.
    return rt


def run(body, eager=True):
    rt = SerialRuntime()
    out = {}

    def go():
        out["result"] = body(rt, NoReturnState(rt, eager_notify=eager))

    rt.run(go)
    return out["result"]


def func_at(addr, name="f"):
    return Function(addr, name, Block(addr), True)


class TestStatusTable:
    def test_known_noreturn_initialization(self):
        def body(rt, nr):
            f = func_at(0x100, "exit")
            nr.init_function(f)
            return f.status, nr.status_of(0x100)

        status, table_status = run(body)
        assert status is ReturnStatus.NORETURN
        assert table_status is ReturnStatus.NORETURN

    def test_mangled_known_noreturn(self):
        def body(rt, nr):
            f = func_at(0x100, "_Z5abortv")
            nr.init_function(f)
            return nr.status_of(0x100)

        assert run(body) is ReturnStatus.NORETURN

    def test_unknown_function_starts_unset(self):
        def body(rt, nr):
            nr.init_function(func_at(0x100, "plain"))
            return nr.status_of(0x100)

        assert run(body) is ReturnStatus.UNSET

    def test_status_of_unregistered(self):
        assert run(lambda rt, nr: nr.status_of(0xDEAD)) \
            is ReturnStatus.UNSET


class TestMarkReturn:
    def test_first_return_wins(self):
        def body(rt, nr):
            nr.mark_return(0x100)
            nr.mark_noreturn(0x100)  # too late: status already set
            return nr.status_of(0x100)

        assert run(body) is ReturnStatus.RETURN

    def test_mark_return_releases_waiters(self):
        def body(rt, nr):
            site = DeferredCallSite(0x200, Block(0x200), 0x210, 0x100)
            assert nr.defer(site) is ReturnStatus.UNSET
            released = nr.mark_return(0x100)
            return released

        released = run(body)
        assert len(released) == 1
        assert released[0].caller_addr == 0x200

    def test_lazy_mode_holds_waiters(self):
        def body(rt, nr):
            site = DeferredCallSite(0x200, Block(0x200), 0x210, 0x100)
            nr.defer(site)
            released = nr.mark_return(0x100)
            return released

        assert run(body, eager=False) == []

    def test_defer_after_return_reports_status(self):
        def body(rt, nr):
            nr.mark_return(0x100)
            site = DeferredCallSite(0x200, Block(0x200), 0x210, 0x100)
            return nr.defer(site)

        assert run(body) is ReturnStatus.RETURN

    def test_mark_noreturn_drops_waiters(self):
        def body(rt, nr):
            site = DeferredCallSite(0x200, Block(0x200), 0x210, 0x100)
            nr.defer(site)
            nr.mark_noreturn(0x100)
            # A later RETURN cannot resurrect it or its waiters.
            released = nr.mark_return(0x100)
            return nr.status_of(0x100), released

        status, released = run(body)
        assert status is ReturnStatus.NORETURN
        assert released == []


class TestTailPropagation:
    def test_tail_dependency_cascades(self):
        def body(rt, nr):
            # A tail-calls B; C waits on A's call fall-through.
            site = DeferredCallSite(0x300, Block(0x300), 0x310, 0xA)
            nr.defer(site)
            assert nr.defer_tail(0xA, 0xB) is ReturnStatus.UNSET
            released = nr.mark_return(0xB)
            return (nr.status_of(0xA), nr.status_of(0xB), released)

        status_a, status_b, released = run(body)
        assert status_a is ReturnStatus.RETURN  # inherited through tail
        assert status_b is ReturnStatus.RETURN
        assert len(released) == 1  # C's site released transitively

    def test_tail_to_already_returning(self):
        def body(rt, nr):
            nr.mark_return(0xB)
            return nr.defer_tail(0xA, 0xB)

        assert run(body) is ReturnStatus.RETURN

    def test_tail_chain_of_three(self):
        def body(rt, nr):
            nr.defer_tail(0xA, 0xB)
            nr.defer_tail(0xB, 0xC)
            nr.mark_return(0xC)
            return [nr.status_of(x) for x in (0xA, 0xB, 0xC)]

        assert run(body) == [ReturnStatus.RETURN] * 3


class TestResolveCycles:
    def test_remaining_unset_become_noreturn(self):
        def body(rt, nr):
            funcs = [func_at(0x100, "a"), func_at(0x200, "b")]
            for f in funcs:
                nr.init_function(f)
            nr.mark_return(0x100)
            nr.resolve_cycles(funcs)
            return [f.status for f in funcs]

        assert run(body) == [ReturnStatus.RETURN, ReturnStatus.NORETURN]


class TestSeedState:
    def test_a_record_two_shards_exported_is_rejected(self):
        """Ownership keeps shard tables disjoint: a second record for
        one address is a bug upstream, not something to merge."""
        def body(rt, nr):
            nr.seed_state(0x100, ReturnStatus.UNSET, [], [])
            nr.seed_state(0x100, ReturnStatus.RETURN, [], [])

        with pytest.raises(RuntimeConfigError, match="ownership violated"):
            run(body)
