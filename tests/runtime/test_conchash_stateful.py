"""Model-based testing of both map implementations against a plain dict."""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.runtime import ConcurrentHashMap, SerialRuntime
from repro.runtime.conchash import SingleWriterMap


class ConcHashMachine(RuleBasedStateMachine):
    """Drive the map with arbitrary operation sequences; a dict is the
    reference model (sequential semantics — the concurrent semantics are
    covered by the thread/vtime tests)."""

    keys = Bundle("keys")

    @staticmethod
    def new_map(rt):
        return ConcurrentHashMap(rt, n_shards=4)

    def __init__(self):
        super().__init__()
        self.rt = SerialRuntime()
        self.rt._ran = True  # allow API use without run()
        self.rt._clock = 0
        # charge()/checkpoint() work fine outside run() on SerialRuntime.
        self.map = self.new_map(self.rt)
        self.model: dict = {}
        self.ops = 0

    @rule(target=keys, k=st.integers(0, 40))
    def make_key(self, k):
        return k

    @rule(k=keys, v=st.integers())
    def insert(self, k, v):
        created = self.map.insert(k, v)
        self.ops += 1
        assert created == (k not in self.model)
        if created:
            self.model[k] = v

    @rule(k=keys, v=st.integers())
    def accessor_set(self, k, v):
        with self.map.accessor(k) as acc:
            assert acc.created == (k not in self.model)
            acc.value = v
        self.ops += 1
        self.model[k] = v

    @rule(k=keys)
    def accessor_read_only(self, k):
        with self.map.accessor(k, create=False) as acc:
            if k in self.model:
                assert acc is not None
                assert acc.value == self.model[k]
            else:
                assert acc is None
        self.ops += 1

    @rule(items=st.lists(st.tuples(st.integers(0, 40), st.integers()),
                         max_size=6))
    def install_many(self, items):
        want = 0
        for k, v in items:
            if k not in self.model:
                self.model[k] = v
                want += 1
        assert self.map.install_many(items) == want
        self.ops += len(items)

    @rule(k=keys)
    def remove(self, k):
        existed = self.map.remove(k)
        self.ops += 1
        assert existed == (k in self.model)
        self.model.pop(k, None)

    @rule(k=keys)
    def get(self, k):
        assert self.map.get(k, "missing") == self.model.get(k, "missing")

    @invariant()
    def contents_match(self):
        assert len(self.map) == len(self.model)
        assert dict(self.map.items()) == self.model
        assert self.map.sorted_items() == sorted(self.model.items())
        assert self.map.snapshot() == self.model

    @invariant()
    def every_operation_was_charged_and_counted(self):
        assert self.rt.now() == self.ops * self.rt.cost.map_op
        assert self.rt.metrics.counter("map.map.ops") == self.ops


class SingleWriterMachine(ConcHashMachine):
    new_map = staticmethod(SingleWriterMap)


ConcHashMachine.TestCase.settings = SingleWriterMachine.TestCase.settings = \
    settings(max_examples=30, stateful_step_count=30, deadline=None)
TestConcHashStateful = ConcHashMachine.TestCase
TestSingleWriterStateful = SingleWriterMachine.TestCase
