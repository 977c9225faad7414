"""Concurrent hash map with entry-level accessor semantics.

This is the analog of TBB's ``concurrent_hash_map`` as used in the paper's
Listings 4–6: ``insert`` is an atomic insert-if-absent whose boolean result
tells the caller whether it created the entry (invariants 1 and 5), and an
*accessor* holds an entry-level lock for the duration of a compound
operation (invariants 2–4: block-end registration, edge creation and block
splitting are mutually exclusive per end address).  ``ensure(key, make)``
is the insert-if-absent of Listing 4 with the value built only by the
winner: ``(value, created)``, as ``with accessor(key)`` plus ``make(key)``
on creation would give, charged and counted the same.

Two implementations share one API and one read-only half; a runtime picks
between them in :meth:`Runtime.make_map <repro.runtime.api.Runtime.make_map>`:

- :class:`ConcurrentHashMap` is built on the
  :class:`~repro.runtime.api.Runtime` abstraction so it serves every
  backend whose workers can meet: entry locks come from ``rt.make_lock()``
  (contention-modeled on virtual time, real locks on threads); the brief
  shard-table critical sections use ``rt.make_internal_lock()``; every
  operation charges ``cost.map_op`` and passes a virtual-time checkpoint so
  map operations are ordered correctly in simulated time.
- :class:`SingleWriterMap` is for runtimes that are one thread by
  construction (serial, each procs worker, the procs coordinator): one
  plain ``dict``, no shard table and no lock objects — the paper's
  Section 6 lesson, "don't pay for sharing you don't do".  It charges and
  counts exactly what the locked map does, so clocks and metrics cannot
  tell the two apart.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from operator import itemgetter
from typing import Any, Generic, TypeVar

from repro.errors import RuntimeConfigError
from repro.runtime.api import Runtime, RtLock

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()

#: ``sorted_items``' default sort key: the item's key, without a frame.
_KEY = itemgetter(0)


#: A context that yields None and holds nothing: what
#: ``accessor(key, create=False)`` returns for a missing key, and the
#: guard of a table that needs none.
_NOTHING = nullcontext()


class _Entry:
    __slots__ = ("lock", "v")

    def __init__(self, lock: RtLock):
        self.lock = lock
        self.v: Any = _MISSING


class Accessor(Generic[V]):
    """A held entry-level lock plus access to the entry's value.

    Returned by :meth:`ConcurrentHashMap.accessor` with the lock already
    held; it is its own context manager and releases on exit, so it must
    be used as ``with m.accessor(key) as acc``.  ``created`` is True when
    this accessor's acquisition created the entry — the concurrent
    analogue of TBB ``insert(accessor, key)`` returning true.  Reading
    ``value`` before it was ever set raises ``KeyError``.
    """

    __slots__ = ("_entry", "created", "_key", "_rt", "_loc")

    def __init__(self, entry: _Entry, created: bool, key: Any,
                 rt: Runtime | None = None, loc: tuple | None = None):
        self._entry = entry
        self.created = created
        self._key = key
        # Race-detector identity of this entry; None when not checking.
        self._rt = rt
        self._loc = loc

    def __enter__(self) -> "Accessor[V]":
        return self

    def __exit__(self, et: object, ev: object, tb: object) -> None:
        self._entry.lock.release()

    @property
    def value(self) -> V:
        if self._rt is not None:
            self._rt.race_read(self._loc)
        v = self._entry.v
        if v is _MISSING:
            raise KeyError(self._key)
        return v

    @value.setter
    def value(self, v: V) -> None:
        if self._rt is not None:
            self._rt.race_write(self._loc)
        self._entry.v = v

    @property
    def has_value(self) -> bool:
        return self._entry.v is not _MISSING


class _MapReads(Generic[K, V]):
    """The read-only / snapshot half of the map API, written once.

    A layout provides two things: ``_entry(key)`` (the entry object or
    None; entries keep their value in ``.v``, ``_MISSING`` until set) and
    ``_tables()`` (``(guard, dict)`` pairs covering every entry, where
    ``guard`` is the context that makes copying that dict structure-safe).
    """

    __slots__ = ("_rt", "_mname")

    def _entry(self, key: K) -> Any:
        raise NotImplementedError

    def _tables(self) -> Iterable[tuple[Any, dict[K, Any]]]:
        raise NotImplementedError

    # -- unsynchronized operations (single-writer or read-only phases) --------

    def get(self, key: K, default: Any = None) -> V | Any:
        """Read a value without locking (read-only phases).

        The race detector sees this as an *unlocked* read: it conflicts
        with any concurrent write of the same entry unless fork-join or
        lock chains order them — which is exactly the "single-writer or
        read-only phase" contract this method documents.
        """
        rt = self._rt
        if rt.race_checking:
            rt.race_read(("map", self._mname, key))
        entry = self._entry(key)
        if entry is None or entry.v is _MISSING:
            return default
        return entry.v

    def __contains__(self, key: K) -> bool:
        # Deliberately not race-annotated: a membership probe is the
        # paper's legal racy `find` — monotone (entries are never
        # removed during traversal) and structure-safe, so concurrent
        # probes carry no ordering obligation.
        entry = self._entry(key)
        return entry is not None and entry.v is not _MISSING

    def __len__(self) -> int:
        return sum(
            1
            for _, table in self._tables()
            for e in table.values()
            if e.v is not _MISSING
        )

    def items(self) -> Iterator[tuple[K, V]]:
        """Iterate (unsynchronized; call only when no writers remain).

        Under the race detector every yielded value is an *unlocked*
        read, so iterating while writers run is reported as a race.
        Prefer :meth:`items_snapshot` / :meth:`snapshot`, which the
        accessor-discipline lint accepts.
        """
        rt = self._rt
        check = rt.race_checking
        for _, table in self._tables():
            for k, e in table.items():
                if e.v is not _MISSING:
                    if check:
                        rt.race_read(("map", self._mname, k))
                    yield k, e.v

    def keys(self) -> Iterator[K]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[V]:
        for _, v in self.items():
            yield v

    # -- snapshot API (structure-safe iteration) -------------------------------

    def items_snapshot(self) -> list[tuple[K, V]]:
        """Copy the live items table-by-table under the tables' guards.

        Structure-safe against concurrent ``insert``/``remove`` (no
        dict-mutation-during-iteration hazard, unlike :meth:`items`).
        Deliberately charge-free, like the unsynchronized iterators it
        replaces, so migrating call sites does not perturb virtual
        time.  Visibility of entry *values* still requires the usual
        happens-before ordering — the race detector models these reads
        as shard-locked.
        """
        rt = self._rt
        check = rt.race_checking
        out: list[tuple[K, V]] = []
        for guard, table in self._tables():
            with guard:
                for k, e in table.items():
                    v = e.v
                    if v is not _MISSING:
                        if check:
                            rt.race_read(("map", self._mname, k))
                        out.append((k, v))
        return out

    def snapshot(self) -> dict[K, V]:
        """Guarded copy of the map as a plain dict."""
        return dict(self.items_snapshot())

    def sorted_items(self, key: Callable[[K], Any] | None = None
                     ) -> list[tuple[K, V]]:
        """Deterministically ordered items, independent of insertion order.

        Consumers that must produce identical results regardless of worker
        count iterate through this.  Built on :meth:`items_snapshot`, so
        it is structure-safe like the rest of the snapshot API.
        """
        return sorted(self.items_snapshot(),
                      key=(lambda kv: key(kv[0])) if key else _KEY)


class ConcurrentHashMap(_MapReads[K, V]):
    """Sharded hash map with per-entry locks.

    Thread-safety contract (as in the paper): concurrent ``insert`` /
    ``accessor`` calls are safe; unsynchronized iteration (``items`` etc.)
    is only safe once no writers remain (the CFG becomes read-only after
    construction — Section 7.2).
    """

    __slots__ = ("_shards", "_locks", "_mask", "_m",
                 "_ops", "_created", "_acquires")

    def __init__(self, rt: Runtime, n_shards: int = 64, name: str = "map"):
        n = 1
        while n < n_shards:
            n <<= 1
        self._rt = rt
        self._shards: list[dict[K, _Entry]] = [dict() for _ in range(n)]
        self._locks = [rt.make_internal_lock() for _ in range(n)]
        self._mask = n - 1
        #: metric label: this map's ops/contention appear as ``map.<name>.*``.
        self._mname = name
        self._m = m = rt.metrics
        self._ops = m.bind(f"map.{name}.ops")
        self._created = m.bind(f"map.{name}.created")
        self._acquires = m.bind(f"map.{name}.acquires")

    def _entry(self, key: K) -> _Entry | None:
        return self._shards[hash(key) & self._mask].get(key)

    def _tables(self) -> Iterable[tuple[RtLock, dict[K, _Entry]]]:
        return zip(self._locks, self._shards)

    def _find_or_create(self, key: K, create: bool, init: Any = _MISSING,
                        lock_on_create: bool = False
                        ) -> tuple[_Entry | None, bool]:
        """Find the entry for ``key``, creating it if requested.

        ``init`` is the initial value installed at creation, *inside* the
        shard critical section, so a losing inserter can never observe a
        half-created entry.  Returns ``(entry, created)``; charges one map
        operation and passes a virtual-time checkpoint.
        """
        rt = self._rt
        rt.charge(rt.cost.map_op)
        rt.checkpoint()
        self._ops.inc()
        idx = hash(key) & self._mask
        with self._locks[idx]:
            shard = self._shards[idx]
            entry = shard.get(key)
            if entry is not None:
                return entry, False
            if not create:
                return None, False
            entry = _Entry(rt.make_lock())
            entry.v = init
            if lock_on_create:
                # TBB ``insert(accessor)`` atomicity: the creator must
                # hold the entry lock *at publication*, or a losing
                # accessor could acquire it first and observe the entry
                # before the creator assigns its value (a real KeyError
                # race on the threads backend, found by ``repro fuzz``).
                # The lock is fresh, so this acquire can never block.
                entry.lock.acquire()
            shard[key] = entry
            if rt.race_checking and init is not _MISSING:
                # Creation installs the value inside the shard critical
                # section (insert path); report it as a shard-locked write.
                rt.race_write(("map", self._mname, key))
            self._created.inc()
            return entry, True

    # -- TBB-style operations ------------------------------------------------

    def insert(self, key: K, value: V) -> bool:
        """Atomic insert-if-absent (Listing 4).

        Returns True iff this call created the entry.  The losing caller's
        value is discarded, exactly like ``delete b`` in Listing 4.
        """
        _, created = self._find_or_create(key, create=True, init=value)
        return created

    def accessor(self, key: K, create: bool = True
                 ) -> Accessor[V] | nullcontext:
        """Acquire the entry-level lock for ``key`` (Listing 5).

        Returns a context manager yielding an :class:`Accessor`, or None
        when ``create=False`` and the key is absent.  While the accessor
        is held, no other worker can hold an accessor for the same key —
        on the virtual-time backend the wait is charged as lock contention.
        """
        entry, created = self._find_or_create(key, create,
                                              lock_on_create=True)
        if entry is None:
            return _NOTHING
        self._acquires.inc()
        # The creator already holds the entry lock (acquired at
        # publication, inside the shard critical section).
        if not created:
            m = self._m
            if m.enabled:
                t0 = m.clock()
                entry.lock.acquire()
                parked = m.clock() - t0
                if parked > 0:
                    # Entry-lock contention (the paper's Section 6.1
                    # story).  Exact on vtime (uncontended acquires are
                    # free in virtual time); on the threads backend the
                    # delta includes acquire overhead, so `lock.contended`
                    # is the authoritative count.
                    m.inc(f"map.{self._mname}.contended")
                    m.observe(f"map.{self._mname}.park", parked)
            else:
                entry.lock.acquire()
        rt = self._rt
        if rt.race_checking:
            return Accessor(entry, created, key, rt,
                            ("map", self._mname, key))
        return Accessor(entry, created, key)

    def ensure(self, key: K, make: Callable[[K], V]) -> tuple[V, bool]:
        """``(value, created)`` for ``key``, inserting ``make(key)`` if it
        is absent (Listing 4).  This is the accessor path: ``make`` runs
        under the entry lock, so whatever it charges lands where the
        caller's own ``with accessor`` body would have charged it."""
        with self.accessor(key) as acc:
            if acc.created:
                acc.value = value = make(key)
                return value, True
            return acc.value, False

    def install_many(self, items: Iterable[tuple[K, V]]) -> int:
        """Bulk insert-if-absent for single-writer phases (the procs
        backend's structural merge installs whole shard fragments before
        any traversal task runs).  Skips entry-lock and shard-lock traffic
        but charges one map operation per item so accounted work matches
        per-item ``insert``.  Returns the number of entries created."""
        rt = self._rt
        check = rt.race_checking
        n_seen = 0
        n_created = 0
        for key, value in items:
            n_seen += 1
            shard = self._shards[hash(key) & self._mask]
            entry = shard.get(key)
            if check:
                # Deliberately reported as *unlocked* accesses: this path
                # is only legal in single-writer phases, and the detector
                # flags any concurrent use (no lock edge exists to hide it).
                rt.race_read(("map", self._mname, key))
            if entry is not None and entry.v is not _MISSING:
                continue
            entry = _Entry(rt.make_lock())
            entry.v = value
            shard[key] = entry
            if check:
                rt.race_write(("map", self._mname, key))
            n_created += 1
        rt.charge(rt.cost.map_op * n_seen)
        rt.checkpoint()
        self._ops.inc(n_seen)
        self._created.inc(n_created)
        return n_created

    def remove(self, key: K) -> bool:
        """Remove an entry (finalization phase); True if it existed."""
        rt = self._rt
        rt.charge(rt.cost.map_op)
        rt.checkpoint()
        self._ops.inc()
        idx = hash(key) & self._mask
        with self._locks[idx]:
            if rt.race_checking:
                rt.race_write(("map", self._mname, key))
            return self._shards[idx].pop(key, None) is not None


class _Cell(Generic[V]):
    """A :class:`SingleWriterMap` entry, which is also its own accessor.

    With one thread and non-reentrant accessors, at most one accessor per
    entry is live at a time, so the per-acquisition ``created`` flag and
    the ``held`` mark can sit on the entry itself and an accessor
    operation on an existing key allocates nothing.
    """

    __slots__ = ("v", "created", "_held", "_key")

    def __init__(self, key: Any, v: Any):
        self.v = v
        self.created = True
        self._held = False
        self._key = key

    def __enter__(self) -> "_Cell[V]":
        self._held = True
        return self

    def __exit__(self, et: object, ev: object, tb: object) -> None:
        self._held = False

    @property
    def value(self) -> V:
        v = self.v
        if v is _MISSING:
            raise KeyError(self._key)
        return v

    @value.setter
    def value(self, v: V) -> None:
        self.v = v

    @property
    def has_value(self) -> bool:
        return self.v is not _MISSING


class SingleWriterMap(_MapReads[K, V]):
    """The map for runtimes that are one thread by construction.

    Same operations, same ``cost.map_op`` charge per operation, same
    ``map.<name>.*`` counters and the same errors as
    :class:`ConcurrentHashMap` (``KeyError`` on reading an unset value,
    ``RuntimeConfigError`` on a recursive accessor) — but one ``dict``,
    no locks and no race annotations.  Never construct it for a runtime
    whose tasks can interleave; ask :meth:`Runtime.make_map`.
    """

    __slots__ = ("_d", "_charge", "_op_cost",
                 "_ops", "_created", "_acquires")

    def __init__(self, rt: Runtime, name: str = "map"):
        self._rt = rt
        self._mname = name
        self._d: dict[K, _Cell[V]] = {}
        self._charge = rt.charge
        self._op_cost = rt.cost.map_op
        # Single writer: these slots are bumped in place (``.n += 1``).
        m = rt.metrics
        self._ops = m.bind(f"map.{name}.ops")
        self._created = m.bind(f"map.{name}.created")
        self._acquires = m.bind(f"map.{name}.acquires")

    def _entry(self, key: K) -> _Cell[V] | None:
        return self._d.get(key)

    def _tables(self) -> Iterable[tuple[nullcontext, dict[K, _Cell[V]]]]:
        return ((_NOTHING, self._d),)

    # The two reads the parser makes most (``status_of``, ``target in
    # functions``), with ``_entry`` inlined: the base class's, minus a
    # Python frame per call.

    def get(self, key: K, default: Any = None) -> V | Any:
        """:meth:`_MapReads.get`, reading the one dict directly."""
        rt = self._rt
        if rt.race_checking:
            rt.race_read(("map", self._mname, key))
        cell = self._d.get(key)
        if cell is None or cell.v is _MISSING:
            return default
        return cell.v

    def __contains__(self, key: K) -> bool:
        cell = self._d.get(key)
        return cell is not None and cell.v is not _MISSING

    def insert(self, key: K, value: V) -> bool:
        """Insert-if-absent (Listing 4); True iff this call created it."""
        self._charge(self._op_cost)
        self._ops.n += 1
        d = self._d
        if key in d:
            return False
        d[key] = _Cell(key, value)
        self._created.n += 1
        return True

    def accessor(self, key: K, create: bool = True
                 ) -> _Cell[V] | nullcontext:
        """The entry for ``key`` as a context manager (Listing 5), or a
        context yielding None when ``create=False`` and it is absent."""
        self._charge(self._op_cost)
        self._ops.n += 1
        cell = self._d.get(key)
        if cell is None:
            if not create:
                return _NOTHING
            cell = self._d[key] = _Cell(key, _MISSING)
            self._created.n += 1
        elif cell._held:
            raise RuntimeConfigError(
                "serial runtime: recursive acquisition of a non-reentrant lock"
            )
        else:
            cell.created = False
        self._acquires.n += 1
        return cell

    def ensure(self, key: K, make: Callable[[K], V]) -> tuple[V, bool]:
        """:meth:`ConcurrentHashMap.ensure` with one dict lookup: the same
        charge, counters, ``make`` call and errors as the accessor path."""
        self._charge(self._op_cost)
        self._ops.n += 1
        cell = self._d.get(key)
        if cell is None:
            self._created.n += 1
            self._acquires.n += 1
            value = make(key)
            self._d[key] = _Cell(key, value)
            return value, True
        if cell._held:
            raise RuntimeConfigError(
                "serial runtime: recursive acquisition of a non-reentrant lock"
            )
        self._acquires.n += 1
        value = cell.v
        if value is _MISSING:
            raise KeyError(key)
        return value, False

    def install_many(self, items: Iterable[tuple[K, V]]) -> int:
        """Bulk insert-if-absent, charged and counted per item."""
        d = self._d
        n_seen = 0
        n_created = 0
        for key, value in items:
            n_seen += 1
            cell = d.get(key)
            if cell is None:
                d[key] = _Cell(key, value)
            elif cell.v is _MISSING:
                cell.v = value
            else:
                continue
            n_created += 1
        self._charge(self._op_cost * n_seen)
        self._ops.n += n_seen
        self._created.n += n_created
        return n_created

    def remove(self, key: K) -> bool:
        """Remove an entry (finalization phase); True if it existed."""
        self._charge(self._op_cost)
        self._ops.n += 1
        return self._d.pop(key, None) is not None


#: What :meth:`Runtime.make_map` hands out: either implementation.
SharedMap = ConcurrentHashMap[K, V] | SingleWriterMap[K, V]
