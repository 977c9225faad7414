"""Symbol tables: serial container plus the multi-keyed parallel table.

The paper's Section 6.2 replaces a Boost ``multi_index_container`` with a
set of TBB concurrent hash maps keyed by offset, mangled name, pretty name
and typed name, mediated by a master map so each symbol is inserted exactly
once.  :class:`IndexedSymbols` reproduces that structure on top of the
runtime's maps (:meth:`Runtime.make_map
<repro.runtime.api.Runtime.make_map>`); hpcstruct builds it in
parallel when ingesting binaries with very large symbol tables.

Name mangling follows a simplified Itanium-like scheme:
``_Z<len><name><argcodes>`` — e.g. ``_Z3fooii`` is ``foo(int, int)`` with
pretty name ``foo``.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.binary.bytesio import U32, ByteReader, ByteWriter
from repro.errors import ImageFormatError
from repro.runtime.api import Runtime
from repro.runtime.conchash import SharedMap

_ARG_TYPES = {"i": "int", "l": "long", "d": "double", "p": "void*",
              "s": "char*", "v": "void"}


def demangle_pretty(mangled: str) -> str:
    """Human-readable name without parameters (``_Z3fooii`` -> ``foo``)."""
    name, _ = _split_mangled(mangled)
    return name


def demangle_typed(mangled: str) -> str:
    """Demangled name with parameter types (``_Z3fooii`` -> ``foo(int, int)``)."""
    name, args = _split_mangled(mangled)
    if args is None:
        return name
    return f"{name}({', '.join(args)})"


def _split_mangled(mangled: str) -> tuple[str, list[str] | None]:
    if not mangled.startswith("_Z"):
        return mangled, None
    i = 2
    n = 0
    while i < len(mangled) and mangled[i].isdigit():
        n = n * 10 + int(mangled[i])
        i += 1
    if n == 0 or i + n > len(mangled):
        return mangled, None  # not well-formed; treat as plain
    name = mangled[i:i + n]
    args = [_ARG_TYPES.get(c, "?") for c in mangled[i + n:]]
    return name, args


class SymbolKind(enum.IntEnum):
    FUNC = 0
    OBJECT = 1


class SymbolBinding(enum.IntEnum):
    GLOBAL = 0
    LOCAL = 1
    WEAK = 2


@dataclass(frozen=True, slots=True)
class Symbol:
    """One symbol-table entry."""

    name: str          #: mangled name as stored in the binary
    offset: int        #: virtual address
    size: int          #: extent in bytes (0 if unknown)
    kind: SymbolKind = SymbolKind.FUNC
    binding: SymbolBinding = SymbolBinding.GLOBAL

    @property
    def pretty_name(self) -> str:
        return demangle_pretty(self.name)

    @property
    def typed_name(self) -> str:
        return demangle_typed(self.name)


#: A symbol record: its name, then ``offset, size, kind, binding``.
_SYMBOL = struct.Struct("<QQBB")
_KINDS = {int(k): k for k in SymbolKind}
_BINDINGS = {int(b): b for b in SymbolBinding}


class SymbolTable:
    """Serial symbol container with the four lookup keys.

    This is the serialized form stored in ``.symtab``/``.dynsym``; the
    parallel build path is :class:`IndexedSymbols`.  Symbols are kept in
    one list, in insertion order, and each lookup scans it: nothing is
    demangled until a name lookup asks for it.
    """

    def __init__(self, symbols: list[Symbol] | None = None):
        self._symbols: list[Symbol] = list(symbols or [])

    def add(self, sym: Symbol) -> None:
        self._symbols.append(sym)

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def by_offset(self, offset: int) -> list[Symbol]:
        return [s for s in self._symbols if s.offset == offset]

    def by_mangled_name(self, name: str) -> list[Symbol]:
        return [s for s in self._symbols if s.name == name]

    def by_pretty_name(self, name: str) -> list[Symbol]:
        return [s for s in self._symbols if s.pretty_name == name]

    def by_typed_name(self, name: str) -> list[Symbol]:
        return [s for s in self._symbols if s.typed_name == name]

    def functions(self) -> list[Symbol]:
        """Function symbols in address order."""
        return sorted((s for s in self._symbols if s.kind is SymbolKind.FUNC),
                      key=lambda s: (s.offset, s.name))

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter().record(U32.pack(len(self._symbols)))
        for s in self._symbols:
            w.string(s.name).record(
                _SYMBOL.pack(s.offset, s.size, s.kind, s.binding))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes | memoryview,
                   section: str = ".symtab") -> "SymbolTable":
        """Read :meth:`to_bytes`'s form, the payload of ``section``.
        Truncated input, trailing bytes, a name that is not UTF-8, or a
        kind or binding byte outside its enum raises
        :class:`~repro.errors.ImageFormatError`."""
        r = ByteReader(raw)
        symbols: list[Symbol] = []
        for name, offset, size, kind, binding in r.named_array(
                _SYMBOL, "symbol name"):
            try:
                symbols.append(Symbol(name, offset, size, _KINDS[kind],
                                      _BINDINGS[binding]))
            except KeyError:
                raise ImageFormatError(
                    f"symbol {name!r}: kind {kind} / binding {binding} "
                    "out of range") from None
        r.end(section)
        return cls(symbols)


class IndexedSymbols:
    """Thread-safe multi-keyed symbol table (paper Listing 6).

    A master map keyed by symbol identity mediates insertion: the worker
    that wins the master insert updates the four ``by_*`` index maps while
    holding the master entry lock, so the collective entries are updated in
    a total order.  Lookups are unsynchronized and valid once no writers
    remain — the same contract as the paper's redesign.
    """

    def __init__(self, rt: Runtime):
        self._rt = rt
        self.master: SharedMap[Symbol, int] = \
            rt.make_map("sym.master")
        self.by_offset: SharedMap[int, list[Symbol]] = \
            rt.make_map("sym.by_offset")
        self.by_mangled: SharedMap[str, list[Symbol]] = \
            rt.make_map("sym.by_mangled")
        self.by_pretty: SharedMap[str, list[Symbol]] = \
            rt.make_map("sym.by_pretty")
        self.by_typed: SharedMap[str, list[Symbol]] = \
            rt.make_map("sym.by_typed")

    def insert(self, sym: Symbol) -> bool:
        """Insert a symbol; False if it was already present (Listing 6)."""
        rt = self._rt
        rt.charge(rt.cost.symbol_insert)
        with self.master.accessor(sym) as acc:
            if not acc.created:
                return False
            acc.value = sym.offset
            self._index_into(self.by_offset, sym.offset, sym)
            self._index_into(self.by_mangled, sym.name, sym)
            self._index_into(self.by_pretty, sym.pretty_name, sym)
            self._index_into(self.by_typed, sym.typed_name, sym)
            return True

    def _index_into(self, table: SharedMap, key, sym: Symbol) -> None:
        with table.accessor(key) as acc:
            if acc.created:
                acc.value = [sym]
            else:
                acc.value.append(sym)

    def lookup_offset(self, offset: int) -> list[Symbol]:
        return list(self.by_offset.get(offset, []))

    def lookup_pretty(self, name: str) -> list[Symbol]:
        return list(self.by_pretty.get(name, []))

    def lookup_mangled(self, name: str) -> list[Symbol]:
        return list(self.by_mangled.get(name, []))

    def lookup_typed(self, name: str) -> list[Symbol]:
        return list(self.by_typed.get(name, []))

    def __len__(self) -> int:
        return len(self.master)
