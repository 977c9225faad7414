"""Accessor-discipline and determinism lint (static AST pass).

Three rules, each targeting a class of bug the dynamic tooling can
only catch if the right schedule happens to run:

- ``unsync-iteration``: calling ``.items()`` / ``.keys()`` /
  ``.values()`` on a shared map (bound from ``rt.make_map(...)`` or from
  either :mod:`~repro.runtime.conchash` class by name)
  outside the map implementation itself.  These iterate the shard
  dicts with no locking; use ``items_snapshot()`` / ``snapshot()`` /
  ``sorted_items()`` instead.
- ``bare-mutation``: mutating an object obtained from a concurrent
  map via lock-free ``get()`` (attribute assignment, item assignment,
  or a known mutator-method call) instead of working under an
  ``accessor`` scope.
- ``wall-clock``: use of wall-clock or randomness sources
  (``time``/``random``/``secrets``/``uuid``/``datetime.now``) in
  worker code paths — the determinism rule the fault-injection
  harness and the differential battery depend on.

A finding can be suppressed on its line with ``# sanity: allow(<rule>)``
and a justification; suppressions are deliberate, reviewable
exceptions (the racy lint fixtures, for example).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

#: Iteration methods that walk shard dicts without locks.
_UNSYNC_ITERS = {"items", "keys", "values"}

#: Mutator method names on common container/record values.
_MUTATORS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "sort", "update",
}

#: Module names whose use in worker paths breaks determinism.
_NONDET_MODULES = {"time", "random", "secrets", "uuid"}

#: Names importable from those modules that are themselves nondeterministic.
_NONDET_IMPORTS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "random", "randrange", "randint",
    "choice", "shuffle", "uniform", "token_bytes", "token_hex", "uuid4",
    "uuid1", "getrandbits",
}

_PRAGMA = re.compile(r"#\s*sanity:\s*allow\(([a-z\-,\s]+)\)")

#: Every rule this lint can emit (the ``checks`` list of the
#: ``repro.findings/1`` document ``repro lint --json`` writes).
LINT_RULES = ("bare-mutation", "unsync-iteration", "wall-clock")


@dataclass(frozen=True)
class LintFinding:
    """One lint violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _allowed_rules(source_lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed by a pragma on the given 1-based line."""
    if 1 <= lineno <= len(source_lines):
        m = _PRAGMA.search(source_lines[lineno - 1])
        if m:
            return {r.strip() for r in m.group(1).split(",")}
    return set()


#: Calls that produce a shared map: either class by name, or the
#: ``rt.make_map(...)`` factory every construction site goes through.
_MAP_CTORS = {"ConcurrentHashMap", "SingleWriterMap", "make_map"}


def _is_conchash_ctor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else (
        fn.attr if isinstance(fn, ast.Attribute) else None)
    return name in _MAP_CTORS


def _collect_conchash_attrs(trees: dict[Path, ast.AST]) -> set[str]:
    """Attribute names ever assigned a ConcurrentHashMap, tree-wide."""
    attrs: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_conchash_ctor(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute):
                        attrs.add(tgt.attr)
                    elif isinstance(tgt, ast.Name):
                        attrs.add(tgt.id)
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                    and _is_conchash_ctor(node.value)):
                if isinstance(node.target, ast.Attribute):
                    attrs.add(node.target.attr)
                elif isinstance(node.target, ast.Name):
                    attrs.add(node.target.id)
    return attrs


def _receiver_name(node: ast.expr) -> str | None:
    """The terminal name of an attribute/name expression, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str, source_lines: list[str],
                 conchash_attrs: set[str], worker_path: bool):
        self.rel_path = rel_path
        self.lines = source_lines
        self.conchash = conchash_attrs
        self.worker_path = worker_path
        self.findings: list[LintFinding] = []
        #: names imported from nondeterministic modules in this file
        self.nondet_names: set[str] = set()
        #: per-function map of local names bound to `<conchash>.get(...)`
        self._got_vars: list[dict[str, int]] = []
        #: scope stack of local names bound to a ConcurrentHashMap
        #: (ctor call or alias of a known map attribute); a bare Name
        #: receiver is only treated as a map if bound here, so a plain
        #: dict that shares a name with a map attribute is not flagged.
        self._map_vars: list[set[str]] = [set()]

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule in _allowed_rules(self.lines, lineno):
            return
        self.findings.append(
            LintFinding(rule, self.rel_path, lineno, message))

    # ------------------------------------------------------------- imports

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _NONDET_MODULES:
            for alias in node.names:
                if alias.name in _NONDET_IMPORTS:
                    self.nondet_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ----------------------------------------------------------- functions

    def _visit_func(self, node: ast.AST) -> None:
        self._got_vars.append({})
        self._map_vars.append(set())
        self.generic_visit(node)
        self._map_vars.pop()
        self._got_vars.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func
    visit_Lambda = _visit_func

    # --------------------------------------------------------------- calls

    def _is_conchash_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self.conchash
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._map_vars)
        return False

    def _binds_conchash(self, value: ast.expr) -> bool:
        """True when assigning ``value`` binds a ConcurrentHashMap."""
        if _is_conchash_ctor(value):
            return True
        # Alias of a known map attribute: `m = parser.functions`.
        return (isinstance(value, ast.Attribute)
                and value.attr in self.conchash)

    def _is_get_from_conchash(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and self._is_conchash_expr(node.func.value))

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._got_vars and self._is_get_from_conchash(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self._got_vars[-1][tgt.id] = node.lineno
        if self._binds_conchash(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self._map_vars[-1].add(tgt.id)
        for tgt in node.targets:
            self._check_mutation_target(tgt, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            if self._got_vars and self._is_get_from_conchash(node.value):
                self._got_vars[-1][node.target.id] = node.lineno
            if self._binds_conchash(node.value):
                self._map_vars[-1].add(node.target.id)
        self._check_mutation_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target, node)
        self.generic_visit(node)

    def _check_mutation_target(self, tgt: ast.expr, node: ast.AST) -> None:
        """Flag `v.attr = ...` / `v[i] = ...` where v came from get()."""
        inner = tgt
        if isinstance(inner, (ast.Attribute, ast.Subscript)):
            base = inner.value
            if (isinstance(base, ast.Name) and self._got_vars
                    and base.id in self._got_vars[-1]):
                self._flag(
                    "bare-mutation", node,
                    f"mutation of {base.id!r} obtained from a lock-free "
                    f"ConcurrentHashMap.get() (line "
                    f"{self._got_vars[-1][base.id]}); use an accessor "
                    f"scope instead")
            elif self._is_get_from_conchash(base):
                self._flag(
                    "bare-mutation", node,
                    "mutation of a ConcurrentHashMap.get() result; use "
                    "an accessor scope instead")

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            # unsync-iteration: conchash.items()/keys()/values()
            if (fn.attr in _UNSYNC_ITERS
                    and self._is_conchash_expr(fn.value)):
                self._flag(
                    "unsync-iteration", node,
                    f"unsynchronized iteration via .{fn.attr}() on "
                    f"ConcurrentHashMap {_receiver_name(fn.value)!r}; use "
                    f"items_snapshot()/snapshot()/sorted_items()")
            # bare-mutation: mutator call on a get() result
            if fn.attr in _MUTATORS:
                base = fn.value
                if (isinstance(base, ast.Name) and self._got_vars
                        and base.id in self._got_vars[-1]):
                    self._flag(
                        "bare-mutation", node,
                        f"mutator .{fn.attr}() on {base.id!r} obtained "
                        f"from a lock-free ConcurrentHashMap.get(); use "
                        f"an accessor scope instead")
                elif self._is_get_from_conchash(base):
                    self._flag(
                        "bare-mutation", node,
                        f"mutator .{fn.attr}() on a "
                        f"ConcurrentHashMap.get() result; use an "
                        f"accessor scope instead")
            # wall-clock: time.*/random.*/datetime.now in worker paths
            if self.worker_path:
                base = fn.value
                if (isinstance(base, ast.Name)
                        and base.id in _NONDET_MODULES):
                    self._flag(
                        "wall-clock", node,
                        f"nondeterministic call {base.id}.{fn.attr}() in "
                        f"a worker code path")
                elif (isinstance(base, ast.Name) and base.id == "datetime"
                        and fn.attr in ("now", "utcnow", "today")):
                    self._flag(
                        "wall-clock", node,
                        f"wall-clock call datetime.{fn.attr}() in a "
                        f"worker code path")
        elif (self.worker_path and isinstance(fn, ast.Name)
                and fn.id in self.nondet_names):
            self._flag(
                "wall-clock", node,
                f"nondeterministic call {fn.id}() in a worker code path")
        self.generic_visit(node)


#: Modules that execute on worker code paths (tasks / shard workers),
#: where the determinism rule applies.  Everything under core/ runs
#: inside parse tasks; conchash is on every map operation's path;
#: everything under analyses/ runs inside SCC units shipped to the
#: procs pool (the findings sidecar is byte-pinned across backends).
_WORKER_PATH_PARTS = ("core", "conchash.py", "analyses")


def _is_worker_path(rel_path: str) -> bool:
    parts = rel_path.replace("\\", "/").split("/")
    return any(p in _WORKER_PATH_PARTS for p in parts)


def run_lint(paths: list[Path] | None = None,
             root: Path | None = None) -> list[LintFinding]:
    """Lint python files; returns findings sorted by (path, line, rule).

    ``paths`` defaults to the ``src/repro`` tree containing this file.
    ``root`` anchors the relative paths used in reports.
    """
    if paths is None:
        paths = [Path(__file__).resolve().parents[1]]  # src/repro
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    if root is None:
        try:
            root = Path(__file__).resolve().parents[2]  # src/
        except IndexError:  # pragma: no cover
            root = Path.cwd()

    trees: dict[Path, ast.AST] = {}
    sources: dict[Path, list[str]] = {}
    for f in files:
        text = f.read_text()
        trees[f] = ast.parse(text, filename=str(f))
        sources[f] = text.splitlines()

    conchash_attrs = _collect_conchash_attrs(trees)
    findings: list[LintFinding] = []
    for f, tree in trees.items():
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = f.name
        rel = rel.replace("\\", "/")
        if rel.endswith("runtime/conchash.py"):
            # The map implementation itself iterates its own shards.
            worker = _is_worker_path(rel)
            linter = _FileLinter(rel, sources[f], set(), worker)
        else:
            linter = _FileLinter(rel, sources[f], conchash_attrs,
                                 _is_worker_path(rel))
        linter.visit(tree)
        findings.extend(linter.findings)
    return sorted(findings, key=lambda x: (x.path, x.line, x.rule))
