"""One schema layer: every versioned JSON sidecar, stated as a table.

The repository's results are six JSON documents — run report, metrics
snapshot, race sweep, fuzz campaign report, corpus report, findings —
and this module is the one executable statement of what each holds:

- a small spec vocabulary (:class:`Num`, :class:`Is`, :class:`OneOf`,
  :class:`Nullable`, :class:`ListOf`, :class:`MapOf`, :class:`Obj`
  with :class:`Opt` / :data:`BANNED` fields, :class:`Doc`) and one
  recursive walker that reports every violation as ``"<json path> must
  be <what> (got <value>)"`` and never raises, whatever it is handed;
- :data:`SCHEMAS`, one entry per schema id — the only place a field
  name is written (``tests/test_docs.py`` holds the docs tables to it,
  ``tests/test_schema.py`` the producers);
- one short cross-check hook per schema for what a table cannot say
  (counts that must agree, orderings, references between fields), run
  only on a document whose shape already passed, so a hook may index
  without guarding;
- :func:`validate`, :func:`to_json` for a record held as a dataclass,
  and :func:`canonical_bytes` / :func:`write_sidecar` for the one byte
  form every sidecar is written in.

A leaf module: it imports nothing from ``repro``, so every producer
takes its schema id and enumerations from here.  Unknown extra keys
are accepted everywhere except in a finding record (``exact``).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache, partial
from typing import Any

# ------------------------------------------------- ids and enumerations

RUN_REPORT_SCHEMA = "repro.run-report/1"
METRICS_SCHEMA = "repro.metrics/1"
RACES_SCHEMA = "repro.races/1"
FUZZ_REPORT_SCHEMA = "repro.fuzz-report/1"
#: A pinned fuzz-corpus case; the report embeds minimized repros as such.
FUZZ_CASE_SCHEMA = "repro.fuzz-case/1"
CORPUS_REPORT_SCHEMA = "repro.corpus-report/1"
FINDINGS_SCHEMA = "repro.findings/1"

#: Names accepted by ``make_runtime`` (and the CLI ``--backend``).
BACKENDS = ("vtime", "threads", "serial", "procs")
#: Backends a corpus run schedules binaries on.
CORPUS_BACKENDS = ("procs", "serial")
#: The procs degradation levels: none, or the ladder's serial rung.
DEGRADATION_LEVELS = ("none", "serial")
#: Race kinds the happens-before detector reports.
RACE_KINDS = ("read-write", "write-read", "write-write")
#: Known producers of findings documents.
FINDINGS_GENERATORS = ("checkers", "groundtruth", "lint")


# ----------------------------------------------------- spec vocabulary
#
# A spec says what one JSON value must be: ``what`` names it in a
# problem, ``accepts`` judges the value itself, and the walker descends
# into what a container holds.  Plain classes: nothing compares or
# hashes a spec, and every producer pays for this module's import.

def is_int(v: Any) -> bool:
    """A JSON integer: ``true`` / ``false`` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v: Any) -> bool:
    """A JSON number a float can hold: no ``NaN``, no ``Infinity``, so
    a hook may do arithmetic on it."""
    return ((is_int(v) or isinstance(v, float))
            and abs(v) <= sys.float_info.max)


class Num:
    """A number (an int when ``integral``), optionally bounded below."""

    def __init__(self, lo: float | None = None, *,
                 integral: bool = False) -> None:
        self.lo, self.integral = lo, integral
        self.what = "an int" if integral else "a finite number"
        if lo is not None:
            self.what += f" >= {lo}"

    def accepts(self, v: Any) -> bool:
        if not (is_int(v) if self.integral else is_num(v)):
            return False
        return self.lo is None or v >= self.lo


class Is:
    """An instance of one JSON scalar type."""

    def __init__(self, type_: type, what: str) -> None:
        self.type, self.what = type_, what

    def accepts(self, v: Any) -> bool:
        return isinstance(v, self.type)


class OneOf:
    """One of a fixed set of strings (a single one: a schema id)."""

    def __init__(self, *values: str) -> None:
        self.values = values
        self.what = (repr(values[0]) if len(values) == 1
                     else f"one of {values!r}")

    def accepts(self, v: Any) -> bool:
        return isinstance(v, str) and v in self.values


class Nullable:
    """``null`` or the inner spec.  The key must still be present."""

    def __init__(self, spec: Any) -> None:
        self.spec, self.what = spec, f"{spec.what} or null"


class ListOf:
    """A list, every item matching ``item`` (``None``: unchecked)."""

    def __init__(self, item: Any = None, *, min_len: int = 0,
                 length: int | None = None) -> None:
        self.item, self.min_len, self.length = item, min_len, length
        self.what = (f"a {length}-element list" if length is not None
                     else "a non-empty list" if min_len else "a list")

    def accepts(self, v: Any) -> bool:
        return (isinstance(v, list) and len(v) >= self.min_len
                and self.length in (None, len(v)))


class _JsonObject:
    what = "an object"

    def accepts(self, v: Any) -> bool:
        return isinstance(v, dict)


class MapOf(_JsonObject):
    """An object with arbitrary string keys, every value matching."""

    def __init__(self, value: Any) -> None:
        self.value = value


class Obj(_JsonObject):
    """An object with named fields; unnamed keys pass unless ``exact``."""

    def __init__(self, *, exact: bool = False, **fields: Any) -> None:
        self.exact, self.fields = exact, fields


class Opt:
    """Marks an :class:`Obj` field that may be absent."""

    def __init__(self, spec: Any) -> None:
        self.spec = spec


#: Marks an :class:`Obj` field that must not appear.
BANNED = object()


class Doc:
    """An embedded document with its own :data:`SCHEMAS` entry and hook."""

    def __init__(self, schema_id: str) -> None:
        self.schema_id, self.what = schema_id, f"a {schema_id} document"


def _show(v: Any) -> str:
    text = repr(v)
    return text if len(text) <= 60 else text[:57] + "..."


def check(v: Any, spec: Any, path: str = "$") -> Iterator[str]:
    """Every way ``v`` violates ``spec``, each naming its JSON path."""
    kind = type(spec)
    if kind is Nullable:
        if v is not None:
            yield from check(v, spec.spec, path)
    elif kind is Doc:
        # Its problems carry its own paths, prefixed by where it sits.
        yield from (f"{path[2:]}: {e}" for e in validate(v, spec.schema_id))
    elif not spec.accepts(v):
        yield f"{path} must be {spec.what} (got {_show(v)})"
    elif kind is ListOf and spec.item is not None:
        for i, item in enumerate(v):
            yield from check(item, spec.item, f"{path}[{i}]")
    elif kind is MapOf:
        for k, item in v.items():
            if isinstance(k, str):
                yield from check(item, spec.value, f"{path}.{k}")
            else:
                yield f"{path} key {k!r} must be a string"
    elif kind is Obj:
        for k, sub in spec.fields.items():
            if sub is BANNED:
                if k in v:
                    yield f"{path}.{k} must not appear"
            elif k in v:
                yield from check(
                    v[k], sub.spec if type(sub) is Opt else sub, f"{path}.{k}")
            elif type(sub) is not Opt:
                yield f"{path}.{k} must be {sub.what} (missing)"
        if spec.exact:
            for k in sorted(v.keys() - spec.fields.keys(), key=str):
                yield (f"{path}.{k} must not appear (fields are exactly "
                       f"{sorted(spec.fields)})")


# ------------------------------------------------------------ the table

STR = Is(str, "a string")
BOOL = Is(bool, "a bool")
INT = Num(integral=True)
INT0 = Num(0, integral=True)
INT1 = Num(1, integral=True)
NUM0 = Num(0)

_HISTOGRAM = Obj(count=INT0, sum=INT, min=Nullable(INT), max=Nullable(INT),
                 buckets=MapOf(INT0))

_TRACE = Obj(
    n_workers=INT1,
    intervals=ListOf(Obj(worker=INT0, start=INT, end=INT, tag=STR)),
    phases=ListOf(Obj(name=STR, start=INT, end=INT)))

#: One finding: every field always present, ``null`` = not applicable.
_FINDING = Obj(exact=True, rule=STR, detail=STR, binary=Nullable(STR),
               function=Nullable(STR), address=Nullable(INT),
               path=Nullable(STR), line=Nullable(INT))

#: The per-finding fields, in record order.
FINDING_FIELDS = tuple(_FINDING.fields)

#: One corpus binary.  Every column is present on every row; the hook
#: holds an ``ok`` row to non-null results and a quarantined one to a
#: ``reason`` and no digest.
_CORPUS_ROW = Obj(
    index=INT0, name=STR, preset=STR, status=OneOf("ok", "quarantined"),
    backend=Nullable(OneOf(*CORPUS_BACKENDS)), attempt=INT0,
    digest=Nullable(STR), serial_digest=Opt(Nullable(STR)),
    latency_s=Nullable(NUM0), functions=Nullable(INT0),
    blocks=Nullable(INT0), edges=Nullable(INT0),
    degraded=Opt(Nullable(OneOf(*DEGRADATION_LEVELS))),
    failures=ListOf(), reason=Opt(STR), error=Opt(STR))

#: What the report needs of an embedded ``repro.fuzz-case/1`` document;
#: the rest of that format belongs to ``fuzz/specio.py``'s loader.
_FUZZ_CASE = Obj(schema=OneOf(FUZZ_CASE_SCHEMA),
                 spec=Obj(functions=ListOf()))

_REDUCE = Obj(attempts=INT0, accepted=INT0,
              size_before=ListOf(INT0, length=2),
              size_after=ListOf(INT0, length=2))

SCHEMAS: dict[str, Obj] = {
    RUN_REPORT_SCHEMA: Obj(
        schema=OneOf(RUN_REPORT_SCHEMA), backend=OneOf(*BACKENDS),
        workload=Nullable(STR), n_workers=INT1, time_unit=STR,
        makespan=NUM0, metrics=Nullable(Doc(METRICS_SCHEMA)),
        trace=Nullable(_TRACE),
        fault_events=Opt(ListOf(Obj(kind=STR, shard=Nullable(INT),
                                    attempt=INT0, action=STR,
                                    reason=STR))),
        degradation=Opt(Obj(level=OneOf(*DEGRADATION_LEVELS),
                            steps=ListOf(STR))),
        races=Opt(Nullable(Doc(RACES_SCHEMA)))),
    METRICS_SCHEMA: Obj(
        schema=OneOf(METRICS_SCHEMA), time_unit=STR, counters=MapOf(INT),
        histograms=MapOf(_HISTOGRAM)),
    RACES_SCHEMA: Obj(
        schema=OneOf(RACES_SCHEMA), workload=STR, n_workers=INT0,
        seeds=ListOf(Nullable(INT)), schedules=INT0, events=INT0,
        findings=ListOf(Obj(location=STR, kind=OneOf(*RACE_KINDS),
                            sites=ListOf(STR, length=2), count=INT1,
                            first_seed=Nullable(INT)))),
    FUZZ_REPORT_SCHEMA: Obj(
        schema=OneOf(FUZZ_REPORT_SCHEMA), seed=INT, runs=INT1,
        presets=ListOf(STR, min_len=1), axes=ListOf(STR, min_len=1),
        minimize=BOOL,
        cases=ListOf(Obj(
            index=INT0, preset=STR, case_seed=INT, binary=STR,
            reference=STR, reference_digest=STR, digests=MapOf(STR),
            failing=ListOf(STR), findings=MapOf(ListOf(Obj())))),
        divergences=ListOf(Obj(
            index=INT0, preset=Opt(STR), case_seed=Opt(INT),
            binary=Opt(STR), failing=ListOf(STR, min_len=1),
            minimized=Nullable(_FUZZ_CASE), reduce=Nullable(_REDUCE))),
        summary=Obj(cases=INT0, diverged=INT0, failing_axes=ListOf(STR),
                    sanity_findings=INT0)),
    CORPUS_REPORT_SCHEMA: Obj(
        schema=OneOf(CORPUS_REPORT_SCHEMA),
        corpus=Obj(seed=INT, count=INT1, presets=ListOf(STR, min_len=1),
                   n_functions=Opt(Nullable(INT)), attempts=INT1,
                   verify=BOOL, backend=OneOf(*CORPUS_BACKENDS),
                   procs_workers=Opt(Nullable(INT)), window=INT1),
        binaries=ListOf(_CORPUS_ROW),
        summary=Obj(count=INT0, completed=INT0, quarantined=INT0),
        latency=Obj(count=INT0, mean_s=NUM0, p50_s=NUM0, p90_s=NUM0,
                    p99_s=NUM0, max_s=NUM0, total_s=NUM0),
        throughput=Obj(total_analysis_s=NUM0, binaries_per_second=NUM0),
        degradation=Obj(serial_binaries=INT0),
        quarantine=Obj(
            count=INT0, reasons=MapOf(INT),
            entries=ListOf(Obj(index=INT, name=Opt(STR), preset=Opt(STR),
                               reason=STR, attempts=Opt(INT0),
                               path=STR)))),
    FINDINGS_SCHEMA: Obj(
        schema=OneOf(FINDINGS_SCHEMA),
        generator=OneOf(*FINDINGS_GENERATORS),
        checks=ListOf(STR, min_len=1), subject=Obj(),
        findings=ListOf(_FINDING),
        summary=Obj(findings=INT0, by_rule=MapOf(INT0)),
        # The byte form is pinned across backends and worker counts.
        backend=BANNED, workers=BANNED, n_workers=BANNED, runtime=BANNED),
}


# ---------------------------------------------------- cross-check hooks

def _agree(path: str, got: Any, source: str, want: Any) -> list[str]:
    """``path`` holds ``got``; ``source`` says it should be ``want``."""
    if got == want:
        return []
    return [f"{path} must be {source} = {want!r} (got {_show(got)})"]


def _check_run_report(doc: dict) -> Iterator[str]:
    metrics = doc["metrics"]
    if metrics is not None:  # one clock per runtime
        yield from _agree("$.metrics.time_unit", metrics["time_unit"],
                          "$.time_unit", doc["time_unit"])
    trace = doc["trace"]
    if trace is None:
        return
    n = trace["n_workers"]
    for i, iv in enumerate(trace["intervals"]):
        if iv["worker"] >= n:
            yield (f"$.trace.intervals[{i}].worker must be < n_workers "
                   f"= {n} (got {iv['worker']})")
    for key in ("intervals", "phases"):
        for i, span in enumerate(trace[key]):
            if span["start"] > span["end"]:
                yield (f"$.trace.{key}[{i}] must have start <= end "
                       f"(got {span['start']} > {span['end']})")


def _check_metrics(doc: dict) -> Iterator[str]:
    for name, hist in doc["histograms"].items():
        path = f"$.histograms.{name}.buckets"
        for key in hist["buckets"]:
            if not key.isdigit():
                yield f"{path} key {key!r} must be a decimal string"
        yield from _agree(f"{path} total", sum(hist["buckets"].values()),
                          "count", hist["count"])


def _check_races(doc: dict) -> Iterator[str]:
    yield from _agree("$.schedules", doc["schedules"], "len(seeds)",
                      len(doc["seeds"]))


def _check_fuzz_report(doc: dict) -> Iterator[str]:
    cases, divs, summary = doc["cases"], doc["divergences"], doc["summary"]
    if len(cases) != doc["runs"]:
        yield (f"$.cases must hold runs = {doc['runs']} case rows "
               f"(got {len(cases)})")
    for i, c in enumerate(cases):
        path = f"$.cases[{i}]"
        yield from _agree(f"{path}.index", c["index"], "its position", i)
        if c["preset"] not in doc["presets"]:
            yield (f"{path}.preset must be one of $.presets "
                   f"(got {c['preset']!r})")
        yield from _agree(f"{path}.reference_digest", c["reference_digest"],
                          f"digests[{c['reference']!r}]",
                          c["digests"].get(c["reference"]))
        for axis in c["failing"]:
            if axis not in doc["axes"]:
                yield f"{path}.failing must name $.axes (got {axis!r})"
    for i, d in enumerate(divs):
        if d["index"] >= len(cases):
            yield (f"$.divergences[{i}].index must be < {len(cases)} case "
                   f"rows (got {d['index']})")
    yield from _agree("$.summary.cases", summary["cases"], "len(cases)",
                      len(cases))
    yield from _agree("$.summary.diverged", summary["diverged"],
                      "len(divergences)", len(divs))


def _check_corpus_report(doc: dict) -> Iterator[str]:
    rows, quarantine = doc["binaries"], doc["quarantine"]
    n = {"ok": 0, "quarantined": 0}
    for i, row in enumerate(rows):
        path = f"$.binaries[{i}]"
        n[row["status"]] += 1
        yield from _agree(f"{path}.index", row["index"], "its position", i)
        if row["status"] == "ok":
            for k in ("backend", "digest", "latency_s", "functions",
                      "blocks", "edges"):
                if row[k] is None:
                    yield f"{path}.{k} must not be null on an ok row"
            if row["attempt"] < 1:
                yield (f"{path}.attempt must be an int >= 1 on an ok row "
                       f"(got {row['attempt']})")
        else:
            if "reason" not in row:
                yield f"{path}.reason must be a string (missing)"
            if row["digest"] is not None:
                yield (f"{path}.digest must be null on a quarantined row "
                       f"(got {row['digest']!r})")
    summary, count = doc["summary"], ("corpus.count", doc["corpus"]["count"])
    ok = ("the ok rows", n["ok"])
    bad = ("the quarantined rows", n["quarantined"])
    for path, got, (source, want) in (
            ("$.binaries length", len(rows), count),
            ("$.summary.count", summary["count"], count),
            ("$.summary.completed", summary["completed"], ok),
            ("$.summary.quarantined", summary["quarantined"], bad),
            ("$.latency.count", doc["latency"]["count"], ok),
            ("$.quarantine.count", quarantine["count"], bad),
            ("$.quarantine.reasons total",
             sum(quarantine["reasons"].values()), bad),
            ("$.quarantine.entries length", len(quarantine["entries"]),
             bad)):
        yield from _agree(path, got, source, want)


def _check_findings(doc: dict) -> Iterator[str]:
    # repro.analyses takes its constants from this module.
    from repro.analyses.findings import finding_sort_key

    checks, findings = doc["checks"], doc["findings"]
    if checks != sorted(checks):
        yield "$.checks must be sorted"
    by_rule: dict[str, int] = {}
    for i, f in enumerate(findings):
        if f["rule"] not in checks:
            yield (f"$.findings[{i}].rule must be one of $.checks "
                   f"(got {f['rule']!r})")
        by_rule[f["rule"]] = by_rule.get(f["rule"], 0) + 1
    keys = [finding_sort_key(f) for f in findings]
    if keys != sorted(keys):
        yield "$.findings must be in canonical sort order"
    yield from _agree("$.summary.findings", doc["summary"]["findings"],
                      "len(findings)", len(findings))
    yield from _agree("$.summary.by_rule", doc["summary"]["by_rule"],
                      "the findings per rule", by_rule)


_HOOKS = {
    RUN_REPORT_SCHEMA: _check_run_report,
    METRICS_SCHEMA: _check_metrics,
    RACES_SCHEMA: _check_races,
    FUZZ_REPORT_SCHEMA: _check_fuzz_report,
    CORPUS_REPORT_SCHEMA: _check_corpus_report,
    FINDINGS_SCHEMA: _check_findings,
}


# ---------------------------------------------------------- entry points

def validate(doc: Any, schema_id: str) -> list[str]:
    """Problems with ``doc`` as a ``schema_id`` document; empty = valid.

    Never raises on ``doc``: whatever was read from disk, the answer is
    a list.  The cross-check hook runs only once the shape is clean.
    """
    errs = list(check(doc, SCHEMAS[schema_id]))
    if not errs:
        errs.extend(_HOOKS[schema_id](doc))
    return errs


validate_report = partial(validate, schema_id=RUN_REPORT_SCHEMA)
validate_races = partial(validate, schema_id=RACES_SCHEMA)
validate_fuzz_report = partial(validate, schema_id=FUZZ_REPORT_SCHEMA)
validate_corpus_report = partial(validate, schema_id=CORPUS_REPORT_SCHEMA)
validate_findings = partial(validate, schema_id=FINDINGS_SCHEMA)


_JSON_SCALARS = (int, float, str, bool, type(None))


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def to_json(v: Any) -> Any:
    """The JSON value of a dataclass record: its fields in definition
    order, enums as values, sets sorted.  Unlike ``dataclasses.asdict``
    it shares leaves, and it stores a scalar without a call: the fuzz
    reducer clones a spec through it for every candidate."""
    t = type(v)
    if t is list or t is tuple:
        return [x if type(x) in _JSON_SCALARS else to_json(x) for x in v]
    names = _field_names(t)
    if names is not None:
        return {k: x if type(x := getattr(v, k)) in _JSON_SCALARS
                else to_json(x) for k in names}
    if isinstance(v, Enum):
        return v.value
    return sorted(v) if isinstance(v, (set, frozenset)) else v


def canonical_bytes(doc: dict) -> bytes:
    """The canonical byte form every sidecar is written in."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def write_sidecar(doc: Any, schema_id: str, path: Any = None) -> bytes:
    """Validate ``doc``, write it to ``path`` if given, return its bytes.

    Raises :class:`ValueError` listing every problem; nothing is written
    for an invalid document.
    """
    problems = validate(doc, schema_id)
    if problems:
        raise ValueError(f"{schema_id} document is invalid: {problems}")
    data = canonical_bytes(doc)
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
    return data
