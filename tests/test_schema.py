"""The schema layer (``repro.schema``), tested by mutation.

One producer-made document per schema id; every leaf of each is
deleted and replaced by a value of every other JSON type.  Whatever
comes back, :func:`~repro.schema.validate` returns a list — it never
raises — and a mutant that breaks the field's declared type or bound
is rejected with a problem naming that path.  Two coverage checks hold
the table to the producers, key by key, in both directions.  Needs no
hypothesis: the sweep is exhaustive, not sampled.
"""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import pytest

from repro.core.parallel_parser import parse_binary
from repro.runtime import ProcsRuntime
from repro.runtime.faults import FaultPlan
from repro.runtime.tracefmt import run_report
from repro.schema import (
    CORPUS_REPORT_SCHEMA,
    FINDINGS_SCHEMA,
    FUZZ_REPORT_SCHEMA,
    METRICS_SCHEMA,
    RACES_SCHEMA,
    RUN_REPORT_SCHEMA,
    BANNED,
    SCHEMAS,
    Doc,
    ListOf,
    MapOf,
    Nullable,
    Obj,
    Opt,
    check,
    validate,
    validate_corpus_report,
    validate_findings,
    validate_fuzz_report,
    validate_races,
    validate_report,
    write_sidecar,
)
from repro.synth import tiny_binary
# Fixture modules, not their classes: pytest would collect those here.
from tests.analyses import test_findings as findings_fixture
from tests.corpus import test_driver as corpus_fixture
from tests.runtime import test_tracefmt as tracefmt_fixture

_DELETE = object()
#: What every leaf is replaced by: one value of each JSON type, plus
#: the out-of-bound and non-integral numbers.
REPLACEMENTS = (_DELETE, None, "x", -1, 1.5, True, [], {})

#: Embedded documents whose format another module owns — the table
#: states only what the embedding report relies on, so their other
#: keys are not the table's to name.  (``repro.fuzz-case/1``:
#: ``fuzz/specio.py`` and its loader.)
FOREIGN = ("$.divergences[0].minimized",)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``name -> (schema id, document)``, each made by its producer."""
    sweep = tracefmt_fixture.TestRacesValidator._swept_report()
    traced = tracefmt_fixture.TestJsonExport()._traced_run()
    faulted = ProcsRuntime(2, in_process=True,
                           fault_plan=FaultPlan.from_spec("exc@0x99"))
    parse_binary(tiny_binary().binary, faulted)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CORPUS_FAKE_CLOCK", "1")
        tmp = tmp_path_factory.mktemp("corpus")
        corpus_fixture._run(
            tmp, plan=FaultPlan.from_spec("binary-crash@1x99"))
        corpus = corpus_fixture._report(tmp)

    docs = {
        "traced": (RUN_REPORT_SCHEMA,
                   run_report(traced, workload="w", races=sweep)),
        "faulted": (RUN_REPORT_SCHEMA, run_report(faulted, workload="tiny")),
        "metrics": (METRICS_SCHEMA, traced.metrics.snapshot()),
        "races": (RACES_SCHEMA, sweep),
        "fuzz": (FUZZ_REPORT_SCHEMA,
                 tracefmt_fixture.TestFuzzReportSchema._campaign(
                     minimize=True)),
        "corpus": (CORPUS_REPORT_SCHEMA, corpus),
        "findings": (FINDINGS_SCHEMA,
                     findings_fixture.TestValidator()._doc()),
    }
    # What a consumer reads back from disk.
    return {name: (sid, json.loads(json.dumps(doc)))
            for name, (sid, doc) in docs.items()}


def _survey(v, spec, where, holder, key, required, out):
    """Walk a document and its spec together.

    Collects into ``out``: ``leaves`` — ``(where, holder, key, spec,
    required)`` per scalar or empty container, ``where`` spelled as
    :func:`validate` spells it and ``spec`` ``None`` where the table
    leaves the value open; ``unnamed`` — emitted keys the table does not
    name; ``seen`` — the keys met under each :class:`Obj`, by identity.
    """
    inner = spec.spec if type(spec) is Nullable else spec
    if type(inner) is Doc:
        where, inner = f"{where[2:]}: $", SCHEMAS[inner.schema_id]
    if isinstance(v, dict) and v and type(inner) in (Obj, MapOf):
        for k, item in v.items():
            if type(inner) is MapOf:
                sub, needed = inner.value, False
            else:
                out.seen.setdefault(id(inner), set()).add(k)
                sub = inner.fields.get(k)
                needed = sub is not None and type(sub) is not Opt
                if type(sub) is Opt:
                    sub = sub.spec
                if (sub is None and inner.fields
                        and not where.startswith(FOREIGN)):
                    out.unnamed.append(f"{where}.{k}")
            _survey(item, sub, f"{where}.{k}", v, k, needed, out)
    elif (isinstance(v, list) and v and type(inner) is ListOf
            and inner.item is not None):
        for i, item in enumerate(v):
            _survey(item, inner.item, f"{where}[{i}]", v, i, False, out)
    else:
        out.leaves.append((where, holder, key, spec, required))


def survey(doc, schema_id):
    out = SimpleNamespace(leaves=[], unnamed=[], seen={})
    _survey(doc, SCHEMAS[schema_id], "$", None, None, False, out)
    return out


def mutants(doc, schema_id):
    """Every single-leaf mutant of ``doc``, made in place and undone.

    Yields ``(where, replacement, must_reject)`` while the mutation is
    applied; ``must_reject`` says the mutant breaks what the table
    declares for that leaf (judged by the leaf's own spec).
    """
    for where, holder, key, spec, required in survey(doc, schema_id).leaves:
        old = holder[key]
        for new in REPLACEMENTS:
            if new is _DELETE:
                del holder[key]
                yield where, "delete", required
                if isinstance(holder, list):
                    holder.insert(key, old)
            elif type(new) is type(old) and new == old:
                continue
            else:
                holder[key] = copy.copy(new)
                yield (where, repr(new),
                       spec is not None and any(check(new, spec)))
            holder[key] = old


class TestMutationSweep:
    def test_unmutated_documents_validate(self, documents):
        for schema_id, doc in documents.values():
            assert validate(doc, schema_id) == [], schema_id

    def test_every_mutant_gets_a_verdict_and_bad_ones_a_path(
            self, documents):
        n = rejected = 0
        for schema_id, doc in documents.values():
            pristine = copy.deepcopy(doc)
            for where, new, must_reject in mutants(doc, schema_id):
                problems = validate(doc, schema_id)  # must not raise
                assert isinstance(problems, list)
                n += 1
                rejected += bool(problems)
                if must_reject:  # at that path, or a key it lacks
                    assert any(p.startswith(where) for p in problems), (
                        schema_id, where, new, problems)
            assert doc == pristine  # the sweep undid itself
        # The fixtures are not degenerate: thousands of mutants, most
        # of them caught.
        assert n > 3000 and rejected > n // 2, (n, rejected)

    def test_every_schema_id_has_a_document(self, documents):
        assert {sid for sid, _ in documents.values()} == set(SCHEMAS)


class TestTableCoversProducers:
    def test_every_emitted_key_is_named_by_the_table(self, documents):
        unnamed = {(sid, where) for sid, doc in documents.values()
                   for where in survey(doc, sid).unnamed}
        assert not unnamed, (
            f"keys a producer emits that SCHEMAS does not name: "
            f"{sorted(unnamed)}")

    def test_every_required_table_key_is_emitted(self, documents):
        seen: dict[int, set] = {}
        for sid, doc in documents.values():
            for spec_id, keys in survey(doc, sid).seen.items():
                seen.setdefault(spec_id, set()).update(keys)

        def objects(spec, where):
            if isinstance(spec, (Nullable, Opt)):
                yield from objects(spec.spec, where)
            elif isinstance(spec, ListOf) and spec.item is not None:
                yield from objects(spec.item, where + "[]")
            elif isinstance(spec, MapOf):
                yield from objects(spec.value, where + ".*")
            elif isinstance(spec, Obj):
                yield where, spec
                for k, sub in spec.fields.items():
                    yield from objects(sub, f"{where}.{k}")

        never = [f"{sid} {where}.{k}"
                 for sid, top in SCHEMAS.items()
                 for where, spec in objects(top, "$")
                 for k, sub in spec.fields.items()
                 if type(sub) is not Opt and sub is not BANNED
                 and k not in seen.get(id(spec), ())]
        assert not never, (
            f"required SCHEMAS keys no fixture document emits (mark "
            f"them Opt or fix the producer): {never}")


class TestReportsNotRaises:
    """The parent's validators raised on each of these."""

    def test_null_bucket_count(self, documents):
        doc = copy.deepcopy(documents["traced"][1])
        name = next(iter(doc["metrics"]["histograms"]))
        doc["metrics"]["histograms"][name]["buckets"] = {"1": None}
        problems = validate_report(doc)
        assert any(f"$.histograms.{name}.buckets.1 must be" in p
                   for p in problems), problems

    def test_finding_without_rule(self):
        doc = findings_fixture.TestValidator()._doc()
        del doc["findings"][1]["rule"]
        problems = validate_findings(doc)
        assert any(p.startswith("$.findings[1].rule") for p in problems)

    def test_unhashable_fuzz_reference(self):
        doc = tracefmt_fixture.TestFuzzReportSchema._campaign()
        doc["cases"][0]["reference"] = []
        problems = validate_fuzz_report(doc)
        assert any(p.startswith("$.cases[0].reference must be a string")
                   for p in problems), problems

    def test_number_no_float_can_hold(self, documents):
        # 10**400 parses as a JSON int; float arithmetic on it in a
        # hook would raise OverflowError.
        for huge in (10 ** 400, float("inf"), float("nan")):
            doc = copy.deepcopy(documents["traced"][1])
            doc["makespan"] = huge
            problems = validate_report(doc)
            assert any(p.startswith("$.makespan must be a finite number")
                       for p in problems), problems


class TestTrueIsNotAnInt:
    """The parent accepted each of these."""

    def test_run_report(self, documents):
        doc = copy.deepcopy(documents["traced"][1])
        doc["n_workers"] = True
        assert any(p.startswith("$.n_workers") for p in validate_report(doc))
        doc = copy.deepcopy(documents["traced"][1])
        doc["metrics"]["counters"]["x"] = True
        assert any("$.counters.x must be an int" in p
                   for p in validate_report(doc))


class TestAbsentIsNotNull:
    """A nullable field must be present; ``null`` itself still passes.
    The parent accepted every one of these with the key missing."""

    @staticmethod
    def _absent_then_null(doc, holder, key, validator):
        del holder[key]
        problems = validator(doc)
        assert any(f".{key} must be" in p and p.endswith("(missing)")
                   for p in problems), problems
        holder[key] = None
        assert validator(doc) == []

    def test_race_finding_first_seed(self):
        doc = tracefmt_fixture.TestRacesValidator._swept_report()
        self._absent_then_null(doc, doc["findings"][0], "first_seed",
                               validate_races)

    def test_fault_event_shard(self, documents):
        doc = copy.deepcopy(documents["faulted"][1])
        self._absent_then_null(doc, doc["fault_events"][0], "shard",
                               validate_report)

    def test_histogram_min(self, documents):
        doc = copy.deepcopy(documents["metrics"][1])
        hist = next(iter(doc["histograms"].values()))
        self._absent_then_null(
            doc, hist, "min", lambda d: validate(d, METRICS_SCHEMA))

    def test_quarantined_row_digest(self, documents):
        doc = copy.deepcopy(documents["corpus"][1])
        row = next(r for r in doc["binaries"]
                   if r["status"] == "quarantined")
        self._absent_then_null(doc, row, "digest", validate_corpus_report)


class TestWriteSidecar:
    def test_an_invalid_document_is_not_written(self, tmp_path):
        doc = findings_fixture.TestValidator()._doc()
        doc["generator"] = "elves"
        path = tmp_path / "f.json"
        with pytest.raises(ValueError, match=r"\$\.generator must be"):
            write_sidecar(doc, FINDINGS_SCHEMA, path)
        assert not path.exists()
