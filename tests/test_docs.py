"""Documentation checks: links resolve, the metrics catalog is complete,
the schema tables match ``repro.schema``."""

import re
from pathlib import Path

import pytest

from repro.apps.hpcstruct import hpcstruct
from repro.runtime import VirtualTimeRuntime
from repro.schema import (
    BANNED,
    METRICS_SCHEMA,
    RUN_REPORT_SCHEMA,
    SCHEMAS,
    Opt,
)
from repro.synth import tiny_binary

REPO = Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    [REPO / "README.md"] + list((REPO / "docs").glob("*.md")))

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links: {broken}"


class TestMetricsCatalog:
    """docs/OBSERVABILITY.md must list every metric the library emits."""

    @pytest.fixture(scope="class")
    def emitted_names(self):
        # One instrumented end-to-end run covers the parser, finalizer,
        # noreturn machinery, symbol table, maps, locks, and phases.
        sb = tiny_binary()
        rt = VirtualTimeRuntime(8, enable_trace=True)
        hpcstruct(sb.binary, rt)
        return set(rt.metrics.names())

    @pytest.fixture(scope="class")
    def catalog_text(self):
        return (REPO / "docs" / "OBSERVABILITY.md").read_text()

    @staticmethod
    def _normalize(name):
        """Fold per-instance names onto their catalog placeholder."""
        m = re.match(r"^map\.(.+)\.([a-z_]+)$", name)
        if m:
            return f"map.<name>.{m.group(2)}", m.group(1)
        if name.startswith("phase."):
            return "phase.<name>", None
        return name, None

    def test_every_emitted_metric_is_documented(self, emitted_names,
                                                catalog_text):
        missing = []
        for name in sorted(emitted_names):
            normalized, _ = self._normalize(name)
            if f"`{normalized}`" not in catalog_text:
                missing.append(name)
        assert not missing, (
            "metrics emitted but not in docs/OBSERVABILITY.md catalog: "
            f"{missing}")

    def test_every_documented_metric_is_emittable(self, catalog_text):
        """The other direction: a catalog row naming a metric nothing
        under ``src/repro`` can emit is stale.  Plain names must occur
        as string literals; enumerated families (``<placeholder>`` rows,
        ``procs.degraded_to.*``) as the literal prefix an f-string
        builds on, with the suffix in the tuple the code iterates."""
        from repro.runtime.procs import DEGRADATION_LEVELS

        catalog = catalog_text.split("\n## Metrics catalog\n")[1] \
            .split("\n## ")[0]
        source = "\n".join(
            path.read_text()
            for path in sorted((REPO / "src" / "repro").rglob("*.py")))
        names = re.findall(r"^\| `([^`]+)` \|", catalog, re.M)
        assert len(names) > 50, "catalog rows not found"
        stale = []
        for name in names:
            prefix, _, suffix = name.rpartition(".")
            if "<" in name:
                ok = f'f"{name.split("<")[0]}{{' in source
            elif prefix == "procs.degraded_to":
                ok = (suffix in DEGRADATION_LEVELS
                      and f'f"{prefix}.{{' in source)
            else:
                ok = f'"{name}"' in source
            if not ok:
                stale.append(name)
        assert not stale, (
            "metrics in the docs/OBSERVABILITY.md catalog that nothing "
            f"under src/repro emits: {stale}")
        assert '"workers."' in source  # the documented worker prefix

    def test_map_names_in_use_are_documented(self, emitted_names,
                                             catalog_text):
        map_names = {self._normalize(n)[1] for n in emitted_names
                     if n.startswith("map.")} - {None}
        undocumented = [n for n in sorted(map_names)
                        if f"`{n}`" not in catalog_text]
        assert not undocumented, (
            "map names not listed in the catalog: "
            f"{undocumented}")

    def test_run_exercises_the_main_catalog_sections(self, emitted_names):
        # Guard against the fixture silently degrading into a run that
        # emits nothing: the workload must touch each subsystem.
        for expected in ("rt.tasks_spawned", "lock.acquires",
                         "parser.blocks_created",
                         "finalize.tailcall_rounds",
                         "map.blocks.acquires"):
            assert expected in emitted_names


_REPORT, _METRICS = SCHEMAS[RUN_REPORT_SCHEMA], SCHEMAS[METRICS_SCHEMA]


class TestSchemaTables:
    """The docs' field tables and ``repro.schema.SCHEMAS`` say the same
    thing: the same fields, and the same ones optional."""

    @staticmethod
    def _documented(doc, heading):
        """``{field: type cell}`` of the first table after ``heading``."""
        text = (REPO / "docs" / doc).read_text().split(heading, 1)[1]
        rows: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("|"):
                cells = re.split(r"(?<!\\)\|", line.strip("|"))
                for field in re.findall(r"`([^`]+)`", cells[0]):
                    rows[field] = cells[1]
            elif rows:
                break
        return rows

    @pytest.mark.parametrize("doc, heading, spec", [
        ("OBSERVABILITY.md", "\n## Run-report JSON schema\n", _REPORT),
        ("OBSERVABILITY.md", "\n### `metrics` (schema id", _METRICS),
        ("OBSERVABILITY.md", "\nHistogram object:\n",
         _METRICS.fields["histograms"].value),
        ("OBSERVABILITY.md", "\n### `trace`\n", _REPORT.fields["trace"].spec),
    ], ids=["run-report", "metrics", "histogram", "trace"])
    def test_table_matches_schema(self, doc, heading, spec):
        documented = self._documented(doc, heading)
        table = {k: type(sub) is Opt for k, sub in spec.fields.items()
                 if sub is not BANNED}
        assert sorted(documented) == sorted(table), (
            f"docs/{doc} and SCHEMAS disagree on the fields after "
            f"{heading.strip()!r}")
        for field, optional in table.items():
            assert ("optional" in documented[field]) == optional, (
                f"docs/{doc}: {field} is "
                f"{'optional' if optional else 'required'} in SCHEMAS")
