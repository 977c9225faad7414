"""Lint tests: rule units on synthetic files, pragmas, real-tree clean."""

import ast
from pathlib import Path

from repro.sanity.lint import LintFinding, _collect_conchash_attrs, run_lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _lint(tmp_path, source, name="mod.py", worker=False):
    """Lint one synthetic file; worker=True places it on a worker path."""
    d = tmp_path / "core" if worker else tmp_path
    d.mkdir(exist_ok=True)
    p = d / name
    p.write_text(source)
    return run_lint(paths=[p], root=tmp_path)


class TestUnsyncIteration:
    def test_items_on_local_map_is_flagged(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    for k, v in m.items():\n"
            "        pass\n"))
        assert [f.rule for f in fs] == ["unsync-iteration"]
        assert fs[0].line == 4

    def test_annotated_binding_is_tracked(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m: ConcurrentHashMap = ConcurrentHashMap(rt, name='x')\n"
            "    list(m.keys())\n"))
        assert [f.rule for f in fs] == ["unsync-iteration"]

    def test_map_attribute_iteration_is_flagged(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "class P:\n"
            "    def __init__(self, rt):\n"
            "        self.functions = ConcurrentHashMap(rt, name='f')\n"
            "    def walk(self):\n"
            "        return list(self.functions.values())\n"))
        assert [f.rule for f in fs] == ["unsync-iteration"]

    def test_factory_binding_is_tracked(self, tmp_path):
        """Maps come from ``rt.make_map``: attribute and local alike."""
        fs = _lint(tmp_path, (
            "class P:\n"
            "    def __init__(self, rt):\n"
            "        self.functions = rt.make_map('f')\n"
            "    def walk(self):\n"
            "        return list(self.functions.values())\n"
            "def w(rt):\n"
            "    m = rt.make_map('x')\n"
            "    return list(m.items())\n"))
        assert [(f.rule, f.line) for f in fs] == [
            ("unsync-iteration", 5), ("unsync-iteration", 8)]

    def test_plain_dict_with_same_name_is_not_flagged(self, tmp_path):
        fs = _lint(tmp_path, (
            "def agg(functions):\n"
            "    return sorted(functions.items())\n"))
        assert fs == []

    def test_snapshot_iteration_is_legal(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    return dict(m.items_snapshot())\n"))
        assert fs == []


class TestBareMutation:
    def test_attribute_assignment_on_get_result(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    rec = m.get(1)\n"
            "    rec.count = 2\n"))
        assert [f.rule for f in fs] == ["bare-mutation"]
        assert fs[0].line == 5

    def test_mutator_call_on_get_result(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    xs = m.get(1)\n"
            "    xs.append(3)\n"))
        assert [f.rule for f in fs] == ["bare-mutation"]

    def test_direct_chained_mutation(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    m.get(1)['k'] = 9\n"))
        assert [f.rule for f in fs] == ["bare-mutation"]

    def test_read_of_get_result_is_legal(self, tmp_path):
        fs = _lint(tmp_path, (
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    rec = m.get(1)\n"
            "    return rec.count if rec else 0\n"))
        assert fs == []

    def test_get_on_plain_dict_is_not_flagged(self, tmp_path):
        fs = _lint(tmp_path, (
            "def w(d):\n"
            "    rec = d.get(1)\n"
            "    rec.count = 2\n"))
        assert fs == []


class TestWallClock:
    def test_time_call_in_worker_path(self, tmp_path):
        fs = _lint(tmp_path, "import time\n\n"
                             "def f():\n"
                             "    return time.perf_counter_ns()\n",
                   worker=True)
        assert [f.rule for f in fs] == ["wall-clock"]

    def test_imported_name_in_worker_path(self, tmp_path):
        fs = _lint(tmp_path, "from random import randrange\n\n"
                             "def f():\n"
                             "    return randrange(4)\n",
                   worker=True)
        assert [f.rule for f in fs] == ["wall-clock"]

    def test_same_code_off_worker_path_is_legal(self, tmp_path):
        fs = _lint(tmp_path, "import time\n\n"
                             "def f():\n"
                             "    return time.perf_counter_ns()\n",
                   worker=False)
        assert fs == []


class TestPragmas:
    def test_pragma_suppresses_named_rule(self, tmp_path):
        fs = _lint(tmp_path, (
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # sanity: allow(wall-clock) reason\n"),
            worker=True)
        assert fs == []

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        fs = _lint(tmp_path, (
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # sanity: allow(bare-mutation)\n"),
            worker=True)
        assert [f.rule for f in fs] == ["wall-clock"]


class TestRealTree:
    def test_source_tree_is_lint_clean(self):
        findings = run_lint()
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_parser_maps_stay_under_the_accessor_rule(self):
        """Every shared table of the parser, the noreturn state and the
        symbol index is a known map binding — however it is built."""
        trees = {p: ast.parse(p.read_text())
                 for p in sorted(SRC.rglob("*.py"))}
        assert _collect_conchash_attrs(trees) >= {
            "blocks_by_start", "block_ends", "functions", "jump_tables",
            "_table", "master", "by_offset", "by_mangled", "by_pretty",
            "by_typed"}

    def test_findings_are_sorted_and_printable(self, tmp_path):
        fs = _lint(tmp_path, (
            "import time\n"
            "from repro.runtime.conchash import ConcurrentHashMap\n"
            "def w(rt):\n"
            "    m = ConcurrentHashMap(rt, name='x')\n"
            "    list(m.items())\n"
            "    return time.time()\n"), worker=True)
        assert fs == sorted(fs, key=lambda f: (f.path, f.line, f.rule))
        for f in fs:
            assert isinstance(f, LintFinding)
            assert str(f).count(":") >= 3  # path:line: rule: message

    def test_explicit_paths_accept_directories(self):
        findings = run_lint(paths=[SRC / "sanity"])
        assert findings == []
