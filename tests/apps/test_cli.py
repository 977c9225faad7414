"""CLI smoke tests."""

import json

import pytest

from repro.binary import BinaryImage, Section
from repro.binary import format as fmt
from repro.cli import main
from repro.synth import tiny_binary


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def exit_status(*argv):
    """What the shell sees: ``main``'s return value, or the status
    argparse exits with when it rejects the command line itself."""
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


class TestCli:
    def test_synth_tiny(self, capsys):
        rc, out = run_cli(capsys, "synth", "tiny")
        assert rc == 0
        assert out["symbols"] > 0
        assert out["text_bytes"] > 0

    def test_synth_save_and_parse_file(self, capsys, tmp_path):
        path = str(tmp_path / "t.sbin")
        rc, out = run_cli(capsys, "synth", "tiny", "--output", path)
        assert rc == 0 and out["saved_to"] == path
        rc, out = run_cli(capsys, "parse", path, "-j", "2")
        assert rc == 0
        assert out["functions"] > 10
        assert out["makespan_cycles"] > 0

    def test_parse_preset(self, capsys):
        rc, out = run_cli(capsys, "parse", "tiny", "-j", "4")
        assert rc == 0
        assert out["workers"] == 4
        assert out["blocks"] > out["functions"]

    def test_parse_serial_runtime(self, capsys):
        rc, out = run_cli(capsys, "parse", "tiny", "--runtime", "serial")
        assert rc == 0
        assert out["workers"] == 1

    def test_parse_procs_backend(self, capsys, tmp_path):
        """The acceptance path: synth to disk, parse with --backend
        procs, stats identical to serial plus a wall-ns makespan."""
        path = str(tmp_path / "t.sbin")
        rc, _ = run_cli(capsys, "synth", "tiny", "--output", path)
        assert rc == 0
        rc, serial = run_cli(capsys, "parse", path, "--runtime", "serial")
        assert rc == 0
        rc, out = run_cli(capsys, "parse", path, "--backend", "procs",
                          "--workers", "4")
        assert rc == 0
        assert out["workers"] == 4
        assert out["makespan_ns"] > 0
        assert "makespan_cycles" not in out
        assert out["procs"]["procs.shards"] >= 1
        assert out["procs"]["degraded_to"] == "none"
        assert out["procs"]["fault_events"] == 0
        for key in ("functions", "blocks", "edges", "splits",
                    "jump_tables", "tailcall_flips"):
            assert out[key] == serial[key], key

    def test_hpcstruct(self, capsys):
        rc, out = run_cli(capsys, "hpcstruct", "tiny", "-j", "2")
        assert rc == 0
        assert set(out["phases_cycles"]) == {
            "read", "dwarf_types", "line_map", "cfg", "skeleton",
            "queries", "output"}

    def test_hpcstruct_on_procs(self, capsys):
        rc, serial = run_cli(capsys, "hpcstruct", "tiny", "--backend",
                             "serial")
        assert rc == 0
        rc, out = run_cli(capsys, "hpcstruct", "tiny", "--backend",
                          "procs", "-j", "2")
        assert rc == 0
        assert out["workers"] == 2
        assert out["functions"] == serial["functions"]

    def test_binfeat(self, capsys):
        rc, out = run_cli(capsys, "binfeat", "--n-binaries", "2",
                          "-j", "2", "--scale", "0.3")
        assert rc == 0
        assert out["binaries"] == 2
        assert out["distinct_features"] > 0

    def test_check(self, capsys):
        rc, out = run_cli(capsys, "check", "--n-binaries", "2", "-j", "2")
        assert rc == 0
        assert out["binaries"] == 2
        assert out["functions_checked"] > 0

    def test_sweep(self, capsys):
        rc, out = run_cli(capsys, "sweep", "tiny",
                          "--workers-list", "1,4")
        assert rc == 0
        sweep = out["sweep"]
        assert [row["workers"] for row in sweep] == [1, 4]
        assert sweep[0]["speedup"] == 1.0
        assert sweep[1]["speedup"] > 1.0

    def test_trace(self, capsys, tmp_path):
        # trace prints a human report (not JSON), so bypass run_cli.
        report_path = tmp_path / "report.json"
        rc = main(["trace", "tiny", "-j", "4", "--app", "parse",
                   "--width", "40", "--json", str(report_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phases:" in out            # timeline legend
        assert "counter" in out            # metrics table header
        assert "lock.acquires" in out

        from repro.schema import validate_report
        report = json.loads(report_path.read_text())
        assert validate_report(report) == []
        assert report["backend"] == "vtime"
        assert report["n_workers"] == 4
        assert report["trace"]["intervals"]

    def test_trace_no_metrics(self, capsys):
        rc = main(["trace", "tiny", "-j", "2", "--app", "parse",
                   "--no-metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lock.acquires" not in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize("argv", [
        "parse tiny --backend procs --fault-plan bogus@1",
        "parse nosuchfile.sbin",
        "parse tiny -j 0",
        "parse tiny --backend procs --shard-deadline -3",
        "sweep tiny --workers-list 1,,2",
        "fuzz --runs 0",
        "fuzz --runs 1 --workers 0",
        "fuzz --runs 1 --procs-workers 0",
        "analyze --corpus 2 --preset bogus",
        "check --races --fixture nope",
        "hpcstruct tiny --max-retries 2",  # no such flag
        "corpus nodir --n-functions 3",
        "check --races --race-schedules 0",
        "fuzz --runs 1 --race-schedules 0",
        "trace tiny --width 0",
        # A zero count would make the command vacuous.
        "check --n-binaries 0",
        "check --n-binaries 0 --cfgsan",
        "check --n-binaries 0 --races",
        "binfeat --n-binaries 0",
        "analyze --corpus 0",
        # A flag the chosen mode would silently ignore.
        "check --races --cfgsan",
        "check --fixture counter-racy",
        "analyze tiny --corpus 1",
        "parse tiny --backend vtime --fault-plan excx99",
        "parse tiny --backend serial --shard-deadline 5",
        "parse tiny --backend serial -j 4",
        "hpcstruct tiny --fault-plan exc@0",
        "check --races --backend procs",
        "check --seed 3",
        "check --race-schedules 2",
        "analyze tiny --seed 1",
        "analyze tiny --preset stripped",
        "analyze tiny --n-functions 9",
        "corpus {run} --resume --count 7 --seed 9",
        "corpus {run} --resume --no-verify",
        "check --n-binaries 1 --scale 7 --backend serial",
        "check --cfgsan --n-binaries 1 --backend serial --json out.json",
        "check --races --fixture counter-safe --n-binaries 5",
        "analyze --corpus 1 --scale 9",
        # --scale is a finite number above 0.
        "parse tensorflow --scale nan --backend serial",
        "binfeat --scale nan --n-binaries 1",
        "synth llnl2 --scale -5",
        "synth llnl2 --scale 0",
        "trace tiny --scale inf",
        # An empty check list would analyze the binary for nothing.
        "analyze tiny --checks ,",
        # --shard-deadline is a finite number of seconds, 0 = none.
        "parse tiny --backend procs -j 2 --shard-deadline inf",
        "parse tiny --backend procs -j 2 --shard-deadline nan",
    ])
    def test_bad_input_is_one_error_line_and_exit_2(self, capsys, tmp_path,
                                                    argv):
        if "{run}" in argv:
            # A finished run for --resume to find.
            run = str(tmp_path / "run")
            assert exit_status("corpus", run, "--count", "1",
                               "--n-functions", "8", "--backend", "serial",
                               "--no-verify", "--no-metrics") == 0
            capsys.readouterr()
            argv = argv.replace("{run}", run)
        assert exit_status(*argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1


def save_non_utf8_tiny(path, where: str) -> str:
    """Save the tiny image with 0xFF as the first byte of one string:
    the ``.text`` section name or the first ``.debug`` file name."""
    img = tiny_binary().binary.image
    if where == "section-name":
        raw = bytearray(img.to_bytes())
        raw[raw.index(b"\x05\x00\x00\x00.text") + 4] = 0xFF
        path.write_bytes(bytes(raw))
        return str(path)
    debug = bytearray(img.section(fmt.DEBUG).data)
    debug[debug.index(b"src_0.c")] = 0xFF
    broken = BinaryImage(img.name)
    for s in img.sections.values():
        broken.add_section(Section(
            s.name, s.addr, bytes(debug) if s.name == fmt.DEBUG else s.data,
            s.flags))
    broken.save(str(path))
    return str(path)


class TestCliMalformedImages:
    @pytest.mark.parametrize("command, where", [
        ("parse", "section-name"),
        ("hpcstruct", "section-name"),
        ("hpcstruct", "debug-string"),
    ])
    def test_non_utf8_string_is_one_error_line_and_exit_2(
            self, capsys, tmp_path, command, where):
        path = save_non_utf8_tiny(tmp_path / "bad.sbin", where)
        assert exit_status(command, path, "--backend", "serial") == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and "is not UTF-8" in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        if where == "debug-string":
            assert ".debug" in err

    @pytest.mark.parametrize("command", ["parse", "hpcstruct"])
    def test_trailing_symtab_bytes_are_one_error_line_and_exit_2(
            self, capsys, tmp_path, command):
        img = tiny_binary().binary.image
        broken = BinaryImage(img.name)
        for s in img.sections.values():
            data = bytes(s.data) + (b"garbage" if s.name == fmt.SYMTAB
                                    else b"")
            broken.add_section(Section(s.name, s.addr, data, s.flags))
        path = str(tmp_path / "bad.sbin")
        broken.save(path)
        assert exit_status(command, path, "--backend", "serial") == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "error: trailing bytes after .symtab\n"

    def test_parse_never_decodes_debug(self, capsys, tmp_path):
        """``.debug`` decodes at first use: a command that never reads
        it succeeds on an image whose ``.debug`` is broken."""
        path = save_non_utf8_tiny(tmp_path / "bad.sbin", "debug-string")
        assert exit_status("parse", path, "--backend", "serial") == 0


class TestCliFuzz:
    def test_fuzz_clean_campaign(self, capsys, tmp_path):
        from repro.schema import validate_fuzz_report

        path = str(tmp_path / "fuzz.json")
        rc = main(["fuzz", "--runs", "2", "--seed", "5",
                   "--race-schedules", "1", "--n-functions", "12",
                   "--preset", "stripped", "--preset", "oob-entry",
                   "--json", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["summary"] == {"cases": 2, "diverged": 0,
                                  "failing_axes": [], "sanity_findings": 0}
        assert out["metrics"]["fuzz.cases"] == 2
        assert out["metrics"].get("fuzz.divergences", 0) == 0
        with open(path) as f:
            full = json.load(f)
        assert validate_fuzz_report(full) == []
        assert full["axes"][0] == "serial"

    def test_fuzz_repeat_is_byte_identical(self, capsys, tmp_path):
        """Satellite 1: the whole campaign is a pure function of the
        master seed — same invocation, byte-identical sidecar."""
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            rc = main(["fuzz", "--runs", "3", "--seed", "7",
                       "--race-schedules", "1", "--n-functions", "10",
                       "--preset", "jt-overapprox", "--json", path])
            capsys.readouterr()
            assert rc == 0
        assert open(a).read() == open(b).read()

    def test_fuzz_rejects_unknown_preset(self, capsys):
        assert exit_status("fuzz", "--runs", "1", "--preset", "bogus") == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestCliAnalyze:
    def test_analyze_workload_writes_valid_sidecar(self, capsys, tmp_path):
        from repro.schema import validate_findings

        path = tmp_path / "findings.json"
        rc, out = run_cli(capsys, "analyze", "tiny", "--runtime", "serial",
                          "--json", str(path))
        assert rc == 0
        assert out["backend"] == "serial"
        assert out["checks"] == ["callee-saved", "jt-bounds",
                                 "stack-balance", "uninit-reg"]
        assert out["functions"] > 10 and out["waves"] >= 1
        assert out["rounds"] >= out["sccs"] and out["capped_units"] == 0
        doc = json.loads(path.read_text())
        assert validate_findings(doc) == []
        assert doc["generator"] == "checkers"
        assert doc["subject"]["workload"] == "tiny"
        # The sidecar never records how it was produced.
        assert "backend" not in doc and "workers" not in doc

    def test_analyze_corpus_is_backend_independent(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        # 12, not 10: nine of a hostile program's functions are fixed
        # shapes, so ten leave one function that may hold a switch.
        args = ["analyze", "--corpus", "3", "--seed", "11",
                "--n-functions", "12", "--preset", "jt-overapprox"]
        rc, _ = run_cli(capsys, *args, "--runtime", "serial",
                        "--json", str(a))
        assert rc == 0
        rc, out = run_cli(capsys, *args, "--runtime", "threads",
                          "--workers", "4", "--json", str(b))
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert out["findings"] > 0  # jt-overapprox is a true positive
        assert out["by_rule"].get("jt-bounds", 0) > 0

    def test_analyze_corpus_seeds_share_no_binary(self, capsys,
                                                   monkeypatch):
        """Binary i of ``--corpus`` is ``corpus_program(i, seed, ...)``:
        a seed split, so neighbouring seeds are unrelated corpora.  The
        arithmetic ``seed + i`` made --seed 11 and --seed 12 share two
        of three binaries."""
        import hashlib

        import repro.cli

        analyzed = []
        real = repro.cli.parse_binary

        def recording(binary, rt, *args):
            analyzed.append(hashlib.sha256(
                binary.image.to_bytes()).hexdigest())
            return real(binary, rt, *args)

        monkeypatch.setattr(repro.cli, "parse_binary", recording)
        corpora = []
        for seed in ("11", "12"):
            analyzed.clear()
            rc, _ = run_cli(capsys, "analyze", "--corpus", "3", "--seed",
                            seed, "--n-functions", "10", "--preset",
                            "jt-overapprox", "--runtime", "serial")
            assert rc == 0 and len(set(analyzed)) == 3
            corpora.append(set(analyzed))
        assert not corpora[0] & corpora[1]

    def test_analyze_check_subset(self, capsys):
        rc, out = run_cli(capsys, "analyze", "tiny", "--runtime", "serial",
                          "--checks", "jt-bounds,stack-balance")
        assert rc == 0
        assert out["checks"] == ["jt-bounds", "stack-balance"]

    def test_analyze_rejects_unknown_check(self, capsys):
        rc = exit_status("analyze", "tiny", "--checks", "bogus")
        assert "unknown check 'bogus'" in capsys.readouterr().err
        assert rc == 2

    def test_analyze_requires_a_target(self, capsys):
        rc = main(["analyze"])
        capsys.readouterr()
        assert rc == 2


class TestCliFindingsSidecars:
    def test_lint_json_is_a_findings_document(self, capsys, tmp_path):
        from repro.schema import validate_findings

        path = tmp_path / "lint.json"
        rc = main(["lint", "--json", str(path)])
        capsys.readouterr()
        assert rc == 0  # the tree lints clean
        doc = json.loads(path.read_text())
        assert validate_findings(doc) == []
        assert doc["generator"] == "lint"
        assert doc["checks"] == ["bare-mutation", "unsync-iteration",
                                 "wall-clock"]
        assert doc["findings"] == []

    def test_lint_json_to_stdout(self, capsys):
        rc, doc = run_cli(capsys, "lint", "--json")
        assert rc == 0
        assert doc["schema"] == "repro.findings/1"

    def test_check_json_is_a_groundtruth_sidecar(self, capsys, tmp_path):
        from repro.schema import validate_findings

        path = tmp_path / "gt.json"
        rc, out = run_cli(capsys, "check", "--n-binaries", "2", "-j", "2",
                          "--json", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_findings(doc) == []
        assert doc["generator"] == "groundtruth"
        assert doc["summary"]["findings"] == sum(
            out["by_category"].values())
