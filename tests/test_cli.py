import json

import pytest

from kcc.cli import main

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_golden_exits_2_with_confirmed(self, capsys, golden_path):
        code, out, _ = run_cli(capsys, "run", str(golden_path))
        assert code == 2
        assert "Confirmed" in out and "malware:wannacry" in out

    def test_benign_exits_0(self, capsys, benign_path):
        code, out, _ = run_cli(capsys, "run", str(benign_path))
        assert code == 0
        assert "No alerts." in out

    def test_missing_scenario_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.scn"))
        assert code == 1
        assert "error:" in err

    def test_jsonl_mode_emits_valid_json_per_line(self, capsys, golden_path):
        code, out, _ = run_cli(capsys, "run", str(golden_path), "--format", "jsonl")
        assert code == 2
        lines = [l for l in out.splitlines() if l]
        assert lines
        for line in lines:
            json.loads(line)

    def test_byte_identical_transcripts_and_dumps(
        self, capsys, golden_path, tmp_path
    ):
        paths = []
        for n in (1, 2):
            out = tmp_path / f"t{n}.json"
            dump = tmp_path / f"d{n}.dump"
            code, _, _ = run_cli(
                capsys,
                "run",
                str(golden_path),
                "--output",
                str(out),
                "--dump",
                str(dump),
            )
            assert code == 2
            paths.append((out.read_bytes(), dump.read_bytes()))
        assert paths[0] == paths[1]

    def test_non_utf8_byte_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(
            b"2017-08-15T14:31:00Z intel-text ok\n2017-08-15T14:32:00Z intel-text caf\xff\n"
        )
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert err.startswith("error: line 2: 'utf-8' codec can't decode byte 0xff")

    def test_missing_config_file_fails_fast(self, capsys, golden_path):
        code, _, err = run_cli(
            capsys, "run", str(golden_path), "--vocab", "/nonexistent/vocab.kcv"
        )
        assert code == 1
        assert "vocab" in err


class TestIngest:
    def test_snort_fixture_fact_count(self, capsys, tmp_path):
        dump = tmp_path / "snort.dump"
        src = tmp_path / "three.log"
        src.write_text(
            "\n".join(
                (FIXTURES / "snort_fast.log").read_text().splitlines()[:3]
            )
            + "\n"
        )
        code, out, _ = run_cli(
            capsys, "ingest", "--type", "snort", str(src), "--dump", str(dump)
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) >= 15  # 5 facts per line before derivation

    @pytest.mark.parametrize(
        "kind, source", [("snort", "snort_fast.log"), ("host", "host_events.jsonl")]
    )
    def test_dump_matches_snapshot(self, capsys, tmp_path, kind, source):
        dump = tmp_path / f"{kind}.dump"
        code, _, _ = run_cli(
            capsys, "ingest", "--type", kind, str(FIXTURES / source), "--dump", str(dump)
        )
        assert code == 0
        assert dump.read_bytes() == (FIXTURES / f"ingest_{kind}.dump").read_bytes()

    def test_empty_file_dump_is_empty_baseline(self, capsys, tmp_path):
        src = tmp_path / "empty.log"
        src.write_text("")
        dump = tmp_path / "empty.dump"
        code, _, _ = run_cli(
            capsys, "ingest", "--type", "snort", str(src), "--dump", str(dump)
        )
        assert code == 0
        assert dump.read_text() == ""

    def test_bad_host_line_reports_line_number(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text(
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v",'
            '"type":"proc.stat"}\n{"agent":"registry"}\n'
        )
        dump = tmp_path / "bad.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert ":2:" in err

    def test_vocabulary_violation_reports_path_and_line(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text(
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v",'
            '"type":"proc.stat","attrs":{"cpuPercent":50.0}}\n'
            '{"agent":"process","ts":"2017-08-15T14:33:03Z","host":"host:v",'
            '"type":"proc.stat","attrs":{"cpuPercent":"high"}}\n'
        )
        dump = tmp_path / "bad.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert err == (
            f"error: {src}:2: object 'high' does not match schema decimal "
            "of cpuPercent\n"
        )

    def test_lines_split_only_at_newlines(self, capsys, tmp_path):
        # U+2028 in a message is one more character of it, as in a scenario
        line = (FIXTURES / "snort_fast.log").read_text().splitlines()[0]
        src = tmp_path / "sep.log"
        src.write_text(line.replace("PSNG_TCP", "PSNG\u2028TCP") + "\n", encoding="utf-8")
        dump = tmp_path / "sep.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "snort", str(src), "--dump", str(dump)
        )
        assert (code, err) == (0, "")
        scenario = tmp_path / "sep.scn"
        scenario.write_text(f"2017-01-01T00:00:00Z snort {src.read_text()}", encoding="utf-8")
        replayed = tmp_path / "replayed.dump"
        run_cli(capsys, "run", str(scenario), "--dump", str(replayed))
        assert dump.read_bytes() == replayed.read_bytes()
        assert 'snortKind "portscan"' in dump.read_text()

    def test_error_line_counts_only_newlines(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text(
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v",'
            '"type":"proc.stat"}\n\x0c\n{"agent":"registry"}\n'
        )
        dump = tmp_path / "bad.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert err.startswith(f"error: {src}:3: ")

    def test_non_utf8_byte_names_its_line(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(b'{"agent":"process"}\n{"agent":"caf\xff"}\n')
        dump = tmp_path / "bad.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert err.startswith(f"error: {src}:2: 'utf-8' codec can't decode byte 0xff")

    def test_intel_doc(self, capsys, tmp_path):
        dump = tmp_path / "intel.dump"
        code, _, _ = run_cli(
            capsys,
            "ingest",
            "--type",
            "intel-doc",
            str(FIXTURES / "intel_wannacry.json"),
            "--dump",
            str(dump),
        )
        assert code == 0
        assert "malware:wannacry usesTechnique" in dump.read_text()


class TestQueryExplain:
    @pytest.fixture()
    def golden_dump(self, capsys, golden_path, tmp_path):
        dump = tmp_path / "golden.dump"
        run_cli(capsys, "run", str(golden_path), "--dump", str(dump))
        capsys.readouterr()
        return dump

    def test_query_phase_evidence(self, capsys, golden_dump):
        code, out, _ = run_cli(
            capsys,
            "query",
            "host:192.168.56.102 hasPhaseEvidence *",
            "--store",
            str(golden_dump),
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) >= 4  # one per evidenced phase

    def test_query_all_on_empty_dump(self, capsys, tmp_path):
        empty = tmp_path / "empty.dump"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "query", "* * *", "--store", str(empty))
        assert code == 0
        assert out.strip() == ""

    def test_bare_star_is_wild_and_quoted_star_a_literal(self, capsys, tmp_path):
        dump = tmp_path / "star.dump"
        dump.write_text(
            'f1 event:e1 processName "*" asserted:host\n'
            'f2 event:e2 processName "cmd.exe" asserted:host\n'
        )
        _, out, _ = run_cli(capsys, "query", "* processName *", "--store", str(dump))
        assert [row.split()[0] for row in out.splitlines()] == ["f1", "f2"]
        code, out, _ = run_cli(capsys, "query", '* processName "*"', "--store", str(dump))
        assert code == 0
        assert out.splitlines() == ['f1 event:e1 processName "*"']

    def test_timestamp_object_is_read_by_its_schema(self, capsys, golden_dump):
        code, out, _ = run_cli(
            capsys, "query", "* eventTs 2017-08-15T14:31:00Z", "--store", str(golden_dump)
        )
        assert code == 0
        assert out == "f6 event:3ebb2b0043fa eventTs 2017-08-15T14:31:00Z\n"

    def test_every_printed_row_queries_back(self, capsys, golden_dump):
        _, out, _ = run_cli(capsys, "query", "* * *", "--store", str(golden_dump))
        rows = out.splitlines()
        assert len(rows) == 112
        for row in rows:
            _, found, _ = run_cli(
                capsys, "query", row.split(" ", 1)[1], "--store", str(golden_dump)
            )
            assert found.splitlines() == [row]
        _, out, _ = run_cli(
            capsys, "query", "* * *", "--store", str(golden_dump), "--format", "jsonl"
        )
        json_rows = out.splitlines()
        assert len(json_rows) == 112
        for row, json_row in zip(rows, json_rows):
            doc = json.loads(json_row)
            pattern = f"{doc['subject']} {doc['predicate']} {doc['object']}"
            assert row == f"f{doc['fact_id']} {pattern}"
            _, found, _ = run_cli(
                capsys, "query", pattern, "--store", str(golden_dump), "--format", "jsonl"
            )
            assert found.splitlines() == [json_row]

    def test_int_beyond_float_range_against_decimal_object(self, capsys, tmp_path):
        big = 10**400
        src = tmp_path / "big.jsonl"
        src.write_text(
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v",'
            f'"type":"proc.stat","attrs":{{"byteCount":{big}}}}}\n'
        )
        dump = tmp_path / "big.dump"
        code, _, _ = run_cli(capsys, "ingest", "--type", "host", str(src), "--dump", str(dump))
        assert code == 0
        assert run_cli(capsys, "query", "* * 1.5", "--store", str(dump)) == (0, "", "")
        code, out, _ = run_cli(capsys, "query", f"* * {big}", "--store", str(dump))
        assert code == 0
        assert [row.split()[2] for row in out.splitlines()] == ["byteCount"]

    def test_golden_attack_explanation_matches_snapshot(self, capsys):
        code, out, _ = run_cli(
            capsys, "explain", "f90", "--store", str(FIXTURES / "golden_store.dump")
        )
        assert code == 0
        assert out == (FIXTURES / "golden_explain.txt").read_text(encoding="utf-8")

    def test_explain_attack_has_intel_leaf(self, capsys, golden_dump):
        code, out, _ = run_cli(
            capsys,
            "query",
            "host:192.168.56.102 attackDetected *",
            "--store",
            str(golden_dump),
        )
        fact_id = out.split()[0]
        code, out, _ = run_cli(
            capsys, "explain", fact_id, "--store", str(golden_dump)
        )
        assert code == 0
        assert "usesTechnique" in out
        assert "[via R11]" in out

    def test_query_results_deterministically_sorted(self, capsys, golden_dump):
        runs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "query", "* observedEvent *", "--store", str(golden_dump)
            )
            runs.append(out)
        assert runs[0] == runs[1]
        ids = [int(l.split()[0].lstrip("f")) for l in runs[0].strip().splitlines()]
        assert ids == sorted(ids)

    def test_bad_pattern_exits_1(self, capsys, golden_dump):
        code, _, err = run_cli(
            capsys, "query", "only two", "--store", str(golden_dump)
        )
        assert code == 1
        assert "pattern" in err

    @pytest.mark.parametrize("fact_id", ["ff90", "fx", "90", "f090", "f9_0", "f٩٠", "f"])
    def test_explain_takes_fact_ids_as_a_dump_writes_them(self, capsys, fact_id):
        code, out, err = run_cli(
            capsys, "explain", fact_id, "--store", str(FIXTURES / "golden_store.dump")
        )
        assert (code, out) == (1, "")
        assert "expected f<number>" in err

    def test_bad_store_line_is_named(self, capsys, tmp_path):
        dump = tmp_path / "bad.dump"
        dump.write_text(
            'f1 event:e1 snortKind "portscan" asserted:snort\n'
            "f2 event:e1 cpuPercent nan asserted:host\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "query", "* * *", "--store", str(dump))
        assert code == 1
        assert err.startswith("error: line 2: ")


    def test_non_utf8_store_line_is_named(self, capsys, tmp_path):
        dump = tmp_path / "bad.dump"
        dump.write_bytes(
            b'f1 event:e1 snortKind "portscan" asserted:snort\n'
            b'f2 event:e1 processName "caf\xff" asserted:host\n'
        )
        code, _, err = run_cli(capsys, "query", "* * *", "--store", str(dump))
        assert code == 1
        assert err.startswith("error: line 2: 'utf-8' codec can't decode byte 0xff")


class TestConfig:
    @pytest.mark.parametrize("key", ["validate", "bogus"])
    def test_key_that_is_not_a_setting_exits_1(self, capsys, tmp_path, key):
        config = tmp_path / "kcc.conf"
        config.write_text(f"{key} = 1\n")
        code, _, err = run_cli(capsys, "check-rules", "--config", str(config))
        assert code == 1
        assert f"'{key}'" in err


class TestCheckRules:
    def test_default_ruleset_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check-rules")
        assert code == 0
        assert "rules ok" in out

    def test_broken_ruleset_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.kcr"
        bad.write_text("rule R1: noSuchPred(?a,?b) => dstIp(?a,?b).\n")
        code, _, err = run_cli(capsys, "check-rules", "--rules", str(bad))
        assert code == 1
        assert "noSuchPred" in err

    def test_newline_in_string_counts_in_error_position(self, capsys, tmp_path):
        rules = tmp_path / "multiline.kcr"
        rules.write_text(
            'rule R1: snortKind(?e, "a\nb"), dstIp(?e, ?h)\n'
            "  => hasPhaseEvidence(?x, phase:Reconnaissance).\n"
        )
        code, _, err = run_cli(capsys, "check-rules", "--rules", str(rules))
        assert code == 1
        assert err.startswith("error: 3:6: rule R1: head variable ?x")

    def test_number_beyond_int_limit_exits_1_with_position(self, capsys, tmp_path):
        rules = tmp_path / "long.kcr"
        rules.write_text(
            f"rule R1: byteCount(?e, {'7' * 5000}) => hasIndicator(?e, indicator:Big).\n"
        )
        code, _, err = run_cli(capsys, "check-rules", "--rules", str(rules))
        assert code == 1
        assert err.startswith("error: 1:24: number too long")


class TestUsage:
    """A usage error exits 1, as any input error does: 2 is reserved for a
    Confirmed alert."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--bogus", "x.scn"],
            ["run"],
            ["bogus"],
            [],
            ["check-rules", "--format", "jsonl"],
            ["explain", "f1", "--store", "x.dump", "--format", "human"],
            ["ingest", "--type", "snort", "x.log", "--dump", "x.dump", "--format", "human"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["query", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
