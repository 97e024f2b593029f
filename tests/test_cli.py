import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcc.cli import CliError, _data_path, _parse_config_file, main
from kcc.correlator import IndicatorConfig
from kcc.facts import FactStore, FactStoreError
from kcc.ingest import MalformedConfig, SidMap, TechniqueTable, make_event_id
from kcc.rules import RuleSyntaxError, load_ruleset
from kcc.vocab import VocabularyError, load_vocabulary

from conftest import FIXTURES


# a JSON array nested deeper than any recursion limit, alone and as the
# attribute of a host event
DEPTH = 100_000
DEEP_JSON = "[" * DEPTH + "]" * DEPTH
DEEP_EVENT = (
    '{"agent":"process","ts":"2017-08-15T14:00:00Z","host":"host:h","type":"proc.stat",'
    f'"attrs":{{"x":{DEEP_JSON}}}}}'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_DUMP = (FIXTURES / "golden_store.dump").read_bytes()
GOLDEN_SCENARIO = _data_path("scenarios/golden.scn").read_bytes()
DEFAULT_RULES = _data_path("rules/default.kcr").read_bytes()
DEFAULT_VOCAB = _data_path("vocab.kcv").read_bytes()
# a --config file that sets the seven thresholds to their defaults
DEFAULT_CONFIG = "".join(f"{key} = {value}\n" for key, value in vars(IndicatorConfig()).items()).encode()
# the pieces of a query pattern's words: wildcards, quotes and escapes,
# words of the golden store, timestamps in and out of the UTC range, numbers
# no float or int() reads, a lone surrogate and blanks
_PATTERN_PREDICATES = ["*", "eventTs", "cpuPercent", "sensitive", "processName", "dstIp"]
_PATTERN_WORDS = st.lists(st.sampled_from([
    *_PATTERN_PREDICATES, '"', '"*"', "\\", '\\"', "\\u00e9", "2017-08-15T14:31:00Z",
    "0001-01-01T00:00:00+05:00", "nan", "inf", "-0", "1.5", "9" * 5000, "\ud800", "\t", " ", "\n",
    "host:192.168.56.102", "event:3ebb2b0043fa", '"portscan"',
]), min_size=1, max_size=3).map("".join)
PATTERNS = st.one_of(
    st.tuples(_PATTERN_WORDS, st.one_of(st.sampled_from(_PATTERN_PREDICATES), _PATTERN_WORDS),
              _PATTERN_WORDS).map(" ".join),
    st.lists(_PATTERN_WORDS, max_size=4).map(" ".join),
)
# an error on one line, naming the line, or the line and column, of its input
ONE_LINE_ERROR = r"error: ([1-9][0-9]*:[1-9][0-9]*|line [1-9][0-9]*): [^\n]*\n"
# an intel document whose name no file system takes
LONG_NAME_LINE = f"2017-08-15T14:40:00Z intel-doc {'a' * 5000}\n".encode()
INGEST_FIXTURES = {"host": "host_events.jsonl", "intel-doc": "intel_full.json", "snort": "snort_fast.log"}

# what an edit of one character writes: a byte no UTF-8 text holds, a line
# break text mode reads as one, a separator it does not, or any character
_PIECES = st.one_of(
    st.sampled_from([b"\xff", b"\x80", b"\r", "\u2028".encode(), b" ", b"\n", b'"', b":"]),
    st.characters().map(lambda c: c.encode("utf-8", "surrogatepass")),
)


@st.composite
def mutants(draw, data):
    """`data` after one to three edits: a character replaced or inserted,
    the text truncated, or a line deleted, duplicated, swapped with another
    or nested DEPTH arrays deep."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(
            st.sampled_from(["replace", "insert", "truncate", "delete", "duplicate", "swap", "nest"])
        )
        if edit in ("replace", "insert"):
            cut = edit == "replace"
            i = draw(st.integers(0, max(len(data) - cut, 0)))
            data = data[:i] + draw(_PIECES) + data[i + cut:]
        elif edit == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        else:
            lines = data.split(b"\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            elif edit == "nest":
                lines[i] = b"[" * DEPTH + lines[i] + b"]" * DEPTH
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
    return data


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

    def test_offset_time_outside_the_utc_range_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "range.scn"
        path.write_text("0001-01-01T00:00:00+05:00 intel-text ok\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert err.startswith("error: line 1: bad timestamp: ")

    def test_a_chain_of_1001_events_reaches_its_fixpoint(self, capsys, tmp_path):
        # one batch whose fixpoint derives one reach fact per epoch, from
        # the end of the chain back to its start: 1,002 epochs
        vocab = tmp_path / "chain.kcv"
        vocab.write_text(
            _data_path("vocab.kcv").read_text()
            + "predicate node entity\npredicate next entity\npredicate reach entity\n"
        )
        rules = tmp_path / "chain.kcr"
        rules.write_text(
            "rule B: node(?e, ?a), next(?e, n:end) => reach(?a, n:end).\n"
            "rule T: node(?e, ?a), next(?e, ?b), reach(?b, ?m) => reach(?a, ?m).\n"
        )
        scenario = tmp_path / "chain.scn"
        with scenario.open("w") as fh:
            for i in range(1001):
                attrs = {"node": f"n:{i}", "next": "n:end" if i == 1000 else f"n:{i + 1}"}
                event = {"agent": "process", "ts": "2017-08-15T14:00:00Z", "host": "host:h",
                         "type": "proc.stat", "attrs": attrs}
                fh.write(f"2017-08-15T14:00:00Z host {json.dumps(event)}\n")
        dump = tmp_path / "chain.dump"
        code, _, err = run_cli(capsys, "run", str(scenario), "--vocab", str(vocab),
                               "--rules", str(rules), "--dump", str(dump))
        assert (code, err) == (0, "")
        reach = [line for line in dump.read_text().splitlines() if " reach " in line]
        assert len(reach) == 1001
        assert "n:0 reach n:end derived:T:" in reach[-1]

    def test_deeply_nested_host_line_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "deep.scn"
        path.write_text(f"2017-08-15T14:00:00Z intel-text ok\n2017-08-15T14:00:00Z host {DEEP_EVENT}\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert err.startswith("error: line 2: invalid JSON: maximum recursion depth exceeded")

    def test_missing_config_file_fails_fast(self, capsys, golden_path):
        code, _, err = run_cli(
            capsys, "run", str(golden_path), "--vocab", "/nonexistent/vocab.kcv"
        )
        assert code == 1
        assert "vocab" in err

    def test_dump_to_a_directory_exits_1(self, capsys, tmp_path, golden_path):
        # once an IsADirectoryError traceback
        code, _, err = run_cli(capsys, "run", str(golden_path), "--dump", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_intel_document_name_too_long_names_its_line(self, capsys, tmp_path):
        # once an OSError traceback from the document's is_file()
        path = tmp_path / "long.scn"
        path.write_bytes(LONG_NAME_LINE)
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line 1: {tmp_path / ('a' * 5000)}: ")
        assert err.endswith(": File name too long\n")

    @pytest.fixture(scope="class")
    def mutant_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants") / "mutant.scn"

    @settings(deadline=None, max_examples=100)
    @given(data=mutants(GOLDEN_SCENARIO))
    @example(data=GOLDEN_SCENARIO + LONG_NAME_LINE)
    def test_any_mutant_of_the_golden_scenario_gets_an_exit_code(self, mutant_path, data):
        # a scenario replays, or is rejected with the line it names
        mutant_path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", str(mutant_path)])
        assert code in (0, 1, 2), err.getvalue()[:500]
        assert code != 1 or re.match(r"error: line [1-9][0-9]*: ", err.getvalue()), err.getvalue()[:500]


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

    @pytest.mark.parametrize("key, value", [("ts", 5), ("type", ["x"])])
    def test_non_string_field_reports_path_and_line(self, capsys, tmp_path, key, value):
        event = {"agent": "process", "ts": "2017-08-15T14:33:02Z", "host": "host:v",
                 "type": "proc.stat", key: value}
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(event) + "\n")
        code, out, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(tmp_path / "bad.dump")
        )
        assert (code, out) == (1, "")
        assert err == f"error: {src}:1: {key} must be a string\n"

    def test_missing_input_exits_1(self, capsys, tmp_path):
        src = tmp_path / "nowhere.log"
        code, out, err = run_cli(
            capsys, "ingest", "--type", "snort", str(src), "--dump", str(tmp_path / "x.dump")
        )
        assert (code, out, err) == (1, "", f"error: input not found: {src}\n")

    def test_reserved_attribute_reports_path_and_line(self, capsys, tmp_path):
        # a forged detection, which `kcc run` once reported as Confirmed
        forged = (
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v",'
            '"type":"proc.stat","attrs":{"attackDetected":"malware:evil"}}'
        )
        src = tmp_path / "forged.jsonl"
        src.write_text(f"{forged.replace('attackDetected', 'processName')}\n{forged}\n")
        dump = tmp_path / "forged.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert err.startswith(f"error: {src}:2: attribute 'attackDetected' is reserved")
        scenario = tmp_path / "forged.scn"
        scenario.write_text(f"2017-08-15T14:31:00Z intel-text ok\n2017-08-15T14:33:02Z host {forged}\n")
        code, out, err = run_cli(capsys, "run", str(scenario))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2: attribute 'attackDetected' is reserved")

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

    def test_host_time_outside_the_utc_range_names_its_line(self, capsys, tmp_path):
        event = (
            '{"agent":"process","ts":"9999-12-31T23:00:00-05:00","host":"host:v",'
            '"type":"proc.stat"}'
        )
        src = tmp_path / "range.jsonl"
        src.write_text(event + "\n")
        dump = tmp_path / "range.dump"
        code, _, err = run_cli(
            capsys, "ingest", "--type", "host", str(src), "--dump", str(dump)
        )
        assert code == 1
        assert err.startswith(f"error: {src}:1: bad timestamp")
        scenario = tmp_path / "range.scn"
        scenario.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        code, _, err = run_cli(capsys, "run", str(scenario))
        assert code == 1
        assert err.startswith("error: line 1: bad timestamp")

    def test_duplicated_snort_line_is_two_events(self, capsys, tmp_path):
        line = (FIXTURES / "snort_fast.log").read_text().splitlines()[0]
        src = tmp_path / "twice.log"
        src.write_text(f"{line}\n{line}\n")
        dump = tmp_path / "twice.dump"
        code, _, _ = run_cli(
            capsys, "ingest", "--type", "snort", str(src), "--dump", str(dump)
        )
        assert code == 0
        observed = [
            row.split()[3] for row in dump.read_text().splitlines()
            if row.split()[2] == "observedEvent"
        ]
        assert observed == [make_event_id("snort", line, n) for n in (0, 1)]

    @pytest.mark.parametrize("kind, source", [("snort", "snort_fast.log"), ("host", "host_events.jsonl")])
    def test_padded_line_is_the_event_a_scenario_line_is(self, capsys, tmp_path, kind, source):
        # both commands cut the blanks around a payload: once a padded snort
        # line failed `ingest` only, and a padded host line got another id
        line = (FIXTURES / source).read_text().splitlines()[0]
        src = tmp_path / "padded.txt"
        src.write_text(f"  {line}  \n")
        scenario = tmp_path / "padded.scn"
        scenario.write_text(f"2017-08-15T14:31:00Z {kind}  {line}  \n")
        dump = tmp_path / "padded.dump"
        observed = []
        for argv in (["ingest", "--type", kind, str(src)], ["run", str(scenario)]):
            code, _, err = run_cli(capsys, *argv, "--dump", str(dump))
            assert (code, err) == (0, "")
            rows = [row.split() for row in dump.read_text().splitlines()]
            observed.append([row[3] for row in rows if row[2] == "observedEvent"])
        assert observed[0] == observed[1] == [make_event_id(kind, line, 0)]

    @pytest.mark.parametrize(
        "doc, message",
        [
            (b'[{"name": "caf\xff"}]\n', "line 1: 'utf-8' codec can't decode byte 0xff"),
            (b'[{"name": "x", "labels": "ransomware"}]', "entry 0: labels must be a list"),
            (b'[{"name": "a b", "labels": ["ransomware"]}]', "entry 0: bad name 'a b'"),
            (b'[{"name": "x", "indicators": ["a b"]}]', "entry 0: bad indicators item 'a b'"),
        ],
    )
    def test_intel_document_error_names_the_document_once(self, capsys, tmp_path, doc, message):
        src = tmp_path / "doc.json"
        src.write_bytes(doc)
        code, out, err = run_cli(
            capsys, "ingest", "--type", "intel-doc", str(src), "--dump", str(tmp_path / "doc.dump")
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {src}: {message}") and err.count(str(src)) == 1, err
        scenario = tmp_path / "doc.scn"
        scenario.write_text("2017-08-15T14:31:00Z intel-doc doc.json\n")
        code, out, err = run_cli(capsys, "run", str(scenario))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line 1: {src}: {message}") and err.count(str(src)) == 1, err

    def test_dump_into_a_missing_directory_exits_1(self, capsys, tmp_path):
        # once a FileNotFoundError traceback
        dump = tmp_path / "missing" / "x.dump"
        code, out, err = run_cli(
            capsys, "ingest", "--type", "snort", str(FIXTURES / "snort_fast.log"), "--dump", str(dump)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(dump) in err

    @pytest.mark.parametrize("kind", ["host", "intel-doc"])
    def test_deeply_nested_json_is_invalid_json(self, capsys, tmp_path, kind):
        src = tmp_path / "deep.json"
        src.write_text(DEEP_EVENT + "\n" if kind == "host" else DEEP_JSON)
        where = ":1" if kind == "host" else ""
        code, out, err = run_cli(
            capsys, "ingest", "--type", kind, str(src), "--dump", str(tmp_path / "deep.dump")
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {src}{where}: invalid JSON: maximum recursion depth exceeded")

    @pytest.fixture(scope="class")
    def mutant_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants")

    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(sorted(INGEST_FIXTURES)), data=st.data())
    def test_any_mutant_of_an_ingest_fixture_gets_an_exit_code(self, mutant_dir, kind, data):
        # an input is ingested or rejected with its file, named once, and the
        # line of a line-based input
        path = mutant_dir / INGEST_FIXTURES[kind]
        path.write_bytes(data.draw(mutants((FIXTURES / INGEST_FIXTURES[kind]).read_bytes())))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["ingest", "--type", kind, str(path), "--dump", str(mutant_dir / "out.dump")])
        where = re.escape(str(path)) + (":[1-9][0-9]*" if kind != "intel-doc" else "")
        first = err.getvalue().partition("\n")[0]
        assert code == 0 or re.match(f"error: {where}: ", first), err.getvalue()[:500]
        assert code == 0 or first.count(str(path)) == 1, err.getvalue()[:500]

    def test_intel_doc_dump_matches_snapshot(self, capsys, tmp_path):
        dump = tmp_path / "intel.dump"
        code, _, _ = run_cli(
            capsys, "ingest", "--type", "intel-doc", str(FIXTURES / "intel_full.json"),
            "--dump", str(dump),
        )
        assert code == 0
        assert dump.read_bytes() == (FIXTURES / "ingest_intel.dump").read_bytes()

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

    def test_every_printed_object_queries_back_under_any_predicate(self, capsys, golden_dump):
        """A bare object is read under `*` as under each predicate whose
        schema reads it, so timestamps are found too."""
        _, out, _ = run_cli(capsys, "query", "* * *", "--store", str(golden_dump))
        rows = out.splitlines()
        assert len(rows) == 112
        for row in rows:
            _, subject, _, obj = row.split(" ", 3)
            for pattern in (f"* * {obj}", f"{subject} * {obj}"):
                code, found, _ = run_cli(capsys, "query", pattern, "--store", str(golden_dump))
                assert code == 0 and row in found.splitlines(), pattern

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
        """Fewer than three words, or an unquoted object with whitespace."""
        for pattern in ("only two", r"* filePath C:\Program Files\x.exe"):
            code, _, err = run_cli(capsys, "query", pattern, "--store", str(golden_dump))
            assert code == 1
            assert "pattern" in err

    def test_quoted_objects_query_back_under_any_predicate(self, capsys, tmp_path, golden_dump):
        """A printed string object is read as JSON, whitespace and escapes
        included, under its predicate and under `*`, where it is then read
        as each predicate's schema reads it; one that is not a JSON string
        is an error."""
        dump = tmp_path / "quoted.dump"
        dump.write_text(
            'f1 event:e1 filePath "C:\\\\Program Files\\\\x.exe" asserted:host\n'
            'f2 event:e2 processName "caf\\u00e9.exe" asserted:host\n'
        )
        _, out, _ = run_cli(capsys, "query", "* * *", "--store", str(dump))
        rows = out.splitlines()
        assert rows == [
            'f1 event:e1 filePath "C:\\\\Program Files\\\\x.exe"',
            'f2 event:e2 processName "caf\\u00e9.exe"',
        ]
        for row in rows:
            _, subject, predicate, obj = row.split(" ", 3)
            for pattern in (f"{subject} {predicate} {obj}", f"* * {obj}", f"* {predicate} {obj} "):
                code, found, _ = run_cli(capsys, "query", pattern, "--store", str(dump))
                assert (code, found.splitlines()) == (0, [row]), pattern
        found = run_cli(capsys, "query", '* * "2017-08-15T14:31:00Z"', "--store", str(golden_dump))
        assert found == (0, "f6 event:3ebb2b0043fa eventTs 2017-08-15T14:31:00Z\n", "")
        for pattern in ('* * "caf', '* * "a" "b"'):
            code, _, err = run_cli(capsys, "query", pattern, "--store", str(dump))
            assert code == 1 and "bad string object" in err, pattern

    @pytest.mark.parametrize("fact_id", ["ff90", "fx", "90", "f090", "f9_0", "f٩٠", "f"])
    def test_explain_takes_fact_ids_as_a_dump_writes_them(self, capsys, fact_id):
        code, out, err = run_cli(
            capsys, "explain", fact_id, "--store", str(FIXTURES / "golden_store.dump")
        )
        assert (code, out) == (1, "")
        assert "expected f<number>" in err

    def test_missing_store_exits_1(self, capsys, tmp_path):
        dump = tmp_path / "nowhere.dump"
        code, out, err = run_cli(capsys, "query", "* * *", "--store", str(dump))
        assert (code, out, err) == (1, "", f"error: store dump not found: {dump}\n")

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

    def test_offset_time_outside_the_utc_range(self, capsys, tmp_path, golden_dump):
        pattern = "* eventTs 0001-01-01T00:00:00+05:00"
        code, out, err = run_cli(capsys, "query", pattern, "--store", str(golden_dump))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad timestamp object: ")
        # under `*`, no timestamp predicate reads it; the text matches no fact
        pattern = "* * 0001-01-01T00:00:00+05:00"
        code, out, _ = run_cli(capsys, "query", pattern, "--store", str(golden_dump))
        assert (code, out) == (0, "")
        dump = tmp_path / "range.dump"
        dump.write_text(
            'f1 event:e1 snortKind "portscan" asserted:snort\n'
            "f2 event:e1 eventTs 9999-12-31T23:00:00-05:00 asserted:snort\n"
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

    def test_custom_vocabulary_alone_reads_its_dump(self, capsys, tmp_path):
        # both commands read only the vocabulary: once they also compiled
        # the packaged rules against it, and failed on R1's first predicate
        vocab = tmp_path / "v.kcv"
        vocab.write_text("predicate link entity\n")
        dump = tmp_path / "d.dump"
        dump.write_text("f1 n:a link n:b asserted:intel\n")
        for argv in (["query", "* * *"], ["explain", "f1"]):
            result = run_cli(capsys, *argv, "--store", str(dump), "--vocab", str(vocab))
            assert result == (0, "f1 n:a link n:b\n", ""), argv

    @pytest.fixture(scope="class")
    def mutant_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants") / "mutant.dump"

    @settings(deadline=None, max_examples=150)
    @given(data=mutants(GOLDEN_DUMP))
    def test_any_mutant_of_the_golden_dump_gets_an_exit_code(self, default_vocab, mutant_path, data):
        # a store the loader rejects fails both commands with the line it
        # names; any other store answers the query, and explains f90 or
        # says that it has no such fact
        mutant_path.write_bytes(data)
        try:
            FactStore.load(mutant_path, default_vocab)
            rejected = False
        except (FactStoreError, VocabularyError):
            rejected = True
        for argv in (["query", "* * *"], ["explain", "f90"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([*argv, "--store", str(mutant_path)])
            if rejected:
                assert code == 1
                assert re.match(r"error: line [1-9][0-9]*: ", err.getvalue()), err.getvalue()
            else:
                assert code in ((0,) if argv[0] == "query" else (0, 1)), err.getvalue()

    @settings(deadline=None, max_examples=100)
    @given(pattern=PATTERNS)
    @example(pattern="-0*\t*\t*")
    def test_any_pattern_gets_an_exit_code(self, pattern):
        # a pattern is answered, or rejected on one error line; it comes
        # after "--", since argparse reads a "-" word with no space as an
        # option (a usage error, which test_usage_error_exits_1 covers)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["query", "--store", str(FIXTURES / "golden_store.dump"), "--", pattern])
        assert code in (0, 1), err.getvalue()[:500]
        assert re.fullmatch("" if code == 0 else r"error: [^\n]*\n", err.getvalue()), err.getvalue()[:500]


class TestConfig:
    @pytest.mark.parametrize("key", ["validate", "bogus"])
    def test_key_that_is_not_a_setting_exits_1(self, capsys, tmp_path, key):
        config = tmp_path / "kcc.conf"
        config.write_text(f"{key} = 1\n")
        code, _, err = run_cli(capsys, "check-rules", "--config", str(config))
        assert code == 1
        assert f"'{key}'" in err

    @pytest.mark.parametrize("key, name", [
        ("vocab", "vocab.kcv"), ("rules", "rules/default.kcr"), ("sidmap", "sidmap.kcm"),
        ("techniques", "techniques.kct"),
    ])
    def test_data_file_is_no_setting(self, capsys, tmp_path, golden_path, key, name):
        # a data file is set by its flag alone
        config = tmp_path / "kcc.conf"
        config.write_text(f"{key} = {_data_path(name)}\n")
        code, out, err = run_cli(capsys, "run", str(golden_path), "--config", str(config))
        assert (code, out, err) == (1, "", f"error: unknown indicator setting {key!r}\n")

    def test_non_finite_threshold_exits_1(self, capsys, tmp_path, golden_path):
        config = tmp_path / "kcc.conf"
        config.write_text("high_cpu_threshold = nan\n")
        code, out, err = run_cli(capsys, "run", str(golden_path), "--config", str(config))
        assert (code, out) == (1, "")
        assert "'high_cpu_threshold'" in err

    def test_count_beyond_float_range_exits_1(self, capsys, tmp_path, golden_path):
        # once an OverflowError traceback from IndicatorConfig.validate
        config = tmp_path / "kcc.conf"
        config.write_text(f"spike_min_count = {'9' * 400}\n")
        code, out, err = run_cli(capsys, "run", str(golden_path), "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error: indicator setting 'spike_min_count' must be finite")

    @pytest.fixture(scope="class")
    def mutant_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants") / "mutant.conf"

    @settings(deadline=None, max_examples=100)
    @given(data=mutants(DEFAULT_CONFIG))
    def test_any_mutant_of_a_default_config_gets_an_exit_code(self, mutant_path, data):
        # a config file sets thresholds, or is rejected at the line or with
        # the setting it names
        mutant_path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["check-rules", "--config", str(mutant_path)])
        assert code in (0, 1), err.getvalue()[:500]
        where = rf"error: ({re.escape(str(mutant_path))}: line [1-9][0-9]*: |(unknown )?indicator setting )"
        assert code == 0 or re.fullmatch(where + r"[^\n]*\n", err.getvalue()), err.getvalue()[:500]


# reader, its error class, a good line, a bad line, the prefix of its
# errors' line numbers (a path's stands for the file's own path)
CONFIG_READERS = {
    "vocab": (load_vocabulary, VocabularyError, "predicate a entity", "predicate 9x entity", ""),
    "sidmap": (SidMap.load, MalformedConfig, "1:1000001 PortScan", "1:2", "sidmap "),
    "techniques": (
        TechniqueTable.load, MalformedConfig, '"a b" technique:a_b', "a b", "techniques "
    ),
    "config": (_parse_config_file, CliError, "spike_window = 60", "spike_window", "{path}: "),
}


class TestConfigReaders:
    """The vocabulary, sid map, technique table, ruleset and --config
    readers name the line of an error as the scenario reader does: lines
    end at "\n" only, and a byte that is not UTF-8 is reported with its
    line."""

    @pytest.mark.parametrize("name", sorted(CONFIG_READERS))
    def test_lines_split_only_at_newlines(self, tmp_path, name):
        read, error, good, bad, _ = CONFIG_READERS[name]
        path = tmp_path / name
        # a lone form feed, and a comment that goes on past a U+2028
        path.write_text(f"{good}\n\x0c\n# note\u2028 more\n{bad}\n", encoding="utf-8")
        with pytest.raises(error, match=r"\bline 4: "):
            read(path)
        path.write_text(f"{good}\n\x0c\n# note\u2028 more\n{good}\n", encoding="utf-8")
        read(path)

    @pytest.mark.parametrize("name", sorted(CONFIG_READERS) + ["rules"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, default_vocab, name):
        if name == "rules":
            read = partial(load_ruleset, vocab=default_vocab)
            error, good, prefix = RuleSyntaxError, "# the rules", ""
        else:
            read, error, good, _, prefix = CONFIG_READERS[name]
        path = tmp_path / name
        path.write_bytes(good.encode() + b"\r\n# caf\xff\n")
        with pytest.raises(error) as exc:
            read(path)
        prefix = prefix.format(path=path)
        assert str(exc.value).startswith(
            f"{prefix}line 2: 'utf-8' codec can't decode byte 0xff in position 5"
        )

    def test_check_rules_names_the_vocabulary_line(self, capsys, tmp_path):
        vocab = tmp_path / "bad.kcv"
        vocab.write_bytes(b"predicate a entity\n\x0c\npredicate 9x entity\n")
        code, _, err = run_cli(capsys, "check-rules", "--vocab", str(vocab))
        assert (code, err) == (1, "error: line 3: bad predicate name: '9x'\n")
        vocab.write_bytes(b"predicate a entity\npredicate b entity # caf\xff\n")
        code, _, err = run_cli(capsys, "check-rules", "--vocab", str(vocab))
        assert code == 1
        assert err.startswith("error: line 2: 'utf-8' codec can't decode byte 0xff")

    @pytest.fixture(scope="class")
    def mutant_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants") / "mutant.kcv"

    @settings(deadline=None, max_examples=100)
    @given(data=mutants(DEFAULT_VOCAB))
    def test_any_mutant_of_the_default_vocabulary_gets_an_exit_code(self, mutant_path, data):
        # a vocabulary compiles the rules and reads the golden store, or
        # either is rejected at the line, or line and column, it names
        mutant_path.write_bytes(data)
        for argv in (["check-rules"], ["query", "* * *", "--store", str(FIXTURES / "golden_store.dump")]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([*argv, "--vocab", str(mutant_path)])
            assert code in (0, 1), err.getvalue()[:500]
            assert code == 0 or re.fullmatch(ONE_LINE_ERROR, err.getvalue()), err.getvalue()[:500]


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

    def test_repeated_rule_id_exits_1_with_position(self, capsys, tmp_path):
        rules = tmp_path / "twice.kcr"
        rules.write_bytes(DEFAULT_RULES.replace(b"rule R2:", b"rule R1:"))
        code, _, err = run_cli(capsys, "check-rules", "--rules", str(rules))
        assert code == 1
        assert err.startswith("error: 8:6: duplicate rule id R1")

    @pytest.fixture(scope="class")
    def mutant_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutants") / "mutant.kcr"

    @settings(deadline=None, max_examples=100)
    @given(data=mutants(DEFAULT_RULES))
    @example(data=DEFAULT_RULES + next(r for r in DEFAULT_RULES.splitlines(True) if r.startswith(b"rule R1:")))
    def test_any_mutant_of_the_default_rules_gets_an_exit_code(self, mutant_path, data):
        # a ruleset loads, or is rejected at the line and column it names,
        # or at the line of a byte that is not UTF-8
        mutant_path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["check-rules", "--rules", str(mutant_path)])
        assert code in (0, 1), err.getvalue()[:500]
        where = r"error: ([1-9][0-9]*:[1-9][0-9]*|line [1-9][0-9]*): "
        assert code == 0 or re.match(where, err.getvalue()), err.getvalue()[:500]


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
            *(
                [command, arg, "--store", "x.dump", flag, "x"]
                for command, arg in (("query", "* * *"), ("explain", "f1"))
                for flag in ("--rules", "--sidmap", "--techniques", "--config")
            ),
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
