import dataclasses
import gc
import json
import platform
from datetime import timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcc import scenario as scenario_module
from kcc.cli import _data_path
from kcc.correlator import IndicatorState, extract_indicators
from kcc.facts import Asserted, Derived, FactStore, Pattern
from kcc.ingest import commit_event, make_event_id, parse_host_event
from kcc.rules import FixpointResult, parse_ruleset, run_to_fixpoint
from kcc.scenario import (
    SOURCE_TAGS,
    MalformedScenario,
    Scenario,
    load_scenario,
    replay,
)
from kcc.vocab import KillChainPhase, VocabularyError, parse_timestamp

from conftest import without_intel
from oracles import per_line_load_scenario
from test_sweep import scenario_files

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    """A snapshot made by the replay this engine must keep reproducing."""
    return (FIXTURES / name).read_text(encoding="utf-8")

TIER_RANK = {"Suspicion": 1, "Confirmed": 2}


def scenario_prefix(scenario, n_batches):
    lines = [l for ts, batch in scenario.batches()[:n_batches] for l in batch]
    return Scenario(f"{scenario.name}-prefix{n_batches}", lines, scenario.base_dir)


class TestLoadScenario:
    def test_golden_shape(self, golden_path):
        scenario = load_scenario(golden_path)
        events = [l for l in scenario.lines if l[1] in ("snort", "host")]
        intel = [l for l in scenario.lines if l[1].startswith("intel")]
        assert len(events) >= 12
        assert len(intel) == 2
        stamps = [ts for ts, _, _, _ in scenario.lines]
        assert stamps == sorted(stamps)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.scn"
        path.write_text("")
        scenario = load_scenario(path)
        assert scenario.lines == []

    def test_unparseable_snort_line_rejected(self, tmp_path, engine_config):
        path = tmp_path / "bad.scn"
        path.write_text("2017-08-15T14:31:00Z snort this is not snort\n")
        with pytest.raises(MalformedScenario, match="line 1: col 1: expected timestamp"):
            replay(load_scenario(path), engine_config)

    def test_unregistered_attribute_rejected_with_position(
        self, tmp_path, engine_config
    ):
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            '"host": "host:a", "type": "proc.stat", "attrs": {"pid": 4}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*pid"):
            replay(load_scenario(path), engine_config)
        store = FactStore(engine_config.vocab)
        with pytest.raises(VocabularyError, match="^unregistered predicate: pid$"):
            commit_event(store, parse_host_event(event), "event:e1")
        assert len(store) == 0

    def test_whitespace_in_host_rejected_with_position(self, tmp_path, engine_config):
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            '"host": "my box", "type": "proc.stat", "attrs": {}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*my box"):
            replay(load_scenario(path), engine_config)

    @pytest.mark.parametrize(
        "attrs", ['{"processName": "a:\\ud800"}', '{"cpuPercent": NaN}']
    )
    def test_unwritable_attribute_rejected_with_position(
        self, tmp_path, engine_config, attrs
    ):
        # json.loads turns the escape into a lone surrogate and accepts NaN
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            f'"host": "host:a", "type": "proc.stat", "attrs": {attrs}}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*does not match"):
            replay(load_scenario(path), engine_config)

    def test_int_too_long_to_write_rejected_with_position(self, tmp_path, engine_config):
        # json.loads refuses an int that str() could not write back
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            f'"host": "host:a", "type": "proc.stat", "attrs": {{"byteCount": {"9" * 5000}}}}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*integer"):
            replay(load_scenario(path), engine_config)

    def test_snort_number_too_long_rejected_with_position(self, tmp_path, engine_config):
        line = (
            f"08/15-14:31:07.123456  [**] [1:{'9' * 5000}:1] PSNG_TCP_PORTSCAN [**] "
            "[Classification: Attempted Information Leak] [Priority: 2] {TCP} "
            "192.168.56.101:44321 -> 192.168.56.102:445"
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z snort {line}\n")
        with pytest.raises(MalformedScenario, match="line 1: col 29: signature number too long"):
            replay(load_scenario(path), engine_config)

    def test_missing_intel_document_names_its_line(self, tmp_path, engine_config):
        path = tmp_path / "missing.scn"
        path.write_text("2017-08-15T14:31:00Z intel-doc nowhere.json\n")
        with pytest.raises(MalformedScenario) as info:
            replay(load_scenario(path), engine_config)
        assert str(info.value) == f"line 1: {tmp_path / 'nowhere.json'}: No such file or directory"

    def test_intel_document_name_with_a_nul_names_its_line(self, tmp_path, engine_config):
        # os.stat raises ValueError, not OSError, for a name no file has
        path = tmp_path / "nul.scn"
        path.write_text("2017-08-15T14:31:00Z intel-doc a\0b.json\n")
        with pytest.raises(MalformedScenario) as info:
            replay(load_scenario(path), engine_config)
        doc = tmp_path / "a\0b.json"
        assert str(info.value) == f"line 1: {doc}: not a regular file"

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("2017-08-15T14:31:00Z pcap whatever\n")
        with pytest.raises(MalformedScenario, match="^line 1: unknown source tag 'pcap'$"):
            load_scenario(path)

    def test_same_timestamp_ties_broken_by_file_order(self, golden_path):
        scenario = load_scenario(golden_path)
        for ts, batch in scenario.batches():
            linenos = [lineno for _, _, _, lineno in batch]
            assert linenos == sorted(linenos)

    def test_equal_instants_keep_file_order_not_tag_order(self, tmp_path):
        path = tmp_path / "tie.scn"
        path.write_text(
            "2017-08-15T14:32:00Z intel-text later\n"
            "2017-08-15T14:31:00Z snort b\n"
            "2017-08-15T16:31:00+02:00 host a\n"
        )
        rows = [(tag, lineno) for _, tag, _, lineno in load_scenario(path).lines]
        assert rows == [("snort", 2), ("host", 3), ("intel-text", 1)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline):
        path = tmp_path / "bad.scn"
        lines = [
            "# archive",
            "2017-08-15T14:31:00Z intel-text ok",
            "",
            "2017-08-15T14:32:00Z intel-text caf\xff",
        ]
        path.write_bytes(newline.join(lines).encode("latin-1") + b"\n")
        with pytest.raises(MalformedScenario) as info:
            load_scenario(path)
        assert info.value.lineno == 4
        assert str(info.value).startswith(
            "line 4: 'utf-8' codec can't decode byte 0xff in position 35"
        )

    def test_non_utf8_byte_past_the_first_chunk_names_its_line(self, tmp_path):
        # a text-mode read decodes ahead in chunks of several KB
        good = "2017-08-15T14:31:00Z intel-text " + "x" * 60 + "\n"
        path = tmp_path / "bad.scn"
        path.write_bytes((good * 400).encode() + b"2017-08-15T14:31:00Z host \xc3(\n")
        with pytest.raises(MalformedScenario, match="^line 401: .* position 26"):
            load_scenario(path)

    def test_non_utf8_intel_document_names_its_line(self, tmp_path, engine_config):
        doc = tmp_path / "intel.json"
        doc.write_bytes(b'[{"name": "ok"},\n {"name": "caf\xff"}]\n')
        path = tmp_path / "bad.scn"
        path.write_text("2017-08-15T14:31:00Z intel-doc intel.json\n")
        with pytest.raises(MalformedScenario) as info:
            replay(load_scenario(path), engine_config)
        assert info.value.lineno == 1
        assert str(info.value).startswith(
            f"line 1: {doc}: line 2: 'utf-8' codec can't decode byte 0xff in position 14"
        )

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="untracking tuples of untracked items is CPython's collector",
    )
    def test_lines_are_tuples_the_collector_stops_tracking(self, golden_path):
        # the set-up cost of a large scenario is mostly the collector's
        # traversals of its lines; a named tuple or a dataclass line stays
        # tracked for life
        scenario = load_scenario(golden_path)
        gc.collect()
        assert scenario.lines
        assert not [line for line in scenario.lines if gc.is_tracked(line)]

    def test_lines_share_their_tag_objects(self, golden_path):
        # a line holds its tag's SOURCE_TAGS constant, not the copy split
        # from its text: one string per tag, however many lines
        lines = load_scenario(golden_path).lines
        assert len({line[1] for line in lines}) > 1
        assert {id(line[1]) for line in lines} <= {id(tag) for tag in SOURCE_TAGS}


# the separators both readers split fields on, and none they split lines on
_BLANKS = " \t\x0b\x0c\xa0"
_STAMPS = [
    "2017-08-15T14:31:00Z",
    "2017-08-15T14:31:00+00:00",  # the instant above, written three more ways
    "2017-08-15T16:31:00+02:00",
    "2017-08-15T14:31:00",
    "2017-08-15T14:30:59.500000Z",
    "2017-08-15T14:32:00Z",
    "2017-08-14T23:00:00-05:00",
]


@st.composite
def scenario_texts(draw):
    """Scenario files, valid or with errors, as the readers' edge cases
    make them: blank and comment lines, odd blanks around fields, CRLF and
    CR endings, a last line with no newline, and tied timestamps."""
    blank = st.text(alphabet=_BLANKS, max_size=2)
    sep = st.text(alphabet=_BLANKS, min_size=1, max_size=2)
    payload = st.text(alphabet='ab{}":#' + _BLANKS + "\x85\u2028\x1c", min_size=1, max_size=8)
    stamp = st.sampled_from(_STAMPS)
    tag = st.sampled_from(SOURCE_TAGS)
    kinds = ["row"] * 12 + ["blank", "blank", "comment", "comment", "tag", "ts", "short"]
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        lead, trail = draw(blank), draw(blank)
        if kind == "row":
            body = f"{draw(stamp)}{draw(sep)}{draw(tag)}{draw(sep)}{draw(payload)}"
        elif kind == "blank":
            body = ""
        elif kind == "comment":
            body = f"#{draw(payload)}"
        elif kind == "tag":
            body = f"{draw(stamp)}{draw(sep)}pcap{draw(sep)}{draw(payload)}"
        elif kind == "ts":
            bad = draw(st.sampled_from(["2017-13-40T", "yesterday", "2017-08-15T25:00:00Z"]))
            body = f"{bad}{draw(sep)}{draw(tag)}{draw(sep)}{draw(payload)}"
        else:
            body = draw(st.sampled_from([draw(stamp), f"{draw(stamp)}{draw(sep)}{draw(tag)}"]))
        out.append(lead + body + trail)
        out.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if out and draw(st.booleans()):
        out.pop()  # the last line has no newline
    return "".join(out)


class TestReaderOracle:
    """`load_scenario` gives the rows, or the first error, of the reader it
    replaced (`oracles.per_line_load_scenario`)."""

    @settings(deadline=None, max_examples=400)
    @given(text=scenario_texts())
    @example(text="2017-08-15T14:31:00Z snort b\r\n2017-08-15T14:31:00+00:00 host a")
    @example(text="2017-08-15T14:31:00Z snort \x0cb \xa0\n\t# x\n \x0b\n2017-08-15T14:31:00Z host")
    def test_same_rows_or_first_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.scn"
        path.write_bytes(text.encode("utf-8"))

        def outcome(read):
            try:
                return [tuple(line) for line in read(path)], None
            except MalformedScenario as exc:
                return None, (type(exc), str(exc), exc.lineno)

        got = outcome(lambda p: load_scenario(p).lines)
        assert got == outcome(per_line_load_scenario)
        for row in got[0] or ():
            assert type(row) is tuple and row[0].tzinfo is timezone.utc


class TestGoldenReplay:
    @pytest.fixture()
    def transcript(self, golden_path, engine_config):
        return replay(load_scenario(golden_path), engine_config)

    def test_exactly_one_confirmed_alert(self, transcript):
        confirmed = [a for a in transcript.alerts if a.tier == "Confirmed"]
        assert len(confirmed) == 1 and len(transcript.alerts) == 1
        alert = confirmed[0]
        assert alert.host == "host:192.168.56.102"
        assert alert.malware == "malware:wannacry"
        assert set(alert.phases) >= {
            KillChainPhase.RECONNAISSANCE,
            KillChainPhase.EXPLOITATION,
            KillChainPhase.DELIVERY,
            KillChainPhase.ACTIONS_ON_OBJECTIVES,
        }

    def test_confirmed_no_later_than_last_batch_and_not_before_aoo(
        self, transcript
    ):
        first_confirmed = next(
            e["first_ts"] for e in transcript.alert_timeline if e["tier"] == "Confirmed"
        )
        last_batch_ts = transcript.batches[-1]["ts"]
        assert parse_timestamp(first_confirmed) <= parse_timestamp(last_batch_ts)
        # no Confirmed alert in any batch that precedes actions-on-objectives
        # evidence; at first appearance the alert already carries that phase
        for batch in transcript.batches:
            for alert in batch["alerts"]:
                if alert["tier"] == "Confirmed":
                    assert "ActionsOnObjectives" in alert["phases"]

    def test_matches_snapshots(self, golden_path, benign_path, engine_config):
        golden = replay(load_scenario(golden_path), engine_config)
        benign = replay(load_scenario(benign_path), engine_config)
        assert golden.to_json() + "\n" == fixture("golden_transcript.json")
        assert benign.to_json() + "\n" == fixture("benign_transcript.json")
        dump = "".join(line + "\n" for line in golden.store.dump_lines())
        assert dump == fixture("golden_store.dump")

    def test_asserted_provenance_shared_per_source(
        self, golden_path, engine_config, tmp_path
    ):
        store = replay(load_scenario(golden_path), engine_config).store
        path = tmp_path / "golden.dump"
        store.dump(path)
        for facts in (store, FactStore.load(path, engine_config.vocab)):
            provenances = [f.provenance for f in facts.query(Pattern.of())]
            asserted = [p for p in provenances if isinstance(p, Asserted)]
            assert len({id(p) for p in asserted}) == len({p.source for p in asserted}) > 1

    def test_replay_determinism(self, golden_path, engine_config):
        a = replay(load_scenario(golden_path), engine_config)
        b = replay(load_scenario(golden_path), engine_config)
        assert a.to_json() == b.to_json()
        assert a.store.dump_lines() == b.store.dump_lines()

    def test_prefix_monotonicity(self, golden_path, engine_config):
        scenario = load_scenario(golden_path)
        full = replay(scenario, engine_config)
        final = {a.host: TIER_RANK[a.tier] for a in full.alerts}
        n = len(scenario.batches())
        for k in range(1, n + 1):
            partial = replay(scenario_prefix(scenario, k), engine_config)
            for alert in partial.alerts:
                assert alert.host in final
                assert TIER_RANK[alert.tier] <= final[alert.host]

    def test_covers_observable_ransomware_actions(self, golden_path):
        scenario = load_scenario(golden_path)
        payloads = [payload for _, _, payload, _ in scenario.lines]
        downloads = [p for p in payloads if "file.net_created" in p]
        sensitive_mods = [
            p for p in payloads if "file.modified" in p and '"sensitive":true' in p
        ]
        hot_cpu = [
            p
            for p in payloads
            if "proc.stat" in p and json.loads(p)["attrs"]["cpuPercent"] > 80
        ]
        smb = [p for p in payloads if "1000002" in p]
        scans = [p for p in payloads if "1000001" in p]
        pulls = [p for p in payloads if "1000003" in p]
        assert len(downloads) >= 2  # encryptor binary + public key
        assert len(sensitive_mods) >= 5  # enumeration/encryption burst
        assert len(hot_cpu) >= 2  # encryption load
        assert smb and scans and pulls


def test_repeated_inputs_get_numbered_event_ids(tmp_path, engine_config):
    """The n-th identical (tag, payload) input of a run is event
    make_event_id(tag, payload, n), whether it repeats within a batch or
    in a later one, so no repeat folds into an earlier event."""
    snort = (FIXTURES / "snort_fast.log").read_text().splitlines()[0]
    host = '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:v","type":"proc.stat"}'
    path = tmp_path / "repeats.scn"
    path.write_text(
        f"2017-08-15T14:31:00Z snort {snort}\n"
        f"2017-08-15T14:31:00Z snort {snort}\n"
        f"2017-08-15T14:31:00Z host {host}\n"
        f"2017-08-15T14:32:00Z snort {snort}\n"
        f"2017-08-15T14:32:00Z host {host}\n"
    )
    store = replay(load_scenario(path), engine_config).store
    observed = [
        line.split()[3] for line in store.dump_lines() if line.split()[2] == "observedEvent"
    ]
    ids = [make_event_id("snort", snort, n) for n in (0, 1, 2)]
    ids += [make_event_id("host", host, n) for n in (0, 1)]
    assert len(set(ids)) == 5
    assert sorted(observed) == sorted(ids)


class TestAblationAndBenign:
    def test_intel_withheld_yields_one_suspicion(self, golden_path, engine_config):
        scenario = without_intel(load_scenario(golden_path))
        transcript = replay(scenario, engine_config)
        assert [a.tier for a in transcript.alerts] == ["Suspicion"]
        assert transcript.alerts[0].malware is None

    def test_benign_scenario_zero_alerts(self, benign_path, engine_config):
        transcript = replay(load_scenario(benign_path), engine_config)
        assert transcript.alerts == []
        for batch in transcript.batches:
            assert batch["alerts"] == []


class _AlwaysTrue(int):
    """A count that is true even at 0, and that json writes as the int."""

    def __bool__(self):
        return True


# the (kind predicate, kind token) pairs the indicator checks read
CHECK_KEYS = {
    ("hostKind", "file_modified"),
    ("hostKind", "proc_stat"),
    ("snortKind", "suspicious_download"),
    ("snortKind", "inbound_blocked"),
}


def test_quiet_batches_skip_alerts_and_unchecked_kinds(tmp_path, engine_config, monkeypatch):
    """On the seed-1 `stream_detect` replay, alerts are assembled exactly
    after the batches whose fixpoint derived a fact, with the transcript of
    a replay that assembles after every batch; and the indicator state
    hands the checks records of their four kinds only, though the stream
    holds other kinds."""
    calls, keys, kinds = [], set(), set()
    run, assemble, advance = (
        scenario_module.run_to_fixpoint, scenario_module.assemble_alerts, IndicatorState.advance
    )

    def counted_run(*args, **kwargs):
        result = run(*args, **kwargs)
        calls.append(("fixpoint", bool(result.derived)))
        return result

    def counted_assemble(*args, **kwargs):
        calls.append(("alerts",))
        return assemble(*args, **kwargs)

    def counted_advance(self, store):
        changed = advance(self, store)
        keys.update(changed)
        return changed

    name, path = next(scenario_files(tmp_path))
    assert name == "stream_detect-1"
    scenario = load_scenario(path)
    monkeypatch.setattr(scenario_module, "run_to_fixpoint", counted_run)
    monkeypatch.setattr(scenario_module, "assemble_alerts", counted_assemble)
    monkeypatch.setattr(IndicatorState, "advance", counted_advance)
    transcript = replay(scenario, engine_config)
    derived = [c[1] for c in calls if c[0] == "fixpoint"]
    assert len(derived) == len(scenario.batches()) > sum(derived) > 0
    assert calls == [c for d in derived for c in [("fixpoint", d)] + [("alerts",)] * d]
    assert keys <= CHECK_KEYS
    for pred in ("hostKind", "snortKind"):
        kinds.update((pred, f.obj) for f in transcript.store.query(Pattern.of(predicate=pred)))
    assert kinds - CHECK_KEYS

    def always_assembled(*args, **kwargs):
        result = counted_run(*args, **kwargs)
        return FixpointResult(result.epochs, _AlwaysTrue(result.derived))

    calls.clear()
    monkeypatch.setattr(scenario_module, "run_to_fixpoint", always_assembled)
    assert replay(scenario, engine_config).to_json() == transcript.to_json()
    assert calls.count(("alerts",)) == len(scenario.batches())


# a rule that derives a kind an indicator check reads
KIND_RULE = 'rule K: hostKind(?e, "unclassified"), cpuPercent(?e, ?c) => hostKind(?e, "proc_stat").\n'


def test_batch_is_closed_under_indicator_checks_and_rules(tmp_path, engine_config):
    """An indicator that a derived fact qualifies is asserted in the batch
    that derived it, and the rules then run on the indicator: the final
    store gains nothing from a fresh check or a whole-store fixpoint."""
    rules = parse_ruleset(_data_path("rules/default.kcr").read_text() + KIND_RULE, engine_config.vocab)
    config = dataclasses.replace(engine_config, rules=rules)
    events = [
        json.dumps({"agent": "process", "ts": "2017-08-15T14:31:00Z", "host": "host:a",
                    "type": "weird", "attrs": {"cpuPercent": cpu}})
        for cpu in (99, 98)
    ]
    path = tmp_path / "closure.scn"
    path.write_text("".join(f"2017-08-15T14:31:00Z host {event}\n" for event in events))
    transcript = replay(load_scenario(path), config)
    store = transcript.store
    [indicator] = store.query(Pattern.of("host:a", "hasIndicator", "indicator:HighCpuUsage"))
    [evidence] = store.query(Pattern.of("host:a", "hasPhaseEvidence", "phase:ActionsOnObjectives"))
    assert evidence.provenance == Derived("R6", (indicator.fact_id,))
    [batch] = transcript.batches
    assert (batch["indicator_facts"], batch["facts_derived"]) == (1, 3)
    assert extract_indicators(store, IndicatorState()) == []
    assert run_to_fixpoint(rules, store).derived == 0
