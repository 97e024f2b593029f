import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcc.facts import FactStore
from kcc.ingest import (
    IngestError,
    MalformedLine,
    SidMap,
    TechniqueTable,
    commit_event,
    event_to_facts,
    extract_intel_from_text,
    make_event_id,
    parse_host_event,
    parse_intel_document,
    parse_snort_line,
)
from kcc.vocab import EventKind, VocabularyError

from conftest import FIXTURES, render_snort_line
from oracles import staged_snort_line

SNORT_LINE = (
    "08/15-14:31:07.123456  [**] [1:1000001:1] PSNG_TCP_PORTSCAN [**] "
    "[Classification: Attempted Information Leak] [Priority: 2] {TCP} "
    "192.168.56.101:44321 -> 192.168.56.102:445"
)

# independent field-extraction oracle: one flat regex over the whole line
_ORACLE_RE = re.compile(
    r"^(\d\d)/(\d\d)-(\d\d):(\d\d):(\d\d)\.(\d{6})\s+\[\*\*\]\s+"
    r"\[(\d+):(\d+):(\d+)\] (.*) \[\*\*\] \[Classification: (.*)\] "
    r"\[Priority: (\d+)\] \{(\w+)\} "
    r"([\d.]+)(?::(\d+))? -> ([\d.]+)(?::(\d+))?$"
)


def oracle_fields(line):
    m = _ORACLE_RE.match(line)
    assert m, line
    g = m.groups()
    return {
        "ts": tuple(int(x) for x in g[0:6]),
        "sig": (int(g[6]), int(g[7]), int(g[8])),
        "msg": g[9],
        "classification": g[10],
        "priority": int(g[11]),
        "proto": g[12],
        "src": (g[13], int(g[14]) if g[14] else None),
        "dst": (g[15], int(g[16]) if g[16] else None),
    }


def event_fields(event):
    ts = event.ts
    return {
        "ts": (ts.month, ts.day, ts.hour, ts.minute, ts.second, ts.microsecond),
        "sig": event.signature,
        "msg": event.message,
        "classification": event.classification,
        "priority": event.priority,
        "proto": event.proto,
        "src": (event.src_ip, event.src_port),
        "dst": (event.dst_ip, event.dst_port),
    }


class TestSnortParser:
    def test_portscan_line(self, sidmap):
        event = parse_snort_line(SNORT_LINE, sidmap, 2017)
        assert event.kind is EventKind.PORT_SCAN
        assert event.src_ip == "192.168.56.101"
        assert event.dst_ip == "192.168.56.102"
        assert event.dst_port == 445
        assert event.signature == (1, 1000001, 1)
        assert event.ts == datetime(
            2017, 8, 15, 14, 31, 7, 123456, tzinfo=timezone.utc
        )

    def test_fields_match_oracle_on_all_fixture_lines(self, sidmap):
        lines = (FIXTURES / "snort_fast.log").read_text().splitlines()
        assert len(lines) >= 10
        for line in lines:
            assert event_fields(parse_snort_line(line, sidmap, 2017)) == oracle_fields(line)

    def test_render_round_trips_fixture_lines(self, sidmap):
        for line in (FIXTURES / "snort_fast.log").read_text().splitlines():
            event = parse_snort_line(line, sidmap, 2017)
            assert render_snort_line(event) == line

    def test_garbage_line(self, sidmap):
        with pytest.raises(MalformedLine) as err:
            parse_snort_line("garbage", sidmap, 2017)
        assert err.value.column == 1

    def test_error_column_points_at_divergence(self, sidmap):
        broken = SNORT_LINE.replace("[Priority: 2]", "[Urgency: 2]")
        with pytest.raises(MalformedLine) as err:
            parse_snort_line(broken, sidmap, 2017)
        # column of the first stage that fails to match (the priority tag)
        assert err.value.column == SNORT_LINE.index(" [Priority") + 1

    @pytest.mark.parametrize(
        "old, new, stage_start",
        [
            ("[1:1000001:1]", f"[1:{'9' * 5000}:1]", "[1:"),
            ("102:445", f"102:{'4' * 5000}", "192.168.56.102"),
        ],
        ids=["sid", "port"],
    )
    def test_digit_group_beyond_int_limit_gives_stage_column(
        self, sidmap, old, new, stage_start
    ):
        # CPython's int() refuses more than 4,300 digits by default
        line = SNORT_LINE.replace(old, new)
        with pytest.raises(MalformedLine, match="number too long") as err:
            parse_snort_line(line, sidmap, 2017)
        assert err.value.column == line.index(stage_start) + 1

    def test_unmapped_sid_is_unclassified_with_fields(self, sidmap):
        line = SNORT_LINE.replace("[1:1000001:1]", "[1:9999999:1]")
        event = parse_snort_line(line, sidmap, 2017)
        assert event.kind is EventKind.UNCLASSIFIED
        assert event.src_ip == "192.168.56.101"
        assert event.dst_port == 445


# -- the one-pattern parser against the staged oracle ---------------------------
#
# Stages joined into one pattern could backtrack across each other and read
# a line differently; the staged parser is the reference for the event, or
# for the message and column of the error.

FIXTURE_LINES = (FIXTURES / "snort_fast.log").read_text().splitlines()


def mostly(common, rare):
    """Draws of `common`, and now and then of `rare` (one weight in eight)."""
    return st.sampled_from([common] * 7 + [rare]).flatmap(lambda drawn: drawn)


def two_digits(lo, hi):
    return mostly(st.integers(lo, hi), st.integers(0, 99)).map("{:02d}".format)


# past CPython's default int/str conversion limit of 4,300 digits
LONG = "7" * 4301
digits = mostly(st.integers(0, 10**6).map(str), st.just(LONG))
blanks = st.text(st.sampled_from(" \t"), min_size=1, max_size=3)
octets = mostly(st.integers(0, 255), st.integers(0, 999)).map(str)
addresses = st.tuples(octets, octets, octets, octets).map(".".join)
ports = st.one_of(st.just(""), digits.map(lambda d: ":" + d))
messages = st.text(st.sampled_from("ab 1:.-"), max_size=12)
classifications = st.text(st.sampled_from("ab :[."), min_size=1, max_size=12)
protocols = st.sampled_from(["TCP", "UDP", "x_1"])
endings = mostly(st.sampled_from(["", "\n"]), st.sampled_from([" ", " \n", "\n\n", "x"]))


@st.composite
def snort_lines(draw):
    """Lines in the fast-alert shape, with fields in and out of range."""
    stamp = "{}/{}-{}:{}:{}.{:06d}".format(
        draw(two_digits(1, 12)), draw(two_digits(1, 28)), draw(two_digits(0, 23)),
        draw(two_digits(0, 59)), draw(two_digits(0, 59)), draw(st.integers(0, 999999)),
    )
    sig = ":".join(draw(digits) for _ in range(3))
    src = draw(addresses) + draw(ports)
    dst = draw(addresses) + draw(ports)
    return (
        f"{stamp}{draw(blanks)}[**]{draw(blanks)}[{sig}] {draw(messages)} [**] "
        f"[Classification: {draw(classifications)}] [Priority: {draw(digits)}] "
        f"{{{draw(protocols)}}} {src} -> {dst}{draw(endings)}"
    )


@st.composite
def mutated_fixture_lines(draw):
    """A fixture line with one character deleted, inserted or replaced, or
    cut short."""
    line = draw(st.sampled_from(FIXTURE_LINES))
    at = draw(st.integers(0, len(line)))
    char = draw(st.sampled_from("0 9.:-*>[]{}\tx\né"))
    edit = draw(st.sampled_from(["delete", "insert", "replace", "cut"]))
    if edit == "insert":
        return line[:at] + char + line[at:]
    if edit == "cut":
        return line[:at]
    return line[:at] + (char if edit == "replace" else "") + line[at + 1:]


def parse_outcome(parse, line, sidmap):
    try:
        return parse(line, sidmap, 2017)
    except MalformedLine as exc:
        return ("MalformedLine", str(exc), exc.column)


@settings(deadline=None, max_examples=300)
@given(line=st.one_of(snort_lines(), mutated_fixture_lines()))
# two errors in one line: the one the staged parser meets first is reported
@example(line=SNORT_LINE.replace("[Priority: 2]", f"[Priority: {LONG}]").replace(":44321", f":{LONG}"))
@example(line=SNORT_LINE.replace("08/15", "13/15").replace(":1000001:", f":{LONG}:"))
def test_one_pattern_parser_matches_staged_oracle(sidmap, line):
    assert parse_outcome(parse_snort_line, line, sidmap) == parse_outcome(
        staged_snort_line, line, sidmap
    )


# the predicates the adapters emit themselves or the rule engine derives
RESERVED = (
    "snortKind", "srcIp", "dstIp", "hostKind", "onHost", "eventTs", "observedEvent",
    "isClass", "usesTechnique", "indicatesWith", "hasIndicator", "hasPhaseEvidence",
    "intelMatchedTechnique", "intelMatchedPhase", "attackDetected",
)

# values of each object schema, valid ones among them
ATTRIBUTE_VALUES = {
    "entity": st.sampled_from(
        ["phase:Delivery", "phase:ActionsOnObjectives", "malware:evil", "host:victim"]
    ),
    "string": st.text(min_size=1),
    "integer": st.integers(),
    "decimal": st.floats(allow_nan=False) | st.integers(),
    "timestamp": st.sampled_from(["2017-08-15T14:31:00Z", "2017-08-15T10:31:00-04:00"]),
}


def host_line(attrs):
    return json.dumps(
        {"agent": "process", "ts": "2017-08-15T14:31:00Z", "host": "host:victim",
         "type": "proc.stat", "attrs": attrs}
    )


class TestHostEvents:
    def test_proc_stat(self):
        event = parse_host_event(
            '{"agent":"process","ts":"2017-08-15T14:33:02Z","host":"host:victim",'
            '"type":"proc.stat","attrs":{"processName":"encryptor.exe","cpuPercent":93.5}}'
        )
        assert event.kind is EventKind.PROCESS_STAT
        assert event.attributes["cpuPercent"] == 93.5
        assert event.host == "host:victim"

    def test_missing_host_rejected(self):
        with pytest.raises(IngestError, match="host"):
            parse_host_event(
                '{"agent":"process","ts":"2017-08-15T14:33:02Z","type":"proc.stat"}'
            )

    def test_unknown_agent_rejected(self):
        with pytest.raises(IngestError, match="agent"):
            parse_host_event(
                '{"agent":"registry","ts":"2017-08-15T14:33:02Z",'
                '"host":"host:victim","type":"proc.stat"}'
            )

    def test_file_modified_with_boolean_attr(self):
        event = parse_host_event(
            '{"agent":"file","ts":"2017-08-15T14:34:00Z","host":"host:victim",'
            '"type":"file.modified","attrs":{"filePath":"C:\\\\Users\\\\a\\\\t.doc",'
            '"sensitive":true}}'
        )
        assert event.kind is EventKind.FILE_MODIFIED
        assert event.attributes["sensitive"] == 1

    def test_timezone_normalized_to_utc(self):
        event = parse_host_event(
            '{"agent":"file","ts":"2017-08-15T10:00:00-04:00","host":"host:v",'
            '"type":"file.modified"}'
        )
        assert event.ts == datetime(2017, 8, 15, 14, 0, tzinfo=timezone.utc)

    def test_unknown_type_maps_to_unclassified(self):
        event = parse_host_event(
            '{"agent":"file","ts":"2017-08-15T14:00:00Z","host":"host:v",'
            '"type":"file.archived"}'
        )
        assert event.kind is EventKind.UNCLASSIFIED

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "event must be a JSON object"),
            (host_line([]), "attrs must be an object"),
        ],
    )
    def test_malformed_event_rejected(self, line, message):
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            parse_host_event(line)

    @pytest.mark.parametrize("key", RESERVED)
    def test_attribute_named_after_an_emitted_or_derived_predicate_rejected(self, key):
        with pytest.raises(IngestError, match=f"attribute '{key}'"):
            parse_host_event(host_line({key: "malware:evil"}))

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_no_attribute_commits_alert_evidence(self, default_vocab, data):
        """Whatever attribute the vocabulary holds, a host event is rejected
        or commits no fact that alert assembly reads: replay assembles
        alerts only after a batch whose fixpoint derived a fact."""
        key = data.draw(st.sampled_from(sorted(default_vocab.predicates)))
        value = data.draw(ATTRIBUTE_VALUES[default_vocab.schema_of(key)])
        line = host_line({key: value})
        store = FactStore(default_vocab)
        try:
            commit_event(store, parse_host_event(line), make_event_id("host", line, 0))
        except (IngestError, VocabularyError):
            assert len(store) == 0
            return
        assert store.new_facts(0, ("hasPhaseEvidence", "attackDetected")) == {}
        assert key not in RESERVED

    def test_fixture_lines_emit_only_registered_predicates(self, default_vocab):
        store = FactStore(default_vocab)
        for i, line in enumerate(
            (FIXTURES / "host_events.jsonl").read_text().splitlines()
        ):
            # raises on unregistered predicates
            commit_event(store, parse_host_event(line), make_event_id("host", line, i))
        assert len(store) > 0


class TestIntel:
    def test_sentence_is_a_ransomware(self, techniques):
        triples = extract_intel_from_text("Wannacry is a ransomware", techniques)
        assert triples == [("malware:wannacry", "isClass", "class:ransomware")]

    def test_sentence_uses_technique(self, techniques):
        triples = extract_intel_from_text(
            "Wannacry uses Malformed SMB packets to exploit", techniques
        )
        assert triples == [
            ("malware:wannacry", "usesTechnique", "technique:malformed_smb_exploit")
        ]

    def test_new_class_variant_and_synonyms(self, techniques):
        assert extract_intel_from_text("Petya is a new ransomware.", techniques)
        assert extract_intel_from_text("NotPetya uses Eternal Blue", techniques) == [
            ("malware:notpetya", "usesTechnique", "technique:malformed_smb_exploit")
        ]

    def test_non_matching_sentence(self, techniques):
        assert extract_intel_from_text("The weather is nice", techniques) == []

    def test_benign_corpus_yields_zero_statements(self, techniques):
        sentences = (FIXTURES / "benign_sentences.txt").read_text().splitlines()
        assert len(sentences) == 20
        extracted = [
            s for line in sentences for s in extract_intel_from_text(line, techniques)
        ]
        assert extracted == []

    def test_document(self, techniques):
        triples = parse_intel_document(
            (FIXTURES / "intel_wannacry.json").read_text(), techniques
        )
        assert len(triples) == 2
        assert {p for _, p, _ in triples} == {"isClass", "usesTechnique"}

    def test_empty_document(self, techniques):
        assert parse_intel_document("[]", techniques) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "invalid JSON"),
            ('"x"', "document must be an object or array"),
            ('[{"labels": []}]', "entry 0: missing name"),
            ('[{"name": "x"}, {"name": "y", "labels": ["virus"]}]', "entry 1: unknown label 'virus'"),
            ('{"name": "x", "labels": "ransomware"}', "entry 0: labels must be a list"),
            ('{"name": "x", "uses": {"a": 1}}', "entry 0: uses must be a list"),
            ('{"name": "x", "indicators": "abc"}', "entry 0: indicators must be a list"),
            ('{"name": "x", "labels": [1]}', "entry 0: bad labels item 1"),
            ('{"name": "x", "uses": [["a"]]}', "entry 0: bad uses item ['a']"),
            ('{"name": "x", "indicators": [true]}', "entry 0: bad indicators item True"),
            ('{"name": "x", "indicators": [null]}', "entry 0: bad indicators item None"),
            # names and indicators that make no entity id, once stored or
            # rejected by the store with no entry named
            ('[{"name": "x"}, {"name": "a b", "labels": ["worm"]}]', "entry 1: bad name 'a b'"),
            ('{"name": null, "labels": ["worm"]}', "entry 0: bad name None"),
            ('{"name": "", "labels": ["worm"]}', "entry 0: bad name ''"),
            ('{"name": 5}', "entry 0: bad name 5"),
            ('{"name": "caf\\ud800"}', "entry 0: bad name 'caf\\ud800'"),
            ('{"name": "x", "indicators": ["a b"]}', "entry 0: bad indicators item 'a b'"),
            ('{"name": "x", "indicators": ["ok", "a\\tb"]}', "entry 0: bad indicators item 'a\\tb'"),
        ],
    )
    def test_malformed_document_rejected(self, techniques, text, message):
        with pytest.raises(IngestError, match=f"^{re.escape(message)}"):
            parse_intel_document(text, techniques)

    def test_indicators_are_strings_or_numbers(self, techniques):
        doc = '{"name": "X", "indicators": ["445", 445, 1.5]}'
        assert parse_intel_document(doc, techniques) == [
            ("malware:x", "indicatesWith", "indicator:445"),
            ("malware:x", "indicatesWith", "indicator:445"),
            ("malware:x", "indicatesWith", "indicator:1.5"),
        ]

    def test_unknown_technique_named_in_error(self, techniques):
        doc = json.dumps({"name": "x", "uses": ["technique:nope"]})
        with pytest.raises(IngestError, match="technique:nope"):
            parse_intel_document(doc, techniques)


class TestEventToFacts:
    def test_snort_event_mapping(self, sidmap):
        event = parse_snort_line(SNORT_LINE, sidmap, 2017)
        facts = event_to_facts(event, "event:e1")
        assert len(facts) == 5
        assert ("event:e1", "snortKind", "portscan") in facts
        assert ("host:192.168.56.102", "observedEvent", "event:e1") in facts
        assert ("event:e1", "srcIp", "host:192.168.56.101") in facts

    def test_host_event_without_attributes(self):
        event = parse_host_event(
            '{"agent":"process","ts":"2017-08-15T14:00:00Z","host":"host:v",'
            '"type":"proc.stat"}'
        )
        facts = event_to_facts(event, "event:e2")
        assert [(s, p) for s, p, _ in facts] == [
            ("event:e2", "hostKind"),
            ("event:e2", "onHost"),
            ("event:e2", "eventTs"),
            ("host:v", "observedEvent"),
        ]

    def test_intel_document_to_facts(self, techniques):
        facts = parse_intel_document(
            (FIXTURES / "intel_wannacry.json").read_text(), techniques
        )
        assert ("malware:wannacry", "isClass", "class:ransomware") in facts
        assert (
            "malware:wannacry",
            "usesTechnique",
            "technique:malformed_smb_exploit",
        ) in facts

    def test_every_kind_has_a_registered_mapping(self, default_vocab, sidmap):
        store = FactStore(default_vocab)
        for i, kind in enumerate(EventKind):
            event = parse_host_event(
                json.dumps(
                    {
                        "agent": "file",
                        "ts": "2017-08-15T14:00:00Z",
                        "host": "host:v",
                        "type": "ignored",
                    }
                )
            )
            event.kind = kind
            commit_event(store, event, f"event:k{i}")

    def test_event_id_content_derived(self):
        a = make_event_id("snort", SNORT_LINE, 0)
        b = make_event_id("snort", SNORT_LINE, 0)
        c = make_event_id("snort", SNORT_LINE, 1)
        assert a == b != c
        assert a.startswith("event:")


class TestConfigTables:
    def test_sidmap_rejects_bad_line(self):
        with pytest.raises(IngestError, match="^sidmap line 1: '1 PortScan'$"):
            SidMap.parse("1 PortScan\n")
        with pytest.raises(IngestError, match="^sidmap line 1: unknown event kind: 'NotAKind'$"):
            SidMap.parse("1:2 NotAKind\n")

    def test_technique_table_lookup_normalizes(self, techniques):
        assert (
            techniques.lookup("  Malformed   SMB  Packets ")
            == "technique:malformed_smb_exploit"
        )
        assert techniques.lookup("unknown thing") is None
