import math
import sys
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcc.vocab import (
    ConflictingSchema,
    EventKind,
    IndicatorKind,
    KillChainPhase,
    Vocabulary,
    VocabularyError,
    VocabularyViolation,
    is_entity_id,
    parse_timestamp,
    parse_vocabulary,
    render_timestamp,
)

from oracles import (
    astimezone_parse_timestamp, chain_coerce, chain_is_entity_id, isoformat_render_timestamp,
)


class TestKillChainPhase:
    def test_exactly_seven_members_in_canonical_order(self):
        assert [p.value for p in KillChainPhase] == [
            "Reconnaissance",
            "Weaponization",
            "Delivery",
            "Exploitation",
            "Installation",
            "CommandAndControl",
            "ActionsOnObjectives",
        ]


class TestEventKind:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            EventKind.from_label("DnsTunnel")

    def test_unclassified_is_distinguished(self):
        assert EventKind.UNCLASSIFIED.token == "unclassified"
        real = [k for k in EventKind if k is not EventKind.UNCLASSIFIED]
        assert len(real) == 7


class TestRegisterPredicate:
    def test_entity_registration(self):
        vocab = Vocabulary()
        vocab.register_predicate("hasPhaseEvidence", "entity")
        assert vocab.schema_of("hasPhaseEvidence") == "entity"

    def test_literal_registration(self):
        vocab = Vocabulary()
        vocab.register_predicate("cpuPercent", "decimal")
        assert vocab.schema_of("cpuPercent") == "decimal"

    def test_reregistration_idempotent(self):
        vocab = Vocabulary()
        vocab.register_predicate("cpuPercent", "decimal")
        vocab.register_predicate("cpuPercent", "decimal")
        assert len(vocab.predicates) == 1

    def test_conflicting_schema(self):
        vocab = Vocabulary()
        vocab.register_predicate("hasPhaseEvidence", "entity")
        with pytest.raises(ConflictingSchema):
            vocab.register_predicate("hasPhaseEvidence", "string")

    def test_bad_names_rejected(self):
        vocab = Vocabulary()
        for bad in ("", "1abc", "has phase", "a-b"):
            with pytest.raises(VocabularyError):
                vocab.register_predicate(bad, "entity")


class TestValidateFact:
    @pytest.fixture()
    def vocab(self):
        v = Vocabulary()
        v.register_predicate("cpuPercent", "decimal")
        v.register_predicate("observedEvent", "entity")
        return v

    def test_schema_match(self, vocab):
        assert vocab.coerce("cpuPercent", 93.5) == 93.5

    def test_type_mismatch(self, vocab):
        with pytest.raises(VocabularyViolation, match="schema decimal"):
            vocab.coerce("cpuPercent", "high")

    def test_unregistered_predicate(self, vocab):
        with pytest.raises(VocabularyViolation, match="unregistered"):
            vocab.coerce("unknownPred", 1)


class TestVocabularyFile:
    def test_parse_declarations(self):
        vocab = parse_vocabulary(
            "# comment\nversion 3\npredicate cpuPercent decimal\n"
        )
        assert vocab.schema_of("cpuPercent") == "decimal"
        # a version of ASCII digits is ignored, however long; any other is
        # no declaration
        assert parse_vocabulary(f"version {'9' * 5000}\n").predicates == {}
        with pytest.raises(VocabularyError, match="^line 2: malformed declaration: 'version \u00b2'$"):
            parse_vocabulary("predicate a entity\nversion \u00b2\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(VocabularyError, match="line 2"):
            parse_vocabulary("predicate a entity\npredicate broken\n")

    def test_unknown_schema_reports_position(self):
        with pytest.raises(VocabularyError, match="^line 1: bad object schema: 'blob'$"):
            parse_vocabulary("predicate x blob\n")

    def test_default_vocab_covers_default_ruleset(
        self, default_vocab, default_rules
    ):
        for rule in default_rules.rules:
            for atom in list(rule.body_atoms) + list(rule.head):
                assert default_vocab.schema_of(atom.predicate) is not None


class TestIndicatorKind:
    def test_four_members(self):
        assert len(IndicatorKind) == 4
        assert (
            IndicatorKind.MASS_FILE_MODIFICATION.entity_id
            == "indicator:MassFileModification"
        )


# one predicate per schema, and one left unregistered
SCHEMA_VOCAB = Vocabulary()
for _schema in ("entity", "string", "integer", "decimal", "timestamp"):
    SCHEMA_VOCAB.register_predicate(f"{_schema}Pred", _schema)
PREDICATES = sorted(SCHEMA_VOCAB.predicates) + ["unknownPred"]

TRICKY_TEXT = [
    "", " ", "host:a", "host:a b", "a:b\tc", "é:x", "✓", "a:\ud800", "\udfff",
    "\x00", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000", "\u200b", '"q:x',
    "2017-08-15T14:31:00Z", "2017-08-15T14:31:00+02:00", "2017-08-15", "high",
]
values = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from([10**5000, -(10**5000), 2**1100, 10**400, 2**2000]),
    st.floats(),  # NaN and both infinities included
    st.sampled_from(TRICKY_TEXT),
    st.text(st.characters(blacklist_categories=())),  # surrogates too
    st.text(st.sampled_from(" \t\n\x0b\x85\u2028\u3000:aé\ud800"), max_size=6),
    st.datetimes(),
    st.datetimes(
        timezones=st.builds(
            timezone, st.timedeltas(timedelta(hours=-23), timedelta(hours=23))
        )
    ),
    st.none(),
    st.just(b"host:a"),
    st.lists(st.integers(), max_size=2),
)


def outcome(fn, *args):
    """What a call gives: its value with its type (and tzinfo), or its error
    type and message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(value, float) and math.isnan(value):
        value = "nan"
    return ("returns", type(value), value, getattr(value, "tzinfo", None))


class TestCoerceMatchesChainOracle:
    @settings(deadline=None, max_examples=400)
    @given(st.sampled_from(PREDICATES), values)
    @example("integerPred", True)
    @example("decimalPred", True)
    @example("decimalPred", 10**400)
    @example("decimalPred", math.nan)
    @example("stringPred", "a:\ud800")
    @example("entityPred", "a\u3000b")
    @example("entityPred", "a:b\tc")
    @example("timestampPred", datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))))
    def test_same_value_or_same_error(self, predicate, obj):
        assert outcome(SCHEMA_VOCAB.coerce, predicate, obj) == outcome(
            chain_coerce, SCHEMA_VOCAB, predicate, obj
        )

    def test_entity_check_agrees_on_every_code_point(self):
        # both checks are a test per character, so single characters cover
        # every character class the printable fast path may meet
        texts = [chr(code) for code in range(sys.maxunicode + 1)]
        verdicts = zip(texts, map(is_entity_id, texts), map(chain_is_entity_id, texts))
        assert [hex(ord(t)) for t, fast, chain in verdicts if fast != chain] == []


offsets = st.integers(-23 * 60 - 59, 23 * 60 + 59).map(lambda m: timezone(timedelta(minutes=m)))


class TestParseTimestamp:
    """`parse_timestamp` returns a UTC input as `fromisoformat` reads it,
    where the copy in `oracles` went on to `astimezone`."""

    @settings(deadline=None, max_examples=400)
    @given(
        st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)),
        st.sampled_from(["Z", "+00:00", "offset", "naive"]),
        offsets,
    )
    @example(datetime(2017, 8, 15, 14, 31), "Z", timezone.utc)
    @example(datetime(2017, 8, 15, 14, 31, 0, 500000), "offset", timezone(timedelta(hours=-5)))
    def test_same_result_as_before(self, naive, form, offset):
        if form == "naive":
            text = naive.isoformat()
        elif form == "offset":
            text = naive.replace(tzinfo=offset).isoformat()
        else:
            text = naive.isoformat() + form
        got = parse_timestamp(text)
        want = astimezone_parse_timestamp(text)
        assert got == want and repr(got) == repr(want)
        assert got.tzinfo is timezone.utc

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+05:00", "9999-12-31T23:00:00-05:00"])
    def test_offset_time_outside_the_utc_range_rejected(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999 in UTC"):
            parse_timestamp(text)
        for obj in (text, datetime.fromisoformat(text)):
            with pytest.raises(VocabularyViolation, match="schema timestamp"):
                SCHEMA_VOCAB.coerce("timestampPred", obj)


LAST = datetime(9999, 12, 31, 23, 59, 59, 999999)


@pytest.fixture()
def tokyo_time(monkeypatch):
    """Local time nine hours ahead of UTC for the test, then as before."""
    monkeypatch.setenv("TZ", "Asia/Tokyo")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestRenderTimestamp:
    """`render_timestamp` formats the fields itself; on every aware time
    it writes what the isoformat copy in `oracles` wrote, and its text
    parses back to the same instant."""

    @settings(deadline=None, max_examples=500)
    @given(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=LAST),
        st.booleans(),
        st.one_of(st.just(timezone.utc), offsets, st.sampled_from([
            timezone(timedelta(hours=14)),
            timezone(timedelta(hours=-12)),
            timezone(timedelta(hours=5, minutes=30)),
            timezone(timedelta(seconds=-1)),
        ])),
    )
    @example(datetime(1, 1, 1), False, timezone.utc)
    @example(LAST, True, timezone.utc)
    @example(datetime(2017, 8, 15, 14, 31, 0, 1), True, timezone.utc)
    @example(datetime(1, 1, 1, 3), False, timezone(timedelta(hours=5)))  # before year 1 in UTC
    @example(LAST, True, timezone(timedelta(hours=-1)))  # after year 9999 in UTC
    def test_same_text_as_isoformat(self, naive, fraction, zone):
        ts = (naive if fraction else naive.replace(microsecond=0)).replace(tzinfo=zone)
        want = outcome(isoformat_render_timestamp, ts)
        got = outcome(render_timestamp, ts)
        if want[0] == "returns":
            assert got == want
            assert parse_timestamp(want[2]) == ts
        else:  # the time in UTC falls outside years 1-9999: a ValueError now
            assert want[1] is OverflowError
            assert got[:2] == ("raises", ValueError)

    def test_naive_time_is_utc_not_local_time(self, tokyo_time):
        naive = datetime(2017, 8, 15, 6)
        assert naive.astimezone(timezone.utc).hour == 21  # local time is UTC+9
        assert render_timestamp(naive) == "2017-08-15T06:00:00Z"
        assert render_timestamp(naive) == render_timestamp(parse_timestamp("2017-08-15T06:00:00"))
        assert render_timestamp(datetime(1, 1, 1)) == "0001-01-01T00:00:00Z"

