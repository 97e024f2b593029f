import math
import sys
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
)

from oracles import astimezone_parse_timestamp, chain_coerce, chain_is_entity_id


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

    def test_parse_render_round_trip(self):
        for phase in KillChainPhase:
            assert KillChainPhase.parse(phase.entity_id) is phase
            assert KillChainPhase.parse(phase.value) is phase

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            KillChainPhase.parse("phase:Lateral")


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
        assert vocab.version == 3
        assert vocab.schema_of("cpuPercent") == "decimal"

    def test_malformed_line_reports_position(self):
        with pytest.raises(VocabularyError, match="line 2"):
            parse_vocabulary("predicate a entity\npredicate broken\n")

    def test_default_vocab_covers_default_ruleset(
        self, default_vocab, default_rules
    ):
        for rule in default_rules:
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

