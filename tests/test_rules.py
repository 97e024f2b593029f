import dataclasses
import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcc import rules as rules_module
from kcc import scenario as scenario_module
from kcc.cli import _data_path, main as cli_main
from kcc.facts import Asserted, Derived, FactStore, Pattern
from kcc.rules import (
    Atom,
    Builtin,
    FixpointResult,
    RangeRestrictionViolation,
    Rule,
    RuleSet,
    RuleSyntaxError,
    UnknownPredicate,
    Var,
    parse_ruleset,
    run_to_fixpoint,
)

from kcc.scenario import load_scenario, replay
from kcc.vocab import VocabularyViolation

from conftest import FIXTURES, make_test_vocab
import oracles
from oracles import facts_above, generic_fixpoint, naive_fixpoint
from randomgen import random_batches, random_ruleset, random_store
from test_sweep import scenario_files

SRC = Asserted("test")
T0 = datetime(2017, 8, 15, 14, 0, 0, tzinfo=timezone.utc)

VOCAB = make_test_vocab()

R1_TEXT = (
    'rule R1: snortKind(?e,"portscan"), dstIp(?e,?h) '
    "=> hasPhaseEvidence(?h, phase:Reconnaissance).\n"
)


class TestParser:
    def test_single_rule_ast_shape(self, default_vocab):
        ruleset = parse_ruleset(R1_TEXT, default_vocab)
        assert len(ruleset) == 1
        rule = ruleset.rules[0]
        assert rule.rule_id == "R1"
        assert len(rule.body) == 2 and len(rule.body_atoms) == 2
        assert len(rule.head) == 1
        assert rule.body[0] == Atom("snortKind", Var("e"), "portscan", 1, 10)
        assert rule.head[0].obj == "phase:Reconnaissance"

    def test_empty_input(self):
        assert len(parse_ruleset("", VOCAB)) == 0
        assert len(parse_ruleset("# only comments\n", VOCAB)) == 0

    def test_range_restriction_violation(self):
        with pytest.raises(RangeRestrictionViolation):
            parse_ruleset("rule R1: p0(?a, ?b) => p1(?a, ?x).", VOCAB)

    def test_builtin_only_body_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_ruleset("rule R1: 1 < 2 => p0(n:a, n:b).", VOCAB)

    def test_builtin_with_unbound_variable_rejected(self):
        with pytest.raises(RuleSyntaxError, match="unbound"):
            parse_ruleset("rule R1: p0(?a, ?b), ?c > 1 => p1(?a, ?b).", VOCAB)

    def test_builtin_before_binding_atom_rejected(self):
        # static analysis is positional: the variable must be bound earlier
        with pytest.raises(RuleSyntaxError, match="unbound"):
            parse_ruleset("rule R1: p0(?a,?b), ?u > 1, q0(?a,?u) => p1(?a,?b).", VOCAB)

    def test_unknown_predicate(self, default_vocab):
        with pytest.raises(UnknownPredicate):
            parse_ruleset("rule R1: noSuchPred(?a, ?b) => dstIp(?a, ?b).", default_vocab)

    def test_constant_schema_mismatch(self, default_vocab):
        with pytest.raises(RuleSyntaxError):
            parse_ruleset('rule R1: cpuPercent(?e, "high") => dstIp(?e, ?e).', default_vocab)

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_ruleset("rule R1: p0(?a ?b) => p1(?a, ?b).", VOCAB)
        assert err.value.line == 1 and err.value.col > 0

    def test_newline_in_string_starts_a_line(self):
        text = 'rule R1: p0(?a, "x\ny"),\n  p0(?a, "\n\n") => p1(?a, ?u).'
        tokens = [(t.value, t.line, t.col) for t in rules_module._tokenize(text)]
        assert tokens[7:] == [
            ("x\ny", 1, 17), (")", 2, 3), (",", 2, 4),
            ("p0", 3, 3), ("(", 3, 5), ("a", 3, 6), (",", 3, 8), ("\n\n", 3, 10),
            (")", 5, 2), ("=>", 5, 4), ("p1", 5, 7), ("(", 5, 9), ("a", 5, 10),
            (",", 5, 12), ("u", 5, 14), (")", 5, 16), (".", 5, 17), (None, 5, 18),
        ]
        with pytest.raises(RangeRestrictionViolation) as err:
            parse_ruleset(text, VOCAB)
        assert (err.value.line, err.value.col) == (5, 7)

    def test_number_beyond_int_limit_carries_position(self):
        # CPython's int() refuses more than 4,300 digits by default
        with pytest.raises(RuleSyntaxError, match="number too long") as err:
            parse_ruleset(f"rule R1: p0(?a, ?b),\n  ?b > {'7' * 4301} => p1(?a, ?b).", VOCAB)
        assert (err.value.line, err.value.col) == (2, 8)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("foo R1: p0(?a, ?b) => p1(?a, ?b).", "1:1: expected 'rule'"),
            ("rule R1: p0(?a) => p1(?a, ?a).", "1:10: atom p0 must have exactly 2 terms"),
            ("rule R1: p0(?a, =) => p1(?a, ?a).", "1:17: expected term, got '='"),
            ("?", "1:1: bare '?'"),
            ("rule R1: p0(?, ?b) => p1(?a, ?b).", "1:13: bare '?'"),
            ("rule R1: p0(?a, ?b) => p1(?a, ?b) #c", "1:35: expected '.', got None"),
            ("rule R1: p0(?a, ?b) => p1(?a, ?b)   ", "1:37: expected '.', got None"),
            ("rule R1: p0(?a, ?b) => p1(?a, ?b)\r\n#c\r\n", "3:1: expected '.', got None"),
            ("rule R1: p0(?a, ?b)#c\n=> p1(?a, ?b)", "2:14: expected '.', got None"),
            ("rule R1: p0(?a,?b) => p1(?a,?b).\nrule R1: p0(?a,?b) => p2(?a,?b).\n", "2:6: duplicate rule id R1"),
            # the repeated id is met first, though the syntax error after it
            # would have been reported before an id check of the whole file
            ("rule R1: p0(?a,?b) => p1(?a,?b).\nrule R1: p0(?a ?b) => p2(?a,?b).\n", "2:6: duplicate rule id R1"),
        ],
    )
    def test_malformed_rule_named_at_its_position(self, text, message):
        with pytest.raises(RuleSyntaxError, match="^" + re.escape(message)):
            parse_ruleset(text, VOCAB)



# -- the one-regex tokenizer against the character-at-a-time oracle ------------

# pieces of rule text: escapes, "-" numbers, entity ids, non-ASCII words,
# comments, and characters no token takes ("²" is a digit int() refuses)
PIECES = [
    "rule", "R1", " ", "\t", "\r", "\n", "?x", "?", "?é_2", ":", ",", "(", ")", ".",
    "=>", "=", "!=", "<", "<=", ">", ">=", "!", '"a b"', '"\\""', '"\\\\"', '"x\\\ny"', '"p\nq"',
    '"', "\\", "-", "-4", "12", "3.5", "1.2.3", "٣", "²", "½", "ns:a.b-c", "_ns:x:y",
    "a:", "é", "Σx", "#c", "# c\n", "\x0b", "\xa0",
]
rule_texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
    st.text(st.one_of(st.sampled_from("".join(PIECES)), st.characters()), max_size=20),
)


def token_tuples(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
    except RuleSyntaxError as exc:
        return ("RuleSyntaxError", str(exc))


def test_tokenizer_matches_oracle_on_default_rules():
    text = _data_path("rules/default.kcr").read_text(encoding="utf-8")
    tokens = token_tuples(rules_module._tokenize, text)
    assert len(tokens) == 291
    assert tokens == token_tuples(oracles.charwise_tokenize, text)


def test_a_run_of_bad_characters_is_one_match():
    # once one match per bracket: 0.1 s to reject a line wrapped in 200,000
    text = _data_path("rules/default.kcr").read_text(encoding="utf-8")
    wrapped = text.replace("\nrule R1:", "\n" + "[" * 100_000 + "rule R1:", 1).replace(
        "phase:Reconnaissance).\n", "phase:Reconnaissance)." + "]" * 100_000 + "\n", 1
    )
    assert len(wrapped) == len(text) + 200_000
    assert len(rules_module._TOKEN.findall(wrapped)) <= len(rules_module._TOKEN.findall(text)) + 2
    with pytest.raises(RuleSyntaxError, match=r"^7:1: unexpected character '\['$"):
        rules_module._tokenize(wrapped)


@settings(deadline=None, max_examples=500)
@given(rule_texts)
def test_tokenizer_matches_charwise_oracle(text):
    try:
        expected = token_tuples(oracles.charwise_tokenize, text)
    except ValueError:  # the oracle's int() on a digit such as "²"
        with pytest.raises(RuleSyntaxError, match="unexpected character"):
            rules_module._tokenize(text)
    else:
        assert token_tuples(rules_module._tokenize, text) == expected


class TestObjectEquality:
    """Joins and builtins compare objects by ==, the store's own equality,
    and parsing coerces each constant object to its predicate's schema."""

    def test_int_beyond_float_range_against_decimal_constant(self, default_vocab):
        big = 10**400
        store = FactStore(default_vocab)
        store.insert([("event:e1", "byteCount", big)], SRC)
        text = "rule R: byteCount(?e, ?x), ?x = {} => hasIndicator(?e, indicator:Big)."
        rules = parse_ruleset(text.format(1.5), default_vocab)
        assert run_to_fixpoint(rules, store) == FixpointResult(1, 0)
        rules = parse_ruleset(text.format(big), default_vocab)
        assert run_to_fixpoint(rules, store) == FixpointResult(2, 1)

    def test_derived_subject_is_checked(self, default_vocab):
        # a head may put a string object in subject position; a derived fact
        # passes the store's subject check as an asserted one does
        store = FactStore(default_vocab)
        store.insert([("event:e1", "processName", "a b.exe")], SRC)
        rules = parse_ruleset("rule R: processName(?e, ?n) => observedEvent(?n, ?e).", default_vocab)
        with pytest.raises(VocabularyViolation, match="bad subject: 'a b.exe'"):
            run_to_fixpoint(rules, store)
        assert len(store) == 1

    def test_timestamp_constant_matches_an_inserted_timestamp(self, default_vocab):
        ts = datetime(2017, 8, 15, 14, 31, 0, tzinfo=timezone.utc)
        store = FactStore(default_vocab)
        store.insert([("event:e1", "eventTs", ts)], SRC)
        rules = parse_ruleset(
            'rule R: eventTs(?e, "2017-08-15T14:31:00Z") => hasIndicator(?e, indicator:Early).',
            default_vocab,
        )
        assert rules.rules[0].body[0].obj == ts
        assert run_to_fixpoint(rules, store) == FixpointResult(2, 1)
        assert store.get(2)[1:4] == ("event:e1", "hasIndicator", "indicator:Early")


def test_builtins_order_within_a_family_and_never_across(default_vocab):
    """`<` orders two timestamps, and two strings; a timestamp against a
    number neither holds nor raises under `<` or under `>=`."""
    store = FactStore(default_vocab)
    store.insert([("event:e1", "eventTs", T0)], SRC)
    store.insert([("event:e2", "eventTs", T0.replace(minute=1))], SRC)
    store.insert([("event:e1", "processName", "a.exe")], SRC)
    store.insert([("event:e2", "processName", "b.exe")], SRC)
    store.insert([("event:e1", "cpuPercent", 50.0)], SRC)
    rules = parse_ruleset(
        "rule T: eventTs(?e, ?t), eventTs(?f, ?u), ?t < ?u => hasIndicator(?e, indicator:Earlier).\n"
        "rule S: processName(?e, ?a), processName(?f, ?b), ?a < ?b => hasIndicator(?e, indicator:Lexical).\n"
        "rule M: eventTs(?e, ?t), cpuPercent(?e, ?c), ?t < ?c => hasIndicator(?e, indicator:Less).\n"
        "rule N: eventTs(?e, ?t), cpuPercent(?e, ?c), ?t >= ?c => hasIndicator(?e, indicator:NotLess).\n",
        default_vocab,
    )
    assert run_to_fixpoint(rules, store) == FixpointResult(2, 2)
    assert sorted(f[1:4] for f in store.query(Pattern.of(None, "hasIndicator"))) == [
        ("event:e1", "hasIndicator", "indicator:Earlier"),
        ("event:e1", "hasIndicator", "indicator:Lexical"),
    ]


class TestApplyRule:
    """One rule run to fixpoint on a fresh store."""

    @pytest.fixture()
    def store(self, default_vocab):
        return FactStore(default_vocab)

    def test_single_join(self, store, default_vocab):
        store.insert([("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:victim")], SRC)
        rules = parse_ruleset(R1_TEXT, default_vocab)
        assert run_to_fixpoint(rules, store) == FixpointResult(2, 1)
        (fact,) = facts_above(store, 2)
        assert fact[1:4] == ("host:victim", "hasPhaseEvidence", "phase:Reconnaissance")
        assert fact.provenance == Derived("R1", (1, 2))

    def test_unsatisfiable_builtin(self):
        store = FactStore(make_test_vocab())
        store.insert([("n:a", "q0", 3)], SRC)
        rules = parse_ruleset("rule R: q0(?e,?x), ?x > ?x => p0(?e, ?e).", VOCAB)
        assert run_to_fixpoint(rules, store) == FixpointResult(1, 0)
        assert len(store) == 1

    def test_head_already_materialized(self, store, default_vocab):
        store.insert([("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:victim")], SRC)
        store.insert([("host:victim", "hasPhaseEvidence", "phase:Reconnaissance")], SRC)
        rules = parse_ruleset(R1_TEXT, default_vocab)
        assert run_to_fixpoint(rules, store) == FixpointResult(1, 0)
        assert store.get(3).provenance == SRC

    def test_store_unmodified(self, store, default_vocab):
        # a store at fixpoint stays as it is, whether the rules start from
        # its first fact or from its newest
        store.insert([("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:victim")], SRC)
        rules = parse_ruleset(R1_TEXT, default_vocab)
        run_to_fixpoint(rules, store)
        lines = store.dump_lines()
        for since in (0, 2, store.watermark):
            assert run_to_fixpoint(rules, store, since=since) == FixpointResult(1, 0)
            assert store.dump_lines() == lines


class TestFixpoint:
    def test_empty_ruleset(self):
        store = random_store(random.Random(1))
        before = len(store)
        result = run_to_fixpoint(RuleSet([]), store)
        assert result.epochs == 1 and result.derived == 0
        assert len(store) == before

    def test_derived_facts_carry_provenance(self):
        store = FactStore(make_test_vocab())
        store.insert([("n:a", "p0", "n:b")], SRC)
        rules = parse_ruleset("rule R: p0(?x,?y) => p1(?y,?x).", VOCAB)
        run_to_fixpoint(rules, store)
        derived = [f for f in store.query(Pattern.of()) if isinstance(f.provenance, Derived)]
        assert len(derived) == 1
        assert derived[0].provenance.rule_id == "R"
        assert derived[0].provenance.premises == (1,)

    def test_transitive_chain_needs_epochs(self):
        store = FactStore(make_test_vocab())
        store.insert([("n:a", "p0", "n:b")], SRC)
        rules = parse_ruleset(
            "rule A: p0(?x,?y) => p1(?x,?y).\nrule B: p1(?x,?y) => p2(?x,?y).\n", VOCAB
        )
        result = run_to_fixpoint(rules, store)
        assert result.derived == 2
        assert result.epochs <= result.derived + 1

    def test_later_epoch_premises_prefer_first_delta_atom(self):
        # in epoch 2, p3(n:a, n:a) follows from p1 f4 (new) with p2 f3 (old)
        # at the first delta atom, and from p1 f2 (old) with p2 f5 (new) at
        # the second; the first delta atom wins although (2, 5) < (4, 3)
        store = FactStore(make_test_vocab())
        store.insert([("n:a", "p0", "n:b")], SRC)
        store.insert([("n:c", "p1", "n:e")], SRC)
        store.insert([("n:b", "p2", "n:d")], SRC)
        rules = parse_ruleset(
            "rule A: p0(?x,?y) => p1(?x,?y).\n"
            "rule B: p1(?x,?y), p2(?y,?z) => p3(n:a, n:a).\n"
            "rule C: p0(?x,?y) => p2(n:e, ?x).\n",
            VOCAB,
        )
        run_to_fixpoint(rules, store)
        assert store.get(4)[1:4] == ("n:a", "p1", "n:b")
        assert store.get(5)[1:4] == ("n:e", "p2", "n:a")
        (fact,) = store.query(Pattern.of("n:a", "p3", "n:a"))
        assert fact.provenance == Derived("B", (4, 3))

    def test_a_chain_of_1000_links_reaches_its_fixpoint(self):
        # each epoch derives the next p1 fact down the chain, so the run
        # takes one epoch per link and a last one that derives nothing
        triples = [(f"n:{i}", "p0", f"n:{i + 1}") for i in range(1000)]
        rules = parse_ruleset("rule T: p0(?a, ?b), p1(?b, ?m) => p1(?a, ?m).\n", VOCAB)
        dumps = []
        for fixpoint in (run_to_fixpoint, generic_fixpoint):
            store = FactStore(make_test_vocab())
            store.insert([*triples, ("n:1000", "p1", "n:end")], SRC)
            assert fixpoint(rules, store) == FixpointResult(epochs=1001, derived=1000)
            dumps.append(store.dump_lines())
        assert dumps[0] == dumps[1]

    def test_semi_naive_equals_naive_oracle(self):
        # the acceptance suite runs >=100 cases; keep a quick spot check here
        for seed in range(25):
            rng = random.Random(seed)
            store = random_store(rng)
            rules = random_ruleset(rng)
            expected = naive_fixpoint(rules.rules, {f[1:4] for f in store.query(Pattern.of())})
            result = run_to_fixpoint(rules, store)
            got = {f[1:4] for f in store.query(Pattern.of())}
            assert got == expected, f"seed {seed}"
            assert result.epochs <= result.derived + 1

    def test_monotonicity(self):
        rng = random.Random(42)
        rules = random_ruleset(rng, max_rules=8)
        base = random_store(rng, max_facts=60)
        base_triples = {f[1:4] for f in base.query(Pattern.of())}
        run_to_fixpoint(rules, base)
        smaller = {f[1:4] for f in base.query(Pattern.of())}

        bigger_store = FactStore(make_test_vocab())
        bigger_store.insert(sorted(base_triples, key=str), SRC)
        bigger_store.insert([("n:a", "p0", "n:e")], SRC)
        bigger_store.insert([("n:e", "q1", 4)], SRC)
        run_to_fixpoint(rules, bigger_store)
        assert smaller <= {f[1:4] for f in bigger_store.query(Pattern.of())}

    def test_order_invariance(self):
        rng = random.Random(99)
        store = random_store(rng, max_facts=80)
        triples = sorted({f[1:4] for f in store.query(Pattern.of())}, key=str)
        rules = random_ruleset(rng, max_rules=10)
        run_to_fixpoint(rules, store)
        reference = {f[1:4] for f in store.query(Pattern.of())}
        for seed in range(5):
            shuffler = random.Random(seed)
            facts = list(triples)
            shuffler.shuffle(facts)
            permuted_rules = list(rules.rules)
            shuffler.shuffle(permuted_rules)
            store2 = FactStore(make_test_vocab())
            store2.insert(facts, SRC)
            run_to_fixpoint(RuleSet(permuted_rules), store2)
            assert {f[1:4] for f in store2.query(Pattern.of())} == reference

    def test_determinism_byte_equal_dumps(self):
        def run(seed):
            rng = random.Random(seed)
            store = random_store(rng)
            rules = random_ruleset(rng)
            run_to_fixpoint(rules, store)
            return store.dump_lines()

        assert run(5) == run(5)


# 2**53 and 2**53 + 1 are unequal ints with one float value: an equality
# that compared numbers as floats would take them as equal, and == does not
BIG = 2**53


def _big(term):
    """Integers 3 and 4 as BIG and BIG + 1; any other term as it is."""
    if type(term) is int and term >= 3:
        return BIG + term - 3
    return term


def _with_big_ints(rule):
    def atom(a):
        return a._replace(obj=_big(a.obj))

    body = tuple(
        atom(item)
        if isinstance(item, Atom)
        else item._replace(left=_big(item.left), right=_big(item.right))
        for item in rule.body
    )
    return Rule(rule.rule_id, body, tuple(atom(a) for a in rule.head))


def _features(rule):
    """Which of the join's special cases `rule`'s body exercises."""
    found = set()
    for item in rule.body:
        if isinstance(item, Builtin):
            found.add("builtin")
            continue
        if not isinstance(item.subject, Var):
            found.add("constant subject")
        if isinstance(item.subject, Var) and item.obj == item.subject:
            found.add("p(?x, ?x)")
        if type(item.obj) is int:
            found.add("integer constant")
    subjects = [a.subject for a in rule.body_atoms if isinstance(a.subject, Var)]
    if len(set(subjects)) < len(subjects):
        found.add("atom before another with the same subject variable")
    return found


# two plans on the trigger p1 whose seed subject links to different
# predicates, so that each needs its own seed filter
SHARED_TRIGGER_RULES = parse_ruleset(
    "rule L1: p0(?x, ?y), p1(?x, ?z) => p2(?y, ?z).\n"
    "rule L2: p3(?x, ?y), p1(?x, ?z) => p2(?z, ?y).\n",
    VOCAB,
).rules


def test_compiled_plans_match_generic_fixpoint(monkeypatch):
    """Batch by batch, the compiled engine derives what the generic one
    derives, with the same ids and premises and the same (epochs, derived),
    and its joins return the same number of body matches: each match is
    found once.  Integer objects include BIG and BIG + 1, which only ==
    tells apart.  Every ruleset also holds SHARED_TRIGGER_RULES.  The seed
    filter both drops and keeps seeds: each seed it tests reads
    `FactStore.first` once, and a kept one reaches a join."""
    matches = {"compiled": 0, "generic": 0}
    tested, kept = [0], [0]
    linked_plans = set()  # the plans of seed groups with a linked predicate

    def counting(name, join):
        def counted(*args):
            rows = join(*args)
            matches[name] += len(rows)
            if name == "compiled" and args[0] in linked_plans:
                kept[0] += len(args[2])
            return rows

        return counted

    def counted_first(self, subject, predicate):
        tested[0] += 1
        return first(self, subject, predicate)

    first = FactStore.first
    monkeypatch.setattr(FactStore, "first", counted_first)
    monkeypatch.setattr(rules_module, "_join", counting("compiled", rules_module._join))
    monkeypatch.setattr(oracles, "_join", counting("generic", oracles._join))
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        facts = random_store(rng, 150).query(Pattern.of())
        triples = [(s, p, _big(o)) for s, p, o in (f[1:4] for f in facts)]
        rng.shuffle(triples)
        rules = RuleSet(
            [*map(_with_big_ints, random_ruleset(rng, 12).rules), *SHARED_TRIGGER_RULES]
        )
        for rule in rules.rules:
            seen |= _features(rule)
        linked_plans = {
            plan
            for groups in rules.triggers.values()
            for _, _, linked, plans in groups
            if linked is not None
            for plan in plans
        }
        compiled = FactStore(make_test_vocab())
        generic = FactStore(make_test_vocab())
        for batch in random_batches(rng, triples, 12):
            since = compiled.watermark
            for store in (compiled, generic):
                store.insert(batch, SRC)
            a = run_to_fixpoint(rules, compiled, since=since)
            b = generic_fixpoint(rules, generic, since=since)
            assert (a.epochs, a.derived) == (b.epochs, b.derived), f"seed {seed}"
            assert compiled.dump_lines() == generic.dump_lines(), f"seed {seed}"
            assert matches["compiled"] == matches["generic"], f"seed {seed}"
    assert seen == {
        "builtin",
        "constant subject",
        "p(?x, ?x)",
        "integer constant",
        "atom before another with the same subject variable",
    }
    assert tested[0] > kept[0] > 0


def test_joins_run_only_for_facts_a_rule_can_use(
    default_vocab, default_rules, monkeypatch
):
    """A fact starts a join only at a body atom of its predicate whose
    constants it matches."""
    seeded = []
    join = rules_module._join

    def counted(plan, lookup, seeds, lo):
        seeded.append((plan.rule_id, plan.steps[0].predicate))
        return join(plan, lookup, seeds, lo)

    monkeypatch.setattr(rules_module, "_join", counted)
    store = FactStore(default_vocab)

    def batch(*triples):
        since = store.watermark
        store.insert(triples, SRC)
        seeded.clear()
        return run_to_fixpoint(default_rules, store, since=since)

    # R10 asks for this technique, R9 for another
    batch(("malware:emotet", "usesTechnique", "technique:portscan"))
    assert seeded == [("R10", "usesTechnique")]
    # no rule body reads these predicates
    batch(
        ("event:e1", "eventTs", T0),
        ("event:e1", "srcIp", "host:10.0.0.9"),
        ("host:victim", "observedEvent", "event:e1"),
    )
    assert seeded == []
    # every snortKind atom asks for another kind
    assert batch(("event:e1", "snortKind", "unclassified")) == FixpointResult(1, 0)
    assert seeded == []
    # a dstIp atom takes any event, and finds no kind it asks for
    assert batch(("event:e1", "dstIp", "host:victim")) == FixpointResult(1, 0)
    assert sorted(seeded) == [(r, "dstIp") for r in ("R1", "R10", "R2", "R3", "R9")]
    # a portscan seeds only the snortKind atoms that ask for one, and its
    # dstIp, with no older kind for its event, seeds no join
    batch(("event:e2", "snortKind", "portscan"), ("event:e2", "dstIp", "host:victim"))
    assert [r for r, p in seeded if p == "snortKind"] == ["R1", "R10"]
    assert [r for r, p in seeded if p == "dstIp"] == []
    # a kind from an earlier batch, its last fact, lets the dstIp seed
    batch(("event:e3", "eventTs", T0), ("event:e3", "snortKind", "portscan"))
    assert batch(("event:e3", "dstIp", "host:other")) == FixpointResult(2, 3)
    assert sorted(r for r, p in seeded if p == "dstIp") == ["R1", "R10", "R2", "R3", "R9"]
    assert store.contains("host:other", "hasPhaseEvidence", "phase:Reconnaissance")


def test_first_batch_joins_only_plans_seeded_at_their_first_atom(tmp_path, monkeypatch):
    """`kcc ingest` of the Snort fixture, one batch into a fresh store: no
    fact is older than the delta, so no plan seeded past its first atom
    joins, though the log's portscans and malformed-SMB alerts seed R9 and
    R10 at their second atom."""
    joins = []
    join = rules_module._join

    def counted(plan, lookup, seeds, lo):
        joins.append((plan.rule_id, plan.pos, lo))
        return join(plan, lookup, seeds, lo)

    monkeypatch.setattr(rules_module, "_join", counted)
    log, dump = FIXTURES / "snort_fast.log", tmp_path / "snort.dump"
    assert cli_main(["ingest", "--type", "snort", str(log), "--dump", str(dump)]) == 0
    assert ("R1", 0, 0) in joins
    assert [j for j in joins if j[1] and not j[2]] == []


def test_most_joins_of_a_stream_replay_find_a_match(tmp_path, engine_config, monkeypatch):
    """On the seed-1 `stream_detect` replay, at least half of the joins
    return a row: a seed whose linked atom has no older fact starts none."""
    calls, found = [0], [0]
    join = rules_module._join

    def counted(*args):
        rows = join(*args)
        calls[0] += 1
        found[0] += bool(rows)
        return rows

    monkeypatch.setattr(rules_module, "_join", counted)
    name, path = next(scenario_files(tmp_path))
    assert name == "stream_detect-1"
    replay(load_scenario(path), engine_config)
    assert calls[0] and found[0] * 2 >= calls[0]


def test_stream_replay_filters_each_seed_group_once(tmp_path, engine_config, monkeypatch):
    """On the seed-1 `stream_detect` replay, the fixpoint's seed filter reads
    `FactStore.first` once per seed of each (trigger, constant subject,
    linked predicate) group an epoch, not once per plan: the five dstIp
    plans (R1-R3, R9, R10) share one filter.  Once per plan it read 1,146."""
    in_fixpoint, reads = [False], [0]
    first, run = FactStore.first, scenario_module.run_to_fixpoint

    def counted_first(self, subject, predicate):
        reads[0] += in_fixpoint[0]
        return first(self, subject, predicate)

    def counted_run(*args, **kwargs):
        in_fixpoint[0] = True
        try:
            return run(*args, **kwargs)
        finally:
            in_fixpoint[0] = False

    monkeypatch.setattr(FactStore, "first", counted_first)
    monkeypatch.setattr(scenario_module, "run_to_fixpoint", counted_run)
    name, path = next(scenario_files(tmp_path))
    assert name == "stream_detect-1"
    replay(load_scenario(path), engine_config)
    assert 0 < reads[0] < 500


def test_plan_order_does_not_matter(tmp_path, engine_config, golden_path, monkeypatch):
    """With the triggers, each trigger's seed groups and the plans within
    each group run in reverse order, the golden dump and the seed-1 `stream_detect` dump
    are unchanged and the stream makes the same 132 joins: a head keeps
    its least (rule index, rank) derivation whatever order plans run in."""
    calls = [0]
    join, compile_ = rules_module._join, rules_module._compile

    def counted(*args):
        calls[0] += 1
        return join(*args)

    def reversed_compile(rules):
        return {
            predicate: tuple((*key, plans[::-1]) for *key, plans in groups[::-1])
            for predicate, groups in reversed(compile_(rules).items())
        }

    def run(config):
        calls[0] = 0
        stream = replay(load_scenario(path), config).store.dump_lines()
        joins = calls[0]
        return replay(load_scenario(golden_path), config).store.dump_lines(), stream, joins

    name, path = next(scenario_files(tmp_path))
    assert name == "stream_detect-1"
    monkeypatch.setattr(rules_module, "_join", counted)
    golden, stream, joins = run(engine_config)
    monkeypatch.setattr(rules_module, "_compile", reversed_compile)
    rules = rules_module.load_ruleset(_data_path("rules/default.kcr"), engine_config.vocab)
    order = [(p.rule_index, p.pos) for groups in rules.triggers.values() for *_, ps in groups for p in ps]
    assert order != sorted(order)  # the reversal changed the order plans run in
    assert run(dataclasses.replace(engine_config, rules=rules)) == (golden, stream, joins)
    assert "".join(line + "\n" for line in golden) == (FIXTURES / "golden_store.dump").read_text()
    assert joins == 132
