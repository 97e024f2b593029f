import gc
import random
import re
import time
from datetime import datetime, timedelta, timezone
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcc import facts
from kcc.cli import main
from kcc.correlator import assemble_alerts
from kcc.facts import (
    Asserted,
    Derived,
    FactStore,
    FactStoreError,
    Pattern,
    UnknownFact,
    parse_fact_id,
    render_triple,
)
from kcc.vocab import VocabularyViolation

from conftest import make_test_vocab
from oracles import (
    facts_above, full_scan_query, tree_explain, tree_leaves, tree_render, tree_timespan,
)

SRC = Asserted("test")


@pytest.fixture()
def store(default_vocab):
    return FactStore(default_vocab)


class EqualToEveryString(str):
    """A str that compares equal to any string, whatever its text."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return isinstance(other, str)

    def __ne__(self, other):
        return not isinstance(other, str)


class TestInsert:
    def test_empty_store_insert(self, store):
        assert store.insert([("host:victim", "observedEvent", "event:e1")], SRC) == [1]
        assert len(store) == 1

    def test_set_semantics(self, store):
        store.insert([("host:victim", "observedEvent", "event:e1")], SRC)
        assert store.insert([("host:victim", "observedEvent", "event:e1")], SRC) == []
        assert len(store) == 1

    def test_idempotency_many(self, store):
        for _ in range(10):
            store.insert([("host:victim", "cpuPercent", 93.5)], SRC)
        assert len(store) == 1

    def test_literals_compare_by_typed_value(self, store):
        store.insert([("host:victim", "cpuPercent", 93.50)], SRC)
        assert store.insert([("host:victim", "cpuPercent", 93.5)], SRC) == []

    def test_vocabulary_violation(self, store):
        with pytest.raises(VocabularyViolation):
            store.insert([("host:victim", "notAPredicate", "x:y")], SRC)
        with pytest.raises(VocabularyViolation):
            store.insert([("host:victim", "cpuPercent", "high")], SRC)

    def test_monotone_ids(self, store):
        ids = []
        for i in range(5):
            ids += store.insert([(f"event:e{i}", "snortKind", "portscan")], SRC)
        assert ids == sorted(ids) and len(ids) == 5

    @pytest.mark.parametrize(
        "subject, predicate, obj",
        [
            ("host:my box", "observedEvent", "event:e1"),
            ("event:e1\t2", "snortKind", "portscan"),
            ("host:v", "observedEvent", "event:e1\n"),
        ],
    )
    def test_whitespace_in_entity_ids_rejected(self, store, subject, predicate, obj):
        with pytest.raises(VocabularyViolation):
            store.insert([(subject, predicate, obj)], SRC)
        assert len(store) == 0

    @pytest.mark.parametrize(
        "subject, predicate, obj",
        [
            ("event:e1", "processName", "a:\ud800"),
            ("event:e1", "onHost", "host:\udc00"),
            ("host:\ud800", "observedEvent", "event:e1"),
            ("event:e1", "cpuPercent", float("nan")),
            ("event:e1", "cpuPercent", float("inf")),
            ("event:e1", "cpuPercent", float("-inf")),
            ("event:e1", "cpuPercent", 10**400),
            ("event:e1", "byteCount", 10**5000),
        ],
        ids=["string", "entity", "subject", "nan", "inf", "-inf", "huge-int", "long-int"],
    )
    def test_unwritable_values_rejected(self, store, subject, predicate, obj):
        # a surrogate cannot be written as UTF-8, and NaN is unequal to
        # itself, so a second insert would add a second fact
        for _ in range(2):
            with pytest.raises(VocabularyViolation):
                store.insert([(subject, predicate, obj)], SRC)
        assert len(store) == 0

    def test_longest_writable_ints_round_trip(self, store, default_vocab):
        # CPython writes ints of up to 4,300 digits by default
        for i, value in enumerate((10**4299, -(10**4299), 2**2000)):
            store.insert([(f"event:e{i}", "byteCount", value)], SRC)
        reloaded = FactStore.load_lines(store.dump_lines(), default_vocab)
        assert reloaded.dump_lines() == store.dump_lines()

    def test_provenance_label_must_be_one_token(self, store):
        with pytest.raises(FactStoreError, match="bad provenance"):
            store.insert([("host:v", "observedEvent", "event:e1")], Asserted("my feed"))
        assert len(store) == 0

    def test_derived_requires_existing_premises(self, store):
        with pytest.raises(UnknownFact):
            store.insert([("host:v", "hasPhaseEvidence", "phase:Delivery")], Derived("R1", (99,)))
        with pytest.raises(Exception):
            store.insert([("host:v", "hasPhaseEvidence", "phase:Delivery")], Derived("R1", ()))

    def state(self, store):
        return len(store), store.watermark, store.dump_lines()

    @pytest.mark.parametrize(
        "bad",
        [
            ("host:my box", "observedEvent", "event:e9"),
            ("event:e9", "cpuPercent", "high"),
            ("event:e9", "notAPredicate", "x:y"),
            ("event:e9", "eventTs", "yesterday"),
        ],
        ids=["subject", "object", "predicate", "timestamp"],
    )
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_bad_triple_after_valid_ones_changes_nothing(self, store, bad, as_generator):
        store.insert([("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:v")], SRC)
        before = self.state(store)
        triples = [
            ("event:e2", "snortKind", "portscan"),
            ("event:e2", "eventTs", "2017-08-15T14:31:00Z"),
            ("host:v", "observedEvent", "event:e2"),
            bad,
        ]
        with pytest.raises(VocabularyViolation):
            store.insert(iter(triples) if as_generator else triples, SRC)
        assert self.state(store) == before

    def test_bad_provenance_after_valid_triples_changes_nothing(self, store):
        before = self.state(store)
        with pytest.raises(FactStoreError):
            store.insert([("event:e1", "snortKind", "portscan")], Asserted("my feed"))
        with pytest.raises(UnknownFact):
            store.insert([("host:v", "hasPhaseEvidence", "phase:Delivery")], Derived("R1", (7,)))
        assert self.state(store) == before

    @pytest.mark.parametrize(
        "subjects",
        [
            ["event:e1", "event:my e2", "event:e1"],
            ["event:e1", "event:e2", "event:\ud800"],
            ["event:e1", EqualToEveryString("event:my e1")],
        ],
        ids=["alternating", "last", "equal-but-bad"],
    )
    def test_every_subject_is_checked(self, store, subjects):
        with pytest.raises(VocabularyViolation, match="bad subject"):
            store.insert([(s, "snortKind", "portscan") for s in subjects], SRC)
        assert len(store) == 0

    def test_subject_checked_again_unless_the_same_object(self, store, monkeypatch):
        checked = []
        monkeypatch.setattr(facts, "_check_subject", checked.append)
        a, b = "event:e1", "event:e2"
        copy = "".join(["event:", "e1"])  # equal to a, another object
        assert copy == a and copy is not a
        store.insert([(s, "snortKind", "portscan") for s in (a, b, a, copy, copy)], SRC)
        assert checked == [a, b, a, copy]
        assert checked[3] is copy and len(store) == 2


class TestFactRecord:
    def test_fields_are_read_only(self, store):
        [fid] = store.insert([("host:v", "observedEvent", "event:e1")], SRC)
        fact = store.get(fid)
        for field in ("fact_id", "subject", "predicate", "obj", "provenance"):
            with pytest.raises(AttributeError):
                setattr(fact, field, None)
        assert fact[1:4] == ("host:v", "observedEvent", "event:e1")


class TestQuery:
    def test_empty_store(self, store):
        assert store.query(Pattern.of(None, "hasPhaseEvidence")) == []

    def test_membership(self, store):
        store.insert([("host:v", "observedEvent", "event:e1")], SRC)
        assert len(store.query(Pattern.of("host:v", "observedEvent", "event:e1"))) == 1
        assert store.query(Pattern.of("host:v", "observedEvent", "event:e2")) == []

    def test_results_sorted_by_fact_id(self, store):
        for i in (3, 1, 2):
            store.insert([(f"event:e{i}", "snortKind", "portscan")], SRC)
        facts = store.query(Pattern.of(None, "snortKind"))
        assert [f.fact_id for f in facts] == sorted(f.fact_id for f in facts)

    def test_star_object_is_a_literal(self, store):
        store.insert([("event:e1", "processName", "*")], SRC)
        store.insert([("event:e2", "processName", "cmd.exe")], SRC)
        (fact,) = store.query(Pattern.of(None, "processName", "*"))
        assert fact.subject == "event:e1"
        assert len(store.query(Pattern.of(None, "processName"))) == 2

    def test_indexed_query_matches_full_scan_oracle(self):
        rng = random.Random(7)
        vocab = make_test_vocab()
        entities = [f"n:{c}" for c in "abcde"]
        preds = ["p0", "p1", "p2", "q0"]
        for trial in range(30):
            store = FactStore(vocab)
            triples = set()
            for _ in range(rng.randrange(0, 500)):
                p = rng.choice(preds)
                o = rng.randrange(5) if p == "q0" else rng.choice(entities)
                s = rng.choice(entities)
                store.insert([(s, p, o)], SRC)
                triples.add((s, p, o))
            for _ in range(10):
                s = rng.choice([None, rng.choice(entities)])
                p = rng.choice([None, rng.choice(preds)])
                if rng.random() < 0.5:
                    pattern = Pattern.of(s, p)
                    expected = full_scan_query(triples, s, p, None, True)
                else:
                    o = rng.randrange(5) if p == "q0" else rng.choice(entities)
                    pattern = Pattern.of(s, p, o)
                    expected = full_scan_query(triples, s, p, o, False)
                got = {f[1:4] for f in store.query(pattern)}
                assert got == expected


class TestIndexes:
    """Each index answers in id order, whether a (subject, predicate) pair
    holds one fact, two or three, and whether the store was built by
    inserts or by a load."""

    @pytest.fixture(params=["inserted", "loaded"])
    def built(self, request, default_vocab):
        store = FactStore(default_vocab)
        # the observedEvent pairs of host:a, host:b and host:c get three
        # facts, two and one, interleaved with each other and with host:a's
        # dstIp (two facts) and onHost (one) pairs
        for i in range(3):
            for host in ("host:a", "host:b", "host:c")[: 3 - i]:
                store.insert([(host, "observedEvent", f"event:e{i}")], SRC)
            store.insert([("host:a", "onHost" if i % 2 else "dstIp", f"host:x{i}")], SRC)
        if request.param == "loaded":
            store = FactStore.load_lines(store.dump_lines(), default_vocab)
        return store

    def test_every_index_matches_a_scan_in_id_order(self, built):
        facts = built.query(Pattern.of())
        assert [f.fact_id for f in facts] == sorted(f.fact_id for f in facts)
        for s in (None, "host:a", "host:b", "host:c", "host:none"):
            for p in (None, "observedEvent", "onHost", "dstIp", "srcIp"):
                want = [
                    f for f in facts
                    if s in (None, f.subject) and p in (None, f.predicate)
                ]
                assert built.query(Pattern.of(s, p)) == want, (s, p)
        sizes = [len(built.query(Pattern.of(h, "observedEvent")))
                 for h in ("host:a", "host:b", "host:c")]
        assert sizes == [3, 2, 1]

    def test_answers_are_copies_of_what_the_store_holds(self, built, default_vocab):
        # a caller may change an answer: the store and its next answer do
        # not change, and the answer holds the stored records themselves
        for store in (built, _sparse_store(default_vocab)):
            dump = store.dump_lines()
            for s in (None, "host:a", "host:b", "host:c", "host:none"):
                for p in (None, "observedEvent", "onHost", "dstIp", "srcIp"):
                    reads = [partial(store.query, Pattern.of(s, p))]
                    if p is not None:
                        reads.append(partial(store.lookup, s, p))
                    for read in reads:
                        want = read()
                        assert all(f is store.get(f.fact_id) for f in want)
                        for change in (lambda facts: facts.append(None), list.clear):
                            change(read())
                            assert read() == want, (s, p)
            assert store.dump_lines() == dump

    def test_lookup_matches_query(self, built):
        for s in (None, "host:a", "host:b", "host:c", "host:none"):
            for p in ("observedEvent", "onHost", "dstIp", "srcIp"):
                assert built.lookup(s, p) == built.query(Pattern.of(s, p)), (s, p)

    def test_object_constant_on_a_one_fact_pair(self, built):
        (fact,) = built.query(Pattern.of("host:c", "observedEvent", "event:e0"))
        assert fact[1:4] == ("host:c", "observedEvent", "event:e0")
        assert built.query(Pattern.of("host:c", "observedEvent", "event:e1")) == []

    def test_one_fact_pairs_cost_no_container_each(self, default_vocab):
        # counts objects the collector tracks, not time: with a list per
        # (subject, predicate) pair a fact costs about 2.25 of them here
        preds = ("srcIp", "dstIp", "onHost", "observedEvent")
        n = 4000
        lines = [
            f"f{i + 1} event:e{i // 4} {preds[i % 4]} host:h{i} asserted:host"
            for i in range(n)
        ]
        gc.collect()
        before = len(gc.get_objects())
        store = FactStore.load_lines(lines, default_vocab)
        gc.collect()
        per_fact = (len(gc.get_objects()) - before) / n
        assert len(store) == n
        assert per_fact < 1.5

    # the collector's allocation count between collections, which the test
    # above cannot see: it counts only what survives a collection.  A key
    # tuple built per fact to file it would make a fact cost about 2.25.
    ONE_FACT_PAIRS = [
        (f"event:e{i // 4}", ("srcIp", "dstIp", "onHost", "observedEvent")[i % 4], f"host:h{i}")
        for i in range(4000)
    ]

    @staticmethod
    def _tracked_allocations(build):
        """What `build()` returns, and the growth of the collector's
        generation-0 count while it ran, with the collector off."""
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            built = build()
            return built, gc.get_count()[0] - before
        finally:
            gc.enable()

    def test_load_allocates_under_one_and_a_half_tracked_objects_a_fact(self, default_vocab):
        lines = [
            f"f{i} {s} {p} {o} asserted:host" for i, (s, p, o) in enumerate(self.ONE_FACT_PAIRS, 1)
        ]
        store, allocated = self._tracked_allocations(partial(FactStore.load_lines, lines, default_vocab))
        assert len(store) == len(lines)
        assert allocated / len(lines) < 1.5

    def test_insert_allocates_under_one_and_a_half_tracked_objects_a_fact(self, default_vocab):
        triples, source = self.ONE_FACT_PAIRS, Asserted("host")
        store = FactStore(default_vocab)

        def build():
            for i in range(0, len(triples), 4):
                store.insert(triples[i:i + 4], source)

        _, allocated = self._tracked_allocations(build)
        assert len(store) == len(triples)
        assert allocated / len(triples) < 1.5

    def test_reads_of_what_the_store_never_held_keep_nothing(self, built):
        # a read of a predicate or subject with no fact answers that it has
        # none, and keeps nothing the collector tracks: not an entry per
        # predicate or pair read, as a defaultdict lookup would add
        dump = built.dump_lines()
        n = 1000

        def read_all():
            for i in range(n):
                for s, p in (("host:a", f"p{i}"), (f"host:n{i}", "observedEvent")):
                    assert built.first(s, p) is None
                    assert built.lookup(s, p) == []
                    assert not built.contains(s, p, "event:e0")

        _, allocated = self._tracked_allocations(read_all)
        assert allocated < n / 10
        assert built.dump_lines() == dump


def _sparse_store(vocab):
    """A loaded store whose ids start above 1, with gaps."""
    return FactStore.load_lines(
        [f"f{fid} host:a observedEvent event:e{fid} asserted:host" for fid in (5, 7, 9)],
        vocab,
    )


NEW_FACT_PREDICATES = ("dstIp", "onHost", "srcIp", "observedEvent")


class TestNewFacts:
    """`new_facts` gives what grouping `facts_above` by predicate gives,
    whether it takes each predicate's last fact alone or bisects its index
    entry."""

    @settings(max_examples=150, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.sampled_from(("host:a", "host:b", "event:e")),
                st.sampled_from(NEW_FACT_PREDICATES),
                st.sampled_from(("host:x", "host:y", "host:z")),
            ),
            max_size=25,
        ),
        predicates=st.lists(
            st.sampled_from(NEW_FACT_PREDICATES + ("hasIndicator", "absent")), unique=True
        ),
        gaps=st.lists(st.integers(1, 4), min_size=25, max_size=25),
        loaded=st.booleans(),
    )
    def test_same_as_grouping_facts_since(self, default_vocab, triples, predicates, gaps, loaded):
        predicates = tuple(predicates)
        store = FactStore(default_vocab)
        store.insert(triples, SRC)
        if loaded:  # the same facts under ids that start above 1, with gaps
            fids = [sum(gaps[: i + 1]) for i in range(len(store))]
            store = FactStore.load_lines(
                [f"f{fid} {line.split(' ', 1)[1]}" for fid, line in zip(fids, store.dump_lines())],
                default_vocab,
            )
        for watermark in range(-1, store.watermark + 2):
            want = {}
            for fact in facts_above(store, watermark):
                if fact.predicate in predicates:
                    want.setdefault(fact.predicate, []).append(fact)
            assert store.new_facts(watermark, predicates) == want, watermark


class TestExplain:
    def test_asserted_fact_is_single_leaf(self, store):
        [fid] = store.insert([("host:v", "observedEvent", "event:e1")], SRC)
        tree = store.explain(fid)
        assert tree.children == [] and tree.rule_id is None
        assert [f.fact_id for f in tree.leaves()] == [fid]

    def test_derived_chain(self, store):
        f1, f2 = store.insert(
            [("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:v")], SRC
        )
        [f3] = store.insert(
            [("host:v", "hasPhaseEvidence", "phase:Reconnaissance")], Derived("R1", (f1, f2))
        )
        tree = store.explain(f3)
        assert tree.rule_id == "R1"
        assert {f.fact_id for f in tree.leaves()} == {f1, f2}
        assert tree.render() == (
            "f3 host:v hasPhaseEvidence phase:Reconnaissance  [via R1]\n"
            '  f1 event:e1 snortKind "portscan"\n'
            "  f2 event:e1 dstIp host:v"
        )

    def test_deep_chain(self):
        # each fact derived from the one before it, deeper than Python's
        # recursion limit
        store = FactStore(make_test_vocab())
        [fid] = store.insert([("n:0", "p0", "n:1")], SRC)
        depth = 1300
        for i in range(1, depth):
            [fid] = store.insert([(f"n:{i}", "p0", f"n:{i + 1}")], Derived("R", (fid,)))
        tree = store.explain(fid)
        assert [f.fact_id for f in tree.leaves()] == [1]
        lines = tree.render().split("\n")
        assert len(lines) == depth
        assert lines[0] == f"f{depth} n:{depth - 1} p0 n:{depth}  [via R]"
        assert lines[-1] == "  " * (depth - 1) + "f1 n:0 p0 n:1"

    def test_unknown_fact(self, store):
        with pytest.raises(UnknownFact):
            store.explain(12345)

    def test_provenance_acyclic_by_construction(self, store):
        # premises must pre-exist, so no fact can be its own ancestor
        [f1] = store.insert([("event:e1", "snortKind", "portscan")], SRC)
        [f2] = store.insert([("host:v", "hasPhaseEvidence", "phase:Delivery")], Derived("R", (f1,)))
        seen = set()

        def walk(node):
            assert node.fact.fact_id not in seen or not node.children
            for child in node.children:
                assert child.fact.fact_id < node.fact.fact_id or isinstance(
                    child.fact.provenance, Asserted
                )
                walk(child)

        walk(store.explain(f2))


T0 = datetime(2017, 8, 15, 12, 0, 0, tzinfo=timezone.utc)


def _shared_chain(store, levels):
    """Two asserted facts, then `levels` levels of two facts, each derived
    from both facts of the level below; returns the id of a top fact."""
    a, b = store.insert(
        [("event:a", "eventTs", T0), ("event:b", "eventTs", T0 + timedelta(seconds=1))], SRC
    )
    for level in range(1, levels + 1):
        a, b = store.insert(
            [(f"node:a{level}", "hasIndicator", "indicator:x"),
             (f"node:b{level}", "hasIndicator", "indicator:x")],
            Derived("R0", (a, b)),
        )
    return a


class TestSharedPremises:
    def test_shared_chain_prints_each_fact_once(self, store, tmp_path, capsys):
        # 2**19 - 1 lines and 2**18 leaves when every premise use is copied
        top = _shared_chain(store, 18)
        assert len(store) == 38
        start = time.perf_counter()
        tree = store.explain(top)
        lines = tree.render().split("\n")
        leaves = tree.leaves()
        assert time.perf_counter() - start < 0.1
        assert len(lines) <= 2 * len(store)
        assert [f.fact_id for f in leaves] == [1, 2]
        dump = tmp_path / "chain.dump"
        store.dump(dump)
        start = time.perf_counter()
        code = main(["explain", f"f{top}", "--store", str(dump)])
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert capsys.readouterr().out.split("\n")[:-1] == lines


_FULL = re.compile(r"( *)f(\d+) ")
_SEE = re.compile(r"( *)\(see f(\d+)\)")


def _expand(text):
    """The tree a DAG rendering stands for: each `(see fN)` line replaced by
    the lines of fN's first use, moved to the see line's depth."""
    lines = text.split("\n")
    depth = [(len(line) - len(line.lstrip(" "))) // 2 for line in lines]
    first = {int(_FULL.match(line)[2]): i for i, line in enumerate(lines) if _FULL.match(line)}

    def subtree(i, shift):
        out, j = [], i
        while True:
            see = _SEE.fullmatch(lines[j])
            if see:
                k = first[int(see[2])]
                out.extend(subtree(k, depth[j] + shift - depth[k]))
            else:
                out.append("  " * (depth[j] + shift) + lines[j].lstrip(" "))
            j += 1
            if j == len(lines) or depth[j] <= depth[i]:
                return out

    return "\n".join(subtree(0, 0))


@st.composite
def derivation_dags(draw):
    """The facts of a random derivation DAG, each as (subject, predicate,
    object, provenance), fact fN at index N - 1: asserted facts on a few
    events, facts on the same events derived from earlier facts chosen at
    random, repeats allowed, and last host:h's alert facts, derived the
    same way."""
    facts = []
    for i in range(draw(st.integers(1, 6))):
        event = f"event:e{draw(st.integers(0, 2))}"
        if draw(st.booleans()):
            ts = T0 + timedelta(seconds=draw(st.integers(0, 99)), microseconds=i)
            facts.append((event, "eventTs", ts, SRC))
        else:
            facts.append((event, "snortKind", f"k{i}", SRC))

    def derived(subject, predicate, obj):
        ids = st.lists(st.integers(1, len(facts)), min_size=1, max_size=3)
        rule_id = f"R{draw(st.integers(0, 2))}"
        facts.append((subject, predicate, obj, Derived(rule_id, tuple(draw(ids)))))

    for i in range(draw(st.integers(0, 8))):
        derived(f"event:e{draw(st.integers(0, 2))}", "hasIndicator", f"indicator:x{i}")
    derived("host:h", "hasPhaseEvidence", "phase:Reconnaissance")
    derived("host:h", "hasPhaseEvidence", "phase:Exploitation")
    if draw(st.booleans()):
        derived("host:h", "attackDetected", "malware:m")
    return facts


def _fact_ids(text):
    """The ids of the facts a rendering prints in full, one per such line."""
    return [int(m[2]) for m in map(_FULL.match, text.split("\n")) if m]


class TestDerivationDag:
    @settings(deadline=None, max_examples=150)
    @given(dag=derivation_dags())
    def test_dag_matches_tree_oracle(self, default_vocab, dag):
        store = FactStore(default_vocab)
        for *triple, provenance in dag:
            store.insert([triple], provenance)
        assert len(store) == len(dag)
        for fact in store.query(Pattern.of()):
            tree = tree_explain(store, fact.fact_id)
            node = store.explain(fact.fact_id)
            leaves = node.leaves()
            assert len(leaves) == len(set(leaves))
            assert set(leaves) == set(tree_leaves(tree))
            text = node.render()
            assert sorted(_fact_ids(text)) == sorted(set(_fact_ids(tree_render(tree))))
            printed = set()
            for line in text.split("\n"):
                see = _SEE.fullmatch(line)
                if see:
                    assert int(see[2]) in printed, line
                else:
                    printed.add(int(_FULL.match(line)[2]))
            assert _expand(text) == tree_render(tree)
        (alert,) = assemble_alerts(store)
        assert (alert.first_seen, alert.last_seen) == tree_timespan(store, alert.evidence_fact_ids)


class TestDumpLoad:
    def test_round_trip(self, store, default_vocab):
        store.insert(
            [("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:v")], Asserted("snort")
        )
        store.insert([("event:e1", "cpuPercent", 93.5)], Asserted("host"))
        ts = datetime(2017, 8, 15, 14, 31, 7, tzinfo=timezone.utc)
        store.insert([("event:e1", "eventTs", ts)], Asserted("snort"))
        store.insert([("event:e1", "filePath", "C:\\a b\\t.doc")], Asserted("host"))
        store.insert([("host:v", "hasPhaseEvidence", "phase:Reconnaissance")], Derived("R1", (1, 2)))
        lines = store.dump_lines()
        reloaded = FactStore.load_lines(lines, default_vocab)
        assert reloaded.dump_lines() == lines
        triples = [{f[1:4] for f in s.query(Pattern.of())} for s in (reloaded, store)]
        assert triples[0] == triples[1]

    def test_provenance_rendered_per_run_as_per_fact(self, store):
        a, b = Asserted("snort"), Asserted("host")
        twin = Asserted("snort")  # equal to a, another object
        assert twin == a and twin is not a
        plan = [
            (a, "event:e1", "snortKind", "portscan"),
            (a, "event:e1", "dstIp", "host:v"),
            (b, "event:e2", "hostKind", "proc_stat"),
            (a, "event:e3", "snortKind", "portscan"),
            (twin, "event:e3", "dstIp", "host:w"),
            (Derived("R1", (1, 2)), "host:v", "hasPhaseEvidence", "phase:Reconnaissance"),
            (Derived("R1", (4, 5)), "host:w", "hasPhaseEvidence", "phase:Reconnaissance"),
            (twin, "event:e4", "snortKind", "portscan"),
            (a, "event:e4", "dstIp", "host:v"),
            (b, "event:e2", "onHost", "host:v"),
        ]
        for prov, s, p, o in plan:
            store.insert([(s, p, o)], prov)
        stored = store.query(Pattern.of())
        assert all(f.provenance is prov for f, (prov, *_) in zip(stored, plan, strict=True))
        assert [f"f{f.fact_id} {render_triple(f)} {f.provenance.render()}" for f in stored] == (
            store.dump_lines()
        )

    def test_fact_ids_must_increase(self, store, default_vocab):
        store.insert(
            [("event:e1", "snortKind", "portscan"), ("event:e1", "dstIp", "host:v")], Asserted("snort")
        )
        first, second = store.dump_lines()
        with pytest.raises(FactStoreError, match="not increasing"):
            FactStore.load_lines([second, first], default_vocab)

    def test_string_with_newline_survives_file_round_trip(
        self, store, default_vocab, tmp_path
    ):
        # strings with a colon and no space, but other whitespace, must be
        # quoted to stay on their dump line
        store.insert(
            [("event:e1", "filePath", "C:\\x\nmore"), ("event:e1", "processName", "a:b\tc")],
            Asserted("host"),
        )
        path = tmp_path / "store.dump"
        store.dump(path)
        reloaded = FactStore.load(path, default_vocab)
        assert [f.obj for f in reloaded.query(Pattern.of())] == ["C:\\x\nmore", "a:b\tc"]
        assert reloaded.dump_lines() == store.dump_lines()

    @pytest.mark.parametrize(
        "lines, error",
        [
            (['f1 event:e1 notAPredicate "x" asserted:snort'], VocabularyViolation),
            (['f1 event:e1 filePath "" asserted:host'], VocabularyViolation),
            (['f1 event:e1\tx snortKind "portscan" asserted:snort'], VocabularyViolation),
            (['f1 host:v onHost "my box" asserted:host'], VocabularyViolation),
            (["f1 host:v hasPhaseEvidence phase:Delivery derived:R1:f7"], UnknownFact),
            (["f1 host:v hasPhaseEvidence phase:Delivery derived:R1:"], FactStoreError),
            (
                [
                    'f1 event:e1 snortKind "portscan" asserted:snort',
                    'f2 event:e1 snortKind "portscan" asserted:snort',
                ],
                FactStoreError,
            ),
            (["f1 event:e1 cpuPercent nan asserted:host"], VocabularyViolation),
            (["f1 event:e1 cpuPercent -inf asserted:host"], VocabularyViolation),
            (['f1 event:e1 processName "a:\\ud800" asserted:host'], VocabularyViolation),
            ([f"f1 event:e1 byteCount {'1' * 5000} asserted:host"], VocabularyViolation),
        ],
    )
    def test_load_rejects_what_insert_rejects(self, default_vocab, lines, error):
        with pytest.raises(error, match=r"^line \d+: "):
            FactStore.load_lines(lines, default_vocab)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('f1 event:e1 snortKind "x" derived::f1', "malformed provenance"),
            ('f1 event:e1 snortKind "x" sensor:x', "malformed provenance"),
            ("f1 event:e1 eventTs asserted:host", "malformed dump line"),  # no object
        ],
    )
    def test_load_names_a_malformed_line(self, default_vocab, line, message):
        with pytest.raises(FactStoreError, match=f"^line 1: {message}: "):
            FactStore.load_lines([line], default_vocab)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("f3 event:e2 cpuPercent nan asserted:host", VocabularyViolation),
            ("f3 event:e2 cpuPercent x asserted:host", VocabularyViolation),
            ("f3 event:e2 eventTs yesterday asserted:host", VocabularyViolation),
            ("f3 event:e2 eventTs 0001-01-01T00:00:00+05:00 asserted:host", VocabularyViolation),
            ('f3 event:e2 processName "a asserted:host', VocabularyViolation),
            ("f3 event:e2 pid 4 asserted:host", VocabularyViolation),
            ("f3 event:e2", FactStoreError),
            ("f1 event:e2 snortKind x asserted:snort", FactStoreError),
            ("f3 host:v hasPhaseEvidence phase:Delivery derived:R1:f9", UnknownFact),
        ],
    )
    def test_load_error_names_its_line(self, default_vocab, bad, error):
        # the blank line counts: it is line 2 of the dump
        lines = ['f1 event:e1 snortKind "portscan" asserted:snort', "", bad]
        with pytest.raises(error, match=r"^line 3: "):
            FactStore.load_lines(lines, default_vocab)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_non_utf8_byte_names_its_line(self, default_vocab, tmp_path, newline):
        # 300 good lines first: the text-mode read decodes ahead in chunks
        good = [
            f'f{n} event:e{n} snortKind "portscan" asserted:snort' for n in range(1, 301)
        ]
        dump = tmp_path / "bad.dump"
        dump.write_bytes(
            newline.join(good + ['f301 event:e1 processName "caf\xff" asserted:host', ""])
            .encode("latin-1")
        )
        with pytest.raises(
            FactStoreError,
            match=r"^line 301: 'utf-8' codec can't decode byte 0xff in position 30",
        ):
            FactStore.load(dump, default_vocab)

    def test_dump_stable_across_runs(self, default_vocab):
        def build():
            s = FactStore(default_vocab)
            s.insert(
                [("event:e1", "snortKind", "portscan"), ("host:v", "observedEvent", "event:e1")],
                Asserted("snort"),
            )
            return s.dump_lines()

        assert build() == build()


class TestFactIds:
    """A fact id is read only in the form `dump` writes it: f, then a
    decimal number with no leading zero, in ASCII digits."""

    @pytest.mark.parametrize(
        "text, fid", [("f1", 1), ("f10", 10), ("f90", 90), ("f" + "9" * 30, 10**30 - 1)]
    )
    def test_what_dump_writes(self, text, fid):
        assert parse_fact_id(text) == fid

    @pytest.mark.parametrize(
        "text",
        ["ff5", "f1_0", "f\u0665", "7", "f0", "f01", "f", "", "F5", "f 5", "f5 ", "f5\n",
         "f+5", "f-5", "f\u00b2", "f" + "1" * 5000],
    )
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(FactStoreError, match="expected f<number>"):
            parse_fact_id(text)

    @pytest.mark.parametrize("fid_text", ["ff1", "f1_0", "f\u0665", "1", "f01", "f0"])
    def test_load_rejects_other_fact_ids(self, default_vocab, fid_text):
        with pytest.raises(FactStoreError, match="^line 1: bad fact id"):
            FactStore.load_lines(
                [f'{fid_text} event:e1 snortKind "x" asserted:snort'], default_vocab
            )

    @pytest.mark.parametrize("refs", ["ff1", "1", "f01", "f1+", "f1++f1", "f\u0661"])
    def test_load_rejects_other_premise_refs(self, default_vocab, refs):
        lines = [
            'f1 event:e1 snortKind "portscan" asserted:snort',
            f"f2 host:v hasPhaseEvidence phase:Delivery derived:R1:{refs}",
        ]
        with pytest.raises(FactStoreError, match="^line 2: bad fact id"):
            FactStore.load_lines(lines, default_vocab)


class TestLoadCache:
    """Load parses each distinct object text once per predicate."""

    def test_same_text_takes_each_predicates_type(self, default_vocab):
        preds = ("byteCount", "cpuPercent", "processName")
        lines = [
            f"f{i + 1} event:e{i // 3} {preds[i % 3]} 1 asserted:host" for i in range(6)
        ]
        objs = [f.obj for f in FactStore.load_lines(lines, default_vocab).query(Pattern.of())]
        assert [(type(o), o) for o in objs] == [(int, 1), (float, 1.0), (str, "1")] * 2

    def test_loaded_facts_share_predicates_and_objects(self, default_vocab):
        lines = []
        for i in range(4):
            for p, text in (("eventTs", "2017-08-15T14:31:00Z"), ("cpuPercent", "93.5"),
                            ("processName", '"cmd exe"'), ("onHost", "host:a")):
                lines.append(f"f{len(lines) + 1} event:e{i} {p} {text} asserted:host")
        store = FactStore.load_lines(lines, default_vocab)
        for p in ("eventTs", "cpuPercent", "processName", "onHost"):
            first, *rest = store.query(Pattern.of(None, p))
            assert len(rest) == 3
            assert all(f.predicate is first.predicate for f in rest), p
            assert all(f.obj is first.obj for f in rest), p
        assert store.dump_lines() == lines

    @pytest.mark.parametrize(
        "good, bad",
        [("cpuPercent 1.5", "byteCount 1.5"), ("processName yesterday", "eventTs yesterday"),
         ("processName nan", "cpuPercent nan")],
    )
    def test_bad_object_text_is_rejected_at_first_use(self, default_vocab, good, bad):
        # the text is cached under the predicate that accepts it, and still
        # checked under the one that does not, at the line of its first use
        lines = [f"f1 event:e1 {good} asserted:host", f"f2 event:e1 {bad} asserted:host",
                 f"f3 event:e2 {bad} asserted:host"]
        with pytest.raises(VocabularyViolation, match="^line 2: "):
            FactStore.load_lines(lines, default_vocab)


# objects under each predicate, with values that are equal under == but
# not alike: 0.0 and -0.0, and 1 and 1.0 under a decimal; 1 and True under
# an integer
_SUBJECTS = ("host:a", "host:b", "event:e1")
_OBJECTS = {
    "onHost": ("host:a", "host:b", "host:c"),
    "cpuPercent": (0.0, -0.0, 1, 1.0, 2.5),
    "byteCount": (0, 1, True, 7),
    "processName": ("cmd.exe", "a b", "0.0"),
}
_triples = st.tuples(
    st.sampled_from(_SUBJECTS),
    st.sampled_from(sorted(_OBJECTS)).flatmap(
        lambda p: st.tuples(st.just(p), st.sampled_from(_OBJECTS[p]))
    ),
).map(lambda t: (t[0], *t[1]))
# a batch of one insert, which may repeat a triple, its first one at its end too
_steps = st.tuples(st.lists(_triples, min_size=1, max_size=5), st.booleans()).map(
    lambda b: b[0] + b[0][:1] if b[1] else b[0]
)


class TestSetSemantics:
    """Whatever the order of inserts, the store holds each triple once,
    and every read of a (subject, predicate) entry agrees with a scan of
    the fact table."""

    @settings(deadline=None, max_examples=300)
    @given(steps=st.lists(_steps, max_size=40))
    def test_reads_match_a_scan(self, default_vocab, steps):
        store = FactStore(default_vocab)
        coerce = default_vocab.coerce

        def scan(s, p, o):
            return [f for f in store.query(Pattern.of()) if f[1:4] == (s, p, coerce(p, o))]

        for step in steps:
            want, next_id, seen = [], store.watermark + 1, []
            for s, p, o in step:
                triple = (s, p, coerce(p, o))
                if not scan(s, p, o) and triple not in seen:
                    want.append(next_id)
                    next_id += 1
                    seen.append(triple)
            assert store.insert(step, SRC) == want
        facts = store.query(Pattern.of())
        assert len({f[1:4] for f in facts}) == len(facts)
        for s in _SUBJECTS:
            for p, objects in _OBJECTS.items():
                assert store.lookup(s, p) == [
                    f for f in facts if (f.subject, f.predicate) == (s, p)
                ]
                for o in objects:
                    o = coerce(p, o)
                    held = scan(s, p, o)
                    assert store.contains(s, p, o) == bool(held)
                    for subject in (s, None):
                        for predicate in (p, None):
                            assert store.query(Pattern.of(subject, predicate, o)) == [
                                f for f in facts
                                if subject in (None, f.subject)
                                and predicate in (None, f.predicate)
                                and f.obj == o
                            ]

    @settings(deadline=None, max_examples=100)
    @given(steps=st.lists(_steps, max_size=40), loaded=st.booleans())
    # one pair with one fact, one with two, and every other pair absent
    @example(
        steps=[
            [("host:a", "onHost", "host:b")],
            [("host:b", "byteCount", 7), ("host:b", "byteCount", 1)],
        ],
        loaded=False,
    )
    def test_first_is_the_oldest_fact_of_a_pair(self, default_vocab, steps, loaded):
        store = FactStore(default_vocab)
        for step in steps:
            store.insert(step, SRC)
        if loaded:
            store = FactStore.load_lines(store.dump_lines(), default_vocab)
        for s in _SUBJECTS:
            for p in _OBJECTS:
                facts = store.lookup(s, p)
                assert store.first(s, p) is (facts[0] if facts else None)
