import gc
import random
from datetime import datetime, timezone
from functools import partial

import pytest

from kcc.facts import (
    Asserted,
    Derived,
    FactStore,
    FactStoreError,
    Pattern,
    UnknownFact,
)
from kcc.vocab import VocabularyViolation

from conftest import make_test_vocab
from oracles import full_scan_query

SRC = Asserted("test")


@pytest.fixture()
def store(default_vocab):
    return FactStore(default_vocab)


class TestInsert:
    def test_empty_store_insert(self, store):
        new, fid = store.insert("host:victim", "observedEvent", "event:e1", SRC)
        assert new and fid == 1
        assert len(store) == 1

    def test_set_semantics(self, store):
        store.insert("host:victim", "observedEvent", "event:e1", SRC)
        new, fid = store.insert("host:victim", "observedEvent", "event:e1", SRC)
        assert not new and fid == 1
        assert len(store) == 1

    def test_idempotency_many(self, store):
        for _ in range(10):
            store.insert("host:victim", "cpuPercent", 93.5, SRC)
        assert len(store) == 1

    def test_literals_compare_by_typed_value(self, store):
        store.insert("host:victim", "cpuPercent", 93.50, SRC)
        new, _ = store.insert("host:victim", "cpuPercent", 93.5, SRC)
        assert not new

    def test_vocabulary_violation(self, store):
        with pytest.raises(VocabularyViolation):
            store.insert("host:victim", "notAPredicate", "x:y", SRC)
        with pytest.raises(VocabularyViolation):
            store.insert("host:victim", "cpuPercent", "high", SRC)

    def test_monotone_ids(self, store):
        ids = []
        for i in range(5):
            _, fid = store.insert(f"event:e{i}", "snortKind", "portscan", SRC)
            ids.append(fid)
        assert ids == sorted(ids)

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
            store.insert(subject, predicate, obj, SRC)
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
                store.insert(subject, predicate, obj, SRC)
        assert len(store) == 0

    def test_longest_writable_ints_round_trip(self, store, default_vocab):
        # CPython writes ints of up to 4,300 digits by default
        for i, value in enumerate((10**4299, -(10**4299), 2**2000)):
            store.insert(f"event:e{i}", "byteCount", value, SRC)
        reloaded = FactStore.load_lines(store.dump_lines(), default_vocab)
        assert reloaded.dump_lines() == store.dump_lines()

    def test_provenance_label_must_be_one_token(self, store):
        with pytest.raises(FactStoreError, match="bad provenance"):
            store.insert("host:v", "observedEvent", "event:e1", Asserted("my feed"))
        assert len(store) == 0

    def test_derived_requires_existing_premises(self, store):
        with pytest.raises(UnknownFact):
            store.insert(
                "host:v", "hasPhaseEvidence", "phase:Delivery",
                Derived("R1", (99,)),
            )
        with pytest.raises(Exception):
            store.insert(
                "host:v", "hasPhaseEvidence", "phase:Delivery", Derived("R1", ())
            )


class TestFactRecord:
    def test_fields_are_read_only(self, store):
        _, fid = store.insert("host:v", "observedEvent", "event:e1", SRC)
        fact = store.get(fid)
        for field in ("fact_id", "subject", "predicate", "obj", "provenance"):
            with pytest.raises(AttributeError):
                setattr(fact, field, None)
        assert fact.triple == ("host:v", "observedEvent", "event:e1")


class TestQuery:
    def test_empty_store(self, store):
        assert store.query(Pattern.of(None, "hasPhaseEvidence")) == []

    def test_membership(self, store):
        store.insert("host:v", "observedEvent", "event:e1", SRC)
        assert len(store.query(Pattern.of("host:v", "observedEvent", "event:e1"))) == 1
        assert store.query(Pattern.of("host:v", "observedEvent", "event:e2")) == []

    def test_results_sorted_by_fact_id(self, store):
        for i in (3, 1, 2):
            store.insert(f"event:e{i}", "snortKind", "portscan", SRC)
        facts = store.query(Pattern.of(None, "snortKind"))
        assert [f.fact_id for f in facts] == sorted(f.fact_id for f in facts)

    def test_star_object_is_a_literal(self, store):
        store.insert("event:e1", "processName", "*", SRC)
        store.insert("event:e2", "processName", "cmd.exe", SRC)
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
                store.insert(s, p, o, SRC)
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
                got = {f.triple for f in store.query(pattern)}
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
                store.insert(host, "observedEvent", f"event:e{i}", SRC)
            store.insert("host:a", "onHost" if i % 2 else "dstIp", f"host:x{i}", SRC)
        if request.param == "loaded":
            store = FactStore.load_lines(store.dump_lines(), default_vocab)
        return store

    def test_every_index_matches_a_scan_in_id_order(self, built):
        facts = list(built)
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

    def test_answers_are_copies_of_the_stored_facts(self, built, default_vocab):
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

    def test_facts_since_every_watermark(self, built, default_vocab):
        # and on a loaded store whose ids start above 1, with gaps
        for store in (built, _sparse_store(default_vocab)):
            facts = list(store)
            for watermark in range(-1, store.watermark + 2):
                want = [f for f in facts if f.fact_id > watermark]
                assert store.facts_since(watermark) == want, watermark

    def test_object_constant_on_a_one_fact_pair(self, built):
        (fact,) = built.query(Pattern.of("host:c", "observedEvent", "event:e0"))
        assert fact.triple == ("host:c", "observedEvent", "event:e0")
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


def _sparse_store(vocab):
    """A loaded store whose ids start above 1, with gaps."""
    return FactStore.load_lines(
        [f"f{fid} host:a observedEvent event:e{fid} asserted:host" for fid in (5, 7, 9)],
        vocab,
    )


class TestExplain:
    def test_asserted_fact_is_single_leaf(self, store):
        _, fid = store.insert("host:v", "observedEvent", "event:e1", SRC)
        tree = store.explain(fid)
        assert tree.children == [] and tree.rule_id is None
        assert [f.fact_id for f in tree.leaves()] == [fid]

    def test_derived_chain(self, store):
        _, f1 = store.insert("event:e1", "snortKind", "portscan", SRC)
        _, f2 = store.insert("event:e1", "dstIp", "host:v", SRC)
        _, f3 = store.insert(
            "host:v", "hasPhaseEvidence", "phase:Reconnaissance",
            Derived("R1", (f1, f2)),
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
        _, fid = store.insert("n:0", "p0", "n:1", SRC)
        depth = 1300
        for i in range(1, depth):
            _, fid = store.insert(f"n:{i}", "p0", f"n:{i + 1}", Derived("R", (fid,)))
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
        _, f1 = store.insert("event:e1", "snortKind", "portscan", SRC)
        _, f2 = store.insert(
            "host:v", "hasPhaseEvidence", "phase:Delivery", Derived("R", (f1,))
        )
        seen = set()

        def walk(node):
            assert node.fact.fact_id not in seen or not node.children
            for child in node.children:
                assert child.fact.fact_id < node.fact.fact_id or isinstance(
                    child.fact.provenance, Asserted
                )
                walk(child)

        walk(store.explain(f2))


class TestDumpLoad:
    def test_round_trip(self, store, default_vocab):
        store.insert("event:e1", "snortKind", "portscan", Asserted("snort"))
        store.insert("event:e1", "dstIp", "host:v", Asserted("snort"))
        store.insert("event:e1", "cpuPercent", 93.5, Asserted("host"))
        store.insert(
            "event:e1",
            "eventTs",
            datetime(2017, 8, 15, 14, 31, 7, tzinfo=timezone.utc),
            Asserted("snort"),
        )
        store.insert("event:e1", "filePath", "C:\\a b\\t.doc", Asserted("host"))
        store.insert(
            "host:v", "hasPhaseEvidence", "phase:Reconnaissance",
            Derived("R1", (1, 2)),
        )
        lines = store.dump_lines()
        reloaded = FactStore.load_lines(lines, default_vocab)
        assert reloaded.dump_lines() == lines
        assert {f.triple for f in reloaded} == {f.triple for f in store}

    def test_fact_ids_must_increase(self, store, default_vocab):
        store.insert("event:e1", "snortKind", "portscan", Asserted("snort"))
        store.insert("event:e1", "dstIp", "host:v", Asserted("snort"))
        first, second = store.dump_lines()
        with pytest.raises(FactStoreError, match="not increasing"):
            FactStore.load_lines([second, first], default_vocab)

    def test_string_with_newline_survives_file_round_trip(
        self, store, default_vocab, tmp_path
    ):
        # strings with a colon and no space, but other whitespace, must be
        # quoted to stay on their dump line
        store.insert("event:e1", "filePath", "C:\\x\nmore", Asserted("host"))
        store.insert("event:e1", "processName", "a:b\tc", Asserted("host"))
        path = tmp_path / "store.dump"
        store.dump(path)
        reloaded = FactStore.load(path, default_vocab)
        assert [f.obj for f in reloaded] == ["C:\\x\nmore", "a:b\tc"]
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
        with pytest.raises(error):
            FactStore.load_lines(lines, default_vocab)

    def test_dump_stable_across_runs(self, default_vocab):
        def build():
            s = FactStore(default_vocab)
            s.insert("event:e1", "snortKind", "portscan", Asserted("snort"))
            s.insert("host:v", "observedEvent", "event:e1", Asserted("snort"))
            return s.dump_lines()

        assert build() == build()
