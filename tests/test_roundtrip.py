"""Every store the vocabulary accepts survives dump then load unchanged."""

import json
import tempfile
from datetime import timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kcc.cli import _data_path
from kcc.facts import Asserted, Derived, FactStore, Pattern, render_object
from kcc.vocab import has_whitespace, load_vocabulary

VOCAB = load_vocabulary(_data_path("vocab.kcv"))
PREDICATES = sorted(VOCAB.predicates)

# characters the dump format has to escape or keep apart, made likely
TRICKY = ':"\\é✓\x00'
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\u2028"

# every whitespace character is in one of the categories Cc, Zs, Zl, Zp;
# lone surrogates (Cs) cannot be written as UTF-8
no_whitespace = st.one_of(
    st.sampled_from(TRICKY),
    st.characters(max_codepoint=0x3000, blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
)
tokens = st.text(no_whitespace, min_size=1, max_size=8)
texts = st.text(
    st.one_of(st.sampled_from(WHITESPACE), no_whitespace), min_size=1, max_size=8
)

OBJECTS = {
    "entity": tokens,
    "string": texts,
    "integer": st.integers(),
    "decimal": st.floats(allow_nan=False, allow_infinity=False),
    "timestamp": st.datetimes(timezones=st.just(timezone.utc)),
}


@st.composite
def stores(draw):
    store = FactStore(VOCAB)
    for _ in range(draw(st.integers(0, 10))):
        predicate = draw(st.sampled_from(PREDICATES))
        obj = draw(OBJECTS[VOCAB.schema_of(predicate)])
        ids = [f.fact_id for f in store.query(Pattern.of())]
        if ids and draw(st.booleans()):
            premises = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
            provenance = Derived(draw(tokens), tuple(premises))
        else:
            provenance = Asserted(draw(tokens))
        store.insert([(draw(tokens), predicate, obj)], provenance)
    return store


@settings(deadline=None)
@given(stores())
def test_dump_then_load_gives_the_same_store(store):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.dump"
        store.dump(path)
        loaded = FactStore.load(path, VOCAB)
    assert [(f.fact_id, f[1:4], f.provenance) for f in loaded.query(Pattern.of())] == [
        (f.fact_id, f[1:4], f.provenance) for f in store.query(Pattern.of())
    ]
    assert loaded.dump_lines() == store.dump_lines()
    assert_objects_written_by_render_object(store)


def assert_objects_written_by_render_object(store):
    for fact, line in zip(store.query(Pattern.of()), store.dump_lines(), strict=True):
        head = f"f{fact.fact_id} {fact.subject} {fact.predicate} "
        tail = f" {fact.provenance.render()}"
        assert line.startswith(head) and line.endswith(tail)
        assert line[len(head):-len(tail)] == render_object(fact.obj)


def test_equal_numbers_keep_their_own_text():
    # 1, 1.0 and True are equal (and equal dict keys), but each predicate's
    # schema gives its own canonical value and text
    store = FactStore(VOCAB)
    src = Asserted("host")
    store.insert(
        [("event:e1", "byteCount", True), ("event:e1", "cpuPercent", 1), ("event:e1", "sensitive", 1)],
        src,
    )
    store.insert([("event:e2", "cpuPercent", 1.0)], src)
    store.insert([("event:e3", "cpuPercent", 1.5)], src)
    assert [line.split(" ")[3] for line in store.dump_lines()] == [
        "1", "1.0", "1", "1.0", "1.5"
    ]
    assert_objects_written_by_render_object(store)


# -- strings written without json.dumps -----------------------------------------
#
# render_object calls the string encoder json.dumps uses; this checks that it
# writes exactly what json.dumps writes, on every text.

# quotes, backslashes, control characters, DEL, non-ASCII, a line separator,
# no-break space and a lone surrogate, made likely
ESCAPABLE = '"\\\x00\x1f\x7f\x85\xa0é✓\u2028\ud800'
any_text = st.text(
    st.one_of(st.sampled_from(ESCAPABLE + "a :"), st.characters(blacklist_categories=())),
    max_size=12,
)


@settings(deadline=None, max_examples=500)
@given(any_text)
def test_render_object_writes_what_json_writes(text):
    if ":" in text and not text.startswith('"') and not has_whitespace(text):
        return  # an entity id, or a string shaped like one, is written bare
    assert render_object(text) == json.dumps(text)
