"""Every store the vocabulary accepts survives dump then load unchanged."""

import tempfile
from datetime import timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kcc.cli import _data_path
from kcc.facts import Asserted, Derived, FactStore
from kcc.vocab import load_vocabulary

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
    "decimal": st.floats(allow_nan=False),
    "timestamp": st.datetimes(timezones=st.just(timezone.utc)),
}


@st.composite
def stores(draw):
    store = FactStore(VOCAB)
    for _ in range(draw(st.integers(0, 10))):
        predicate = draw(st.sampled_from(PREDICATES))
        obj = draw(OBJECTS[VOCAB.schema_of(predicate)])
        ids = [f.fact_id for f in store]
        if ids and draw(st.booleans()):
            premises = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
            provenance = Derived(draw(tokens), tuple(premises))
        else:
            provenance = Asserted(draw(tokens))
        store.insert(draw(tokens), predicate, obj, provenance)
    return store


@settings(deadline=None)
@given(stores())
def test_dump_then_load_gives_the_same_store(store):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.dump"
        store.dump(path)
        loaded = FactStore.load(path, VOCAB)
    assert [(f.fact_id, f.triple, f.provenance) for f in loaded] == [
        (f.fact_id, f.triple, f.provenance) for f in store
    ]
    assert loaded.dump_lines() == store.dump_lines()
