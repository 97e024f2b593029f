"""In-memory knowledge graph: typed triples with indexes and provenance.

Single-writer, multiple-reader contract: callers serialize insertions;
queries may run concurrently with each other but not with an in-progress
rule-engine epoch.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import (
    Any, DefaultDict, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union,
)

from kcc.vocab import (
    Vocabulary,
    VocabularyError,
    has_whitespace,
    is_entity_id,
    open_input,
    parse_timestamp,
    render_timestamp,
)


class FactStoreError(Exception):
    pass


@dataclass(frozen=True)
class Asserted:
    """Provenance of a fact taken directly from an input source."""

    source: str

    def render(self) -> str:
        return f"asserted:{self.source}"


@dataclass(frozen=True)
class Derived:
    """Provenance of a fact produced by a rule (or indicator threshold)."""

    rule_id: str
    premises: Tuple[int, ...]

    def render(self) -> str:
        refs = "+".join(f"f{p}" for p in self.premises)
        return f"derived:{self.rule_id}:{refs}"


Provenance = Union[Asserted, Derived]


def parse_provenance(text: str) -> Provenance:
    if text.startswith("asserted:"):
        return Asserted(text[len("asserted:"):])
    if text.startswith("derived:"):
        rest = text[len("derived:"):]
        rule_id, _, refs = rest.rpartition(":")
        if not rule_id:
            raise FactStoreError(f"malformed provenance: {text!r}")
        premises = tuple(parse_fact_id(r) for r in refs.split("+"))
        return Derived(rule_id, premises)
    raise FactStoreError(f"malformed provenance: {text!r}")


_FACT_ID = re.compile(r"f[1-9][0-9]*")


def parse_fact_id(text: str) -> int:
    """The id of a fact written as `dump` writes it: `f` and a decimal
    number with no leading zero, in ASCII digits."""
    if _FACT_ID.fullmatch(text):
        try:
            return int(text[1:])
        except ValueError:  # too long for int()
            pass
    raise FactStoreError(f"bad fact id {text[:40]!r}: expected f<number>, such as f12")


class Fact(NamedTuple):
    """One stored fact: a named tuple, so immutable and cheap to build and
    hold."""

    fact_id: int
    subject: str
    predicate: str
    obj: Any
    provenance: Provenance


# builds a named tuple without the Python-level frame of its __new__
_new_tuple = tuple.__new__


# the object of a pattern that matches every object; no stored object is it
WILD: Any = object()

# what a read finds under a predicate the store never held; never written
_NO_PAIRS: Dict[str, Any] = {}


class Pattern(NamedTuple):
    """Triple pattern: a None subject or predicate, and a WILD object, match
    anything."""

    subject: Optional[str] = None
    predicate: Optional[str] = None
    obj: Any = WILD

    @classmethod
    def of(cls, subject=None, predicate=None, obj=WILD):
        return _new_tuple(cls, (subject, predicate, obj))


class Explanation:
    """A fact's node in a derivation DAG: the rule that derived the fact
    (None if it was asserted) and the nodes of its premises, in premise
    order.  A walk makes one node per fact, which every derivation that
    uses the fact shares; the leaves are the asserted facts."""

    __slots__ = ("fact", "rule_id", "children")

    def __init__(self, fact: Fact) -> None:
        self.fact = fact
        self.rule_id: Optional[str] = None
        self.children: List[Explanation] = []

    def _preorder(self) -> Iterator[Tuple[int, "Explanation", bool]]:
        """Every use of a node in preorder, as (depth, node, first): only a
        node's first use is first, and only it walks on to the premises."""
        seen: Set[int] = set()
        todo = [(0, self)]
        while todo:
            depth, node = todo.pop()
            fid = node.fact.fact_id
            first = fid not in seen
            yield depth, node, first
            if first:
                seen.add(fid)
                todo.extend((depth + 1, child) for child in reversed(node.children))

    def leaves(self) -> List[Fact]:
        """The asserted facts the derivation rests on, each once, in the
        order `render` prints them."""
        return [node.fact for _, node, first in self._preorder() if first and not node.children]

    def render(self) -> str:
        """One line per use of a fact, indented by its depth: the fact in
        full at its first use, `(see fN)` at every later one."""
        lines = []
        for depth, node, first in self._preorder():
            fact = node.fact
            if first:
                via = f"  [via {node.rule_id}]" if node.rule_id else ""
                line = f"f{fact.fact_id} {render_triple(fact)}{via}"
            else:
                line = f"(see f{fact.fact_id})"
            lines.append("  " * depth + line)
        return "\n".join(lines)


def render_object(obj: Any) -> str:
    if isinstance(obj, str):  # first: most objects a dump writes are strings
        if ":" in obj and not obj.startswith('"') and not has_whitespace(obj):
            return obj  # entity id, or a string shaped like one
        return encode_basestring_ascii(obj)  # what json.dumps(obj) writes, minus its dispatch
    if isinstance(obj, datetime):
        return render_timestamp(obj)
    if isinstance(obj, (int, float)):  # no bool: `coerce` stores none
        return repr(obj)
    raise FactStoreError(f"unrenderable object: {obj!r}")


def render_triple(fact: Fact) -> str:
    return f"{fact.subject} {fact.predicate} {render_object(fact.obj)}"


class FactStore:
    """Indexed triple set with set semantics on (subject, predicate, object).

    Three hash indexes of the fact records themselves: by subject, by
    predicate, and by predicate then subject, a dict per predicate so that
    no key is built per fact.  Fact ids are monotone logical timestamps
    assigned at insertion, and every index (and the fact table itself)
    keeps its facts in insertion order, which is therefore id order.  Most
    (subject, predicate) pairs hold one fact, so a predicate's dict maps a
    subject to its bare record until a second fact arrives, and only then
    to a dict from object to record.  That entry is also what tells a
    stored triple from a new one: objects are equal by ==, as dict keys are.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._facts: Dict[int, Fact] = {}
        self._by_s: DefaultDict[str, List[Fact]] = defaultdict(list)
        self._by_p: DefaultDict[str, List[Fact]] = defaultdict(list)
        self._by_ps: DefaultDict[str, Dict[str, Union[Fact, Dict[Any, Fact]]]] = defaultdict(dict)
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def watermark(self) -> int:
        """Id of the newest fact, 0 for an empty store.  Every fact inserted
        later has a higher id."""
        return self._next_id - 1

    def new_facts(self, watermark: int, predicates: Tuple[str, ...]) -> Dict[str, List[Fact]]:
        """The facts above `watermark` of each of `predicates` that has any,
        by predicate, in id order: from each predicate's index entry, its
        last fact alone if only that one is new, else found by bisection."""
        new: Dict[str, List[Fact]] = {}
        for predicate in predicates:
            facts = self._by_p.get(predicate)
            if facts and facts[-1][0] > watermark:
                i = len(facts) - 1
                if i and facts[i - 1][0] > watermark:
                    i = bisect_right(facts, watermark, key=itemgetter(0))
                new[predicate] = facts[i:]
        return new

    def get(self, fact_id: int) -> Fact:
        try:
            return self._facts[fact_id]
        except KeyError:
            raise FactStoreError(f"no fact f{fact_id}") from None

    def contains(self, subject: str, predicate: str, obj: Any) -> bool:
        held = self._by_ps.get(predicate, _NO_PAIRS).get(subject)
        if type(held) is dict:
            return obj in held
        return held is not None and held[3] == obj

    def insert(
        self, triples: Iterable[Tuple[str, str, Any]], provenance: Provenance
    ) -> List[int]:
        """Insert every triple, all under one provenance, or none of them if
        one fails validation; returns the ids of the newly inserted facts.
        A duplicate (s,p,o) keeps the original fact and provenance.  A
        subject is checked unless it is the previous one's very object.
        Raises VocabularyError if a triple fails validation, and
        FactStoreError if the provenance does."""
        coerce = self.vocab.coerce
        coerced = []
        last: Any = WILD  # no subject is it
        for s, p, o in triples:
            if s is not last:
                _check_subject(s)
                last = s
            coerced.append((s, p, coerce(p, o)))
        self._check_provenance(provenance)
        return self._put(coerced, provenance)

    def _check_provenance(self, provenance: Provenance) -> None:
        """Raise unless the premises of a derived fact are stored, and the
        rule id or source is one token, as its dump line needs."""
        if isinstance(provenance, Derived):
            if not provenance.premises:
                raise FactStoreError("derived fact needs >=1 premise")
            for pid in provenance.premises:
                if pid not in self._facts:
                    raise FactStoreError(f"premise f{pid} not in store")
            label = provenance.rule_id
        else:
            label = provenance.source
        if not is_entity_id(label):
            raise FactStoreError(f"bad provenance: {provenance.render()!r}")

    def _put(
        self, triples: Iterable[Tuple[str, str, Any]], provenance: Provenance, fid: int = 0
    ) -> List[int]:
        """The one way facts enter the store: add each checked triple not
        stored yet under `provenance`, with ids counting up from `fid` (an id
        above every stored one; by default the next id).  Returns new ids."""
        facts, by_s, by_p, by_ps = self._facts, self._by_s, self._by_p, self._by_ps
        fid = fid or self._next_id
        new_ids = []
        for s, p, o in triples:
            fact = _new_tuple(Fact, (fid, s, p, o, provenance))
            pairs = by_ps[p]
            held = pairs.setdefault(s, fact)
            if held is not fact:
                if type(held) is dict:
                    if o in held:
                        continue
                    held[o] = fact
                elif held[3] == o:
                    continue
                else:
                    pairs[s] = {held[3]: held, o: fact}
            facts[fid] = fact
            by_s[s].append(fact)
            by_p[p].append(fact)
            new_ids.append(fid)
            fid += 1
        self._next_id = fid
        return new_ids

    def lookup(self, subject: Optional[str], predicate: str) -> List[Fact]:
        """Facts with `predicate`, and with `subject` unless it is None, in
        id order: a copy of one index entry, with no pattern to build or
        object to test, so the caller may change the list.  The rule
        engine's joins, the correlator and `query` read the pair and
        predicate indexes through it, but the correlator's reads of one
        pair's oldest fact go through `first`."""
        if subject is None:
            return list(self._by_p.get(predicate, ()))
        held = self._by_ps.get(predicate, _NO_PAIRS).get(subject)
        if held is None:
            return []
        return list(held.values()) if type(held) is dict else [held]

    def first(self, subject: str, predicate: str) -> Optional[Fact]:
        """The oldest fact of the (subject, predicate) pair, or None."""
        held = self._by_ps.get(predicate, _NO_PAIRS).get(subject)
        return next(iter(held.values())) if type(held) is dict else held

    def query(self, pattern: Pattern) -> List[Fact]:
        """Facts matching all constant positions, sorted by fact id, in a
        new list (a copy of one index entry when the object is WILD).  An
        object matches by ==, the equality of the store's set semantics, so
        a constant object must have its predicate's canonical type."""
        s, p, obj = pattern
        if p is not None:
            found = self.lookup(s, p)
        elif s is not None:
            found = list(self._by_s.get(s, ()))
        else:
            found = list(self._facts.values())
        if obj is WILD:
            return found
        return [fact for fact in found if fact.obj == obj]

    def derivation(self, roots: Iterable[int]) -> Dict[int, Explanation]:
        """The derivation DAG of the root facts, as the node of every fact
        reachable from them through premise ids, by id.  One walk makes
        every node, each once, and links it to its premises' nodes."""
        facts = self._facts
        nodes: Dict[int, Explanation] = {}
        todo = []
        for fid in roots:
            if fid not in nodes:
                node = nodes[fid] = Explanation(self.get(fid))
                todo.append(node)
        while todo:
            node = todo.pop()
            provenance = node.fact.provenance
            if isinstance(provenance, Derived):
                node.rule_id = provenance.rule_id
                children = node.children
                for pid in provenance.premises:
                    child = nodes.get(pid)
                    if child is None:
                        child = nodes[pid] = Explanation(facts[pid])
                        todo.append(child)
                    children.append(child)
        return nodes

    def explain(self, fact_id: int) -> Explanation:
        """The node of fact_id in its derivation DAG (see `derivation`)."""
        return self.derivation((fact_id,))[fact_id]

    # -- flat-file dump/load ------------------------------------------------

    def dump_lines(self) -> List[str]:
        """One line per fact; a provenance is rendered once per run sharing it."""
        lines = []
        last = text = None
        for fid, s, p, o, prov in self._facts.values():
            if prov is not last:
                last, text = prov, prov.render()
            lines.append(f"f{fid} {s} {p} {render_object(o)} {text}")
        return lines

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.dump_lines():
                fh.write(line + "\n")

    @classmethod
    def load_lines(cls, lines: Iterable[str], vocab: Vocabulary) -> "FactStore":
        """Rebuild a store from its dump, with every check `insert` makes.
        An error names the 1-based line of the dump it was found on.

        Each distinct subject, predicate and string object is kept as one
        string object, each distinct object text is parsed and checked once
        per predicate (the same text is a float under one schema and an int
        under another), and each distinct provenance text is parsed and
        checked once, so the loaded facts share them.
        """
        store = cls(vocab)
        coerce, schema_of, intern = vocab.coerce, vocab.schema_of, sys.intern
        subjects: Dict[str, str] = {}
        # predicate text -> (interned predicate, {object text: object})
        predicates: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        provenances: Dict[str, Provenance] = {}
        last = lineno = 0
        try:
            for lineno, raw in enumerate(lines, 1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                head = line.split(" ", 3)
                if len(head) != 4:
                    raise FactStoreError(f"malformed dump line: {line!r}")
                fid_text, subject, predicate, rest = head
                obj_text, _, prov_text = rest.rpartition(" ")
                if not obj_text:
                    raise FactStoreError(f"malformed dump line: {line!r}")
                fid = last + 1  # most often the next id, which needs no parse
                if fid_text != f"f{fid}":
                    fid = parse_fact_id(fid_text)
                    if fid <= last:
                        raise FactStoreError(f"fact ids not increasing: {line!r}")
                last = fid
                entry = predicates.get(predicate)
                if entry is None:
                    entry = predicates[predicate] = (intern(predicate), {})
                predicate, objects = entry
                obj = objects.get(obj_text)
                if obj is None:
                    obj = coerce(predicate, _parse_object(obj_text, schema_of(predicate)))
                    if type(obj) is str:
                        obj = intern(obj)
                    objects[obj_text] = obj
                known = subjects.get(subject)
                if known is None:
                    _check_subject(subject)
                    known = subjects[subject] = intern(subject)
                prov = provenances.get(prov_text)
                if prov is None:
                    # a derived text seen before names premises already checked
                    prov = parse_provenance(prov_text)
                    store._check_provenance(prov)
                    provenances[prov_text] = prov
                if not store._put(((known, predicate, obj),), prov, fid):
                    raise FactStoreError(f"duplicate fact: {line!r}")
        except (FactStoreError, VocabularyError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        return store

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "FactStore":
        with open_input(path, lambda message, lineno: FactStoreError(f"line {lineno}: {message}")) as fh:
            return cls.load_lines(fh, vocab)


def _check_subject(subject: Any) -> None:
    if not is_entity_id(subject):
        raise VocabularyError(f"bad subject: {subject!r}")


def _parse_object(text: str, schema: Optional[str]) -> Any:
    """The value an object text of a dump line stands for, under its
    predicate's schema; raises VocabularyError for text it cannot read."""
    if schema is None:
        return text  # coerce names the unregistered predicate
    try:
        if text.startswith('"'):
            return json.loads(text)
        if schema == "timestamp":
            return parse_timestamp(text)
        if schema == "integer":
            return int(text)  # ValueError also if too long for int()
        if schema == "decimal":
            return float(text)
    except ValueError as exc:
        raise VocabularyError(f"bad {schema} object: {text[:40]!r}") from exc
    if schema in ("entity", "string"):
        return text
    raise FactStoreError(f"cannot parse object {text!r} for schema {schema}")
