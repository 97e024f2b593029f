"""In-memory knowledge graph: typed triples with indexes and provenance.

Single-writer, multiple-reader contract: callers serialize insertions;
queries may run concurrently with each other but not with an in-progress
rule-engine epoch.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, DefaultDict, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from kcc.vocab import (
    Vocabulary,
    VocabularyViolation,
    has_whitespace,
    is_entity_id,
    parse_timestamp,
    render_timestamp,
)


class FactStoreError(Exception):
    pass


class UnknownFact(FactStoreError):
    """Referenced fact id does not exist in the store."""


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
        premises = tuple(int(r.lstrip("f")) for r in refs.split("+") if r)
        return Derived(rule_id, premises)
    raise FactStoreError(f"malformed provenance: {text!r}")


class Fact(NamedTuple):
    """One stored fact: a named tuple, so immutable and cheap to build and
    hold."""

    fact_id: int
    subject: str
    predicate: str
    obj: Any
    provenance: Provenance

    @property
    def triple(self) -> Tuple[str, str, Any]:
        return (self.subject, self.predicate, self.obj)


# builds a Fact without the Python-level frame of Fact(...)
_new_fact = tuple.__new__


@dataclass(frozen=True)
class Pattern:
    """Triple pattern; None in a position means wildcard."""

    subject: Optional[str] = None
    predicate: Optional[str] = None
    obj: Any = None
    obj_is_wild: bool = True

    @classmethod
    def of(cls, subject=None, predicate=None, obj="*"):
        if obj == "*":
            return cls(subject, predicate, None, True)
        return cls(subject, predicate, obj, False)


@dataclass
class Explanation:
    """Derivation tree node: leaves are Asserted facts."""

    fact: Fact
    rule_id: Optional[str]
    children: List["Explanation"] = field(default_factory=list)

    def leaves(self) -> List[Fact]:
        out: List[Fact] = []
        todo = [self]
        while todo:
            node = todo.pop()
            if node.children:
                todo.extend(reversed(node.children))
            else:
                out.append(node.fact)
        return out

    def render(self, indent: int = 0) -> str:
        lines = []
        todo = [(self, indent)]
        while todo:
            node, depth = todo.pop()
            via = f"  [via {node.rule_id}]" if node.rule_id else ""
            lines.append(
                "  " * depth + f"f{node.fact.fact_id} {render_triple(node.fact)}{via}"
            )
            todo.extend((child, depth + 1) for child in reversed(node.children))
        return "\n".join(lines)


def render_object(obj: Any) -> str:
    if isinstance(obj, datetime):
        return render_timestamp(obj)
    if isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (int, float)):
        return repr(obj)
    if isinstance(obj, str):
        if ":" in obj and not obj.startswith('"') and not has_whitespace(obj):
            return obj  # entity id, or a string shaped like one
        return json.dumps(obj)
    raise FactStoreError(f"unrenderable object: {obj!r}")


def render_triple(fact: Fact) -> str:
    return f"{fact.subject} {fact.predicate} {render_object(fact.obj)}"


class FactStore:
    """Indexed triple set with set semantics on (subject, predicate, object).

    Three hash indexes: by subject, by predicate, by (subject, predicate).
    Fact ids are monotone logical timestamps assigned at insertion, and
    every index (and the fact table itself) keeps its ids in insertion
    order, which is therefore id order.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._facts: Dict[int, Fact] = {}
        self._spo: Dict[Tuple[str, str, Any], int] = {}
        self._by_s: DefaultDict[str, List[int]] = defaultdict(list)
        self._by_p: DefaultDict[str, List[int]] = defaultdict(list)
        self._by_sp: DefaultDict[Tuple[str, str], List[int]] = defaultdict(list)
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self):
        return iter(self.facts())

    def facts(self) -> List[Fact]:
        return list(self._facts.values())

    @property
    def watermark(self) -> int:
        """Id of the newest fact, 0 for an empty store.  Every fact inserted
        later has a higher id."""
        return self._next_id - 1

    def facts_since(self, watermark: int) -> List[Fact]:
        """Facts with an id above `watermark`, in id order."""
        out = []
        for fact in reversed(self._facts.values()):
            if fact.fact_id <= watermark:
                break
            out.append(fact)
        out.reverse()
        return out

    def first_id(self, predicate: str) -> Optional[int]:
        """Id of the oldest fact with this predicate, or None."""
        ids = self._by_p.get(predicate)
        return ids[0] if ids else None

    def get(self, fact_id: int) -> Fact:
        try:
            return self._facts[fact_id]
        except KeyError:
            raise UnknownFact(f"no fact f{fact_id}") from None

    def contains(self, subject: str, predicate: str, obj: Any) -> bool:
        return (subject, predicate, obj) in self._spo

    def id_of(self, subject: str, predicate: str, obj: Any) -> Optional[int]:
        return self._spo.get((subject, predicate, obj))

    def insert(
        self, subject: str, predicate: str, obj: Any, provenance: Provenance
    ) -> Tuple[bool, int]:
        """Insert a fact; returns (inserted_new, fact_id).

        Duplicate (s,p,o) keeps the original fact and provenance.
        Raises VocabularyViolation if the triple fails validation, and
        FactStoreError if the provenance does.
        """
        _check_subject(subject)
        obj = self.vocab.coerce(predicate, obj)
        self._check_provenance(provenance)
        fid = self._next_id
        got = self._put(fid, subject, predicate, obj, provenance)
        return (got == fid, got)

    def insert_all(
        self, triples: Iterable[Tuple[str, str, Any]], provenance: Provenance
    ) -> List[int]:
        """Insert every triple, all under one provenance, or none of them if
        one fails validation; returns the ids of the newly inserted facts."""
        coerce = self.vocab.coerce
        coerced = [(s, p, coerce(p, o)) for s, p, o in triples]
        for s in {s for s, _, _ in coerced}:
            _check_subject(s)
        self._check_provenance(provenance)
        new_ids = []
        for s, p, o in coerced:
            fid = self._next_id
            if self._put(fid, s, p, o, provenance) == fid:
                new_ids.append(fid)
        return new_ids

    def _check_provenance(self, provenance: Provenance) -> None:
        """Raise unless the premises of a derived fact are stored, and the
        rule id or source is one token, as its dump line needs."""
        if isinstance(provenance, Derived):
            if not provenance.premises:
                raise FactStoreError("derived fact needs >=1 premise")
            for pid in provenance.premises:
                if pid not in self._facts:
                    raise UnknownFact(f"premise f{pid} not in store")
            label = provenance.rule_id
        else:
            label = provenance.source
        if not is_entity_id(label):
            raise FactStoreError(f"bad provenance: {provenance.render()!r}")

    def _put(
        self, fid: int, subject: str, predicate: str, obj: Any, provenance: Provenance
    ) -> int:
        """The one way facts enter the store: add the checked fact under
        `fid`, an id above every stored one, unless its triple is stored
        already.  Returns the id the triple is stored under."""
        got = self._spo.setdefault((subject, predicate, obj), fid)
        if got != fid:
            return got
        self._facts[fid] = _new_fact(Fact, (fid, subject, predicate, obj, provenance))
        self._by_s[subject].append(fid)
        self._by_p[predicate].append(fid)
        self._by_sp[(subject, predicate)].append(fid)
        self._next_id = fid + 1
        return fid

    def query(self, pattern: Pattern) -> List[Fact]:
        """Facts matching all constant positions, sorted by fact id."""
        s, p = pattern.subject, pattern.predicate
        if s is not None and p is not None:
            ids: Iterable[int] = self._by_sp.get((s, p), [])
        elif s is not None:
            ids = self._by_s.get(s, [])
        elif p is not None:
            ids = self._by_p.get(p, [])
        else:
            ids = self._facts
        facts = self._facts
        if pattern.obj_is_wild:
            return [facts[fid] for fid in ids]
        obj = pattern.obj
        return [facts[fid] for fid in ids if _obj_eq(facts[fid].obj, obj)]

    def explain(self, fact_id: int) -> Explanation:
        """Derivation tree rooted at fact_id; leaves are Asserted facts."""
        root = Explanation(self.get(fact_id), None)
        todo = [root]
        while todo:
            node = todo.pop()
            provenance = node.fact.provenance
            if isinstance(provenance, Derived):
                node.rule_id = provenance.rule_id
                node.children = [
                    Explanation(self._facts[pid], None) for pid in provenance.premises
                ]
                todo.extend(node.children)
        return root

    # -- flat-file dump/load ------------------------------------------------

    def dump_lines(self) -> List[str]:
        lines = []
        for fact in self.facts():
            lines.append(
                f"f{fact.fact_id} {fact.subject} {fact.predicate} "
                f"{render_object(fact.obj)} {fact.provenance.render()}"
            )
        return lines

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.dump_lines():
                fh.write(line + "\n")

    @classmethod
    def load_lines(cls, lines: Iterable[str], vocab: Vocabulary) -> "FactStore":
        """Rebuild a store from its dump, with every check `insert` makes.

        Each distinct subject, predicate and string object is kept as one
        string object, and each distinct provenance text is parsed and
        checked once, so the loaded facts share them.
        """
        store = cls(vocab)
        coerce, schema_of, intern = vocab.coerce, vocab.schema_of, sys.intern
        subjects: Dict[str, str] = {}
        provenances: Dict[str, Provenance] = {}
        last = 0
        for raw in lines:
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
            fid = int(fid_text.lstrip("f"))
            if fid <= last:
                raise FactStoreError(f"fact ids not increasing: {line!r}")
            last = fid
            obj = coerce(predicate, _parse_object(obj_text, schema_of(predicate)))
            if type(obj) is str:
                obj = intern(obj)
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
            if store._put(fid, known, intern(predicate), obj, prov) != fid:
                raise FactStoreError(f"duplicate fact: {line!r}")
        return store

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "FactStore":
        with open(path, encoding="utf-8") as fh:
            return cls.load_lines(fh, vocab)


def _check_subject(subject: Any) -> None:
    if not is_entity_id(subject):
        raise VocabularyViolation(f"bad subject: {subject!r}")


def _obj_eq(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    return a == b


def _parse_object(text: str, schema: Optional[str]) -> Any:
    if text.startswith('"'):
        return json.loads(text)
    if schema == "timestamp":
        return parse_timestamp(text)
    if schema == "integer":
        return int(text)
    if schema == "decimal":
        return float(text)
    if schema in ("entity", "string") or schema is None:
        return text
    raise FactStoreError(f"cannot parse object {text!r} for schema {schema}")
