"""Sensor and intel adapters: heterogeneous inputs to vocabulary-valid facts.

Adapters are stateless per line/document; emitted facts funnel into the
store's single-writer commit sequence.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from kcc.facts import Asserted, FactStore, read_text
from kcc.vocab import EventKind, config_lines, is_entity_id, parse_timestamp


class IngestError(Exception):
    pass


class MalformedLine(IngestError):
    """Snort line did not match the fast-alert format."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"col {column}: {message}")


class MalformedEvent(IngestError):
    """Host-agent JSON event missing required fields or unknown agent."""


class MalformedDocument(IngestError):
    """Structured intel document failed validation."""


class MalformedConfig(IngestError):
    pass


# (subject, predicate, object): what every adapter ends in, and the store takes
Triple = Tuple[str, str, Any]


@dataclass(slots=True)
class SensorEvent:
    """Normalized observation from Snort or a host agent."""

    kind: EventKind
    ts: datetime
    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    proto: Optional[str] = None
    host: Optional[str] = None
    signature: Optional[Tuple[int, int, int]] = None
    message: Optional[str] = None
    classification: Optional[str] = None
    priority: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    source: str = "sensor"


# -- config tables -------------------------------------------------------------


class SidMap:
    """gid:sid -> EventKind mapping, loaded from a `.kcm` file."""

    def __init__(self, entries: Dict[Tuple[int, int], EventKind]):
        self.entries = entries

    def kind_for(self, gid: int, sid: int) -> EventKind:
        return self.entries.get((gid, sid), EventKind.UNCLASSIFIED)

    @classmethod
    def parse(cls, text: str) -> "SidMap":
        entries: Dict[Tuple[int, int], EventKind] = {}
        for lineno, line, raw in config_lines(text):
            parts = line.split()
            if len(parts) != 2 or ":" not in parts[0]:
                raise MalformedConfig(f"sidmap line {lineno}: {raw!r}")
            gid_text, sid_text = parts[0].split(":", 1)
            try:
                kind = EventKind.from_label(parts[1])
                entries[(int(gid_text), int(sid_text))] = kind
            except ValueError as exc:
                raise MalformedConfig(f"sidmap line {lineno}: {exc}") from exc
        return cls(entries)

    @classmethod
    def load(cls, path) -> "SidMap":
        return cls.parse(read_text(path, MalformedConfig, "sidmap "))


class TechniqueTable:
    """Phrase -> technique-id synonym table, loaded from a `.kct` file.

    The set of mapped technique ids doubles as the registered technique list
    for structured intel validation.
    """

    def __init__(self, synonyms: Dict[str, str]):
        self.synonyms = {k.lower(): v for k, v in synonyms.items()}
        self.known_techniques = set(self.synonyms.values())

    def lookup(self, phrase: str) -> Optional[str]:
        return self.synonyms.get(" ".join(phrase.lower().split()))

    @classmethod
    def parse(cls, text: str) -> "TechniqueTable":
        synonyms: Dict[str, str] = {}
        for lineno, line, raw in config_lines(text):
            m = re.match(r'^"([^"]+)"\s+(\S+)$', line)
            if not m or ":" not in m.group(2):
                raise MalformedConfig(f"techniques line {lineno}: {raw!r}")
            synonyms[m.group(1)] = m.group(2)
        return cls(synonyms)

    @classmethod
    def load(cls, path) -> "TechniqueTable":
        return cls.parse(read_text(path, MalformedConfig, "techniques "))


# -- snort fast-alert parser ----------------------------------------------------

_IPV4 = r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"

# ordered (name, regex) stages; on failure the column of the first
# non-matching stage is reported
_SNORT_STAGES = [
    (name, re.compile(pattern))
    for name, pattern in (
        ("timestamp", r"(\d{2})/(\d{2})-(\d{2}):(\d{2}):(\d{2})\.(\d{6})"),
        ("separator", r"\s+\[\*\*\]\s+"),
        ("signature", r"\[(\d+):(\d+):(\d+)\]"),
        ("message", r" ([^\[\]]*?) \[\*\*\]"),
        ("classification", r" \[Classification: ([^\]]+)\]"),
        ("priority", r" \[Priority: (\d+)\]"),
        ("protocol", r" \{(\w+)\}"),
        ("source", rf" ({_IPV4})(?::(\d+))?"),
        ("arrow", r" -> "),
        ("destination", rf"({_IPV4})(?::(\d+))?$"),
    )
]

# the stages as one pattern.  Each stage has one match that the next stage
# can start after, so joined they match the same lines, with the same groups.
_SNORT_LINE = re.compile("".join(stage.pattern for _, stage in _SNORT_STAGES))


def parse_snort_line(line: str, sidmap: SidMap, year: int) -> SensorEvent:
    """Parse one Snort "fast" alert line.

    The fast format carries no year; `year` anchors the timestamp.  Unmapped
    gid:sid pairs yield kind Unclassified with all fields still extracted.
    A line is read with one match; the stages run one at a time only to
    name where a line the match rejects goes wrong.
    """
    m = _SNORT_LINE.match(line)
    if m is None:  # a match ends at the line's end: its last stage ends in `$`
        raise _snort_error(line)
    (mo, day, hh, mi, ss, us, gid, sid, rev, message, classification, priority,
     proto, src_ip, src_port, dst_ip, dst_port) = m.groups()
    try:
        ts = datetime(year, int(mo), int(day), int(hh), int(mi), int(ss), int(us),
                      tzinfo=timezone.utc)
    except ValueError as exc:
        raise MalformedLine(str(exc), 1) from exc
    stage = "signature"
    try:
        gid, sid, rev = int(gid), int(sid), int(rev)
        stage = "source"
        src_port = int(src_port) if src_port else None
        stage = "destination"
        dst_port = int(dst_port) if dst_port else None
        stage = "priority"
        priority = int(priority)
    except ValueError:  # more digits than CPython's int/str conversion limit
        raise _snort_error(line, stage) from None
    return SensorEvent(
        kind=sidmap.kind_for(gid, sid),
        ts=ts,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        proto=proto,
        signature=(gid, sid, rev),
        message=message,
        classification=classification,
        priority=priority,
        source="snort",
    )


def _snort_error(line: str, number_stage: str = "") -> MalformedLine:
    """The error of a line, from its stages matched one at a time: the first
    that fails to match, else `number_stage` (the stage whose number is too
    long); each at the column it starts at."""
    pos = 0
    for name, stage in _SNORT_STAGES:
        if name == number_stage:
            return MalformedLine(f"{name} number too long", pos + 1)
        m = stage.match(line, pos)
        if not m:
            return MalformedLine(f"expected {name}", pos + 1)
        pos = m.end()


# -- host-agent events ----------------------------------------------------------

_HOST_TYPE_MAP = {
    "proc.stat": EventKind.PROCESS_STAT,
    "file.modified": EventKind.FILE_MODIFIED,
    "file.net_created": EventKind.FILE_CREATED_FROM_NETWORK,
}

_KNOWN_AGENTS = ("process", "file")

# the predicates the adapters emit themselves or the rule engine derives: an
# attribute of one of these names would forge an event's shape or evidence
_RESERVED_ATTRIBUTES = frozenset({
    "snortKind", "srcIp", "dstIp", "hostKind", "onHost", "eventTs", "observedEvent", "isClass",
    "usesTechnique", "indicatesWith", "hasIndicator", "hasPhaseEvidence", "intelMatchedTechnique",
    "intelMatchedPhase", "attackDetected",
})


def parse_host_event(json_line: str) -> SensorEvent:
    """Parse one host-agent JSON-Lines record.

    Required fields: agent, ts, host, type; ts and type are strings.
    Unknown event types map to Unclassified; unknown agents and reserved
    attribute names are rejected.
    """
    try:
        doc = json.loads(json_line)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int too long for str(), too deep
        raise MalformedEvent(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedEvent("event must be a JSON object")
    for key in ("agent", "ts", "host", "type"):
        if key not in doc:
            raise MalformedEvent(f"missing required field {key!r}")
    for key in ("ts", "type"):
        if not isinstance(doc[key], str):
            raise MalformedEvent(f"{key} must be a string")
    if doc["agent"] not in _KNOWN_AGENTS:
        raise MalformedEvent(f"unknown agent {doc['agent']!r}")
    try:
        ts = parse_timestamp(doc["ts"])
    except ValueError as exc:
        raise MalformedEvent(f"bad timestamp: {doc['ts']!r}") from exc
    attrs = doc.get("attrs", {})
    if not isinstance(attrs, dict):
        raise MalformedEvent("attrs must be an object")
    for key in attrs:
        if key in _RESERVED_ATTRIBUTES:
            raise MalformedEvent(f"attribute {key!r} is reserved: kcc asserts {key} facts itself")
    # booleans have no literal type of their own; store as 0/1
    attrs = {k: (int(v) if isinstance(v, bool) else v) for k, v in attrs.items()}
    return SensorEvent(
        kind=_HOST_TYPE_MAP.get(doc["type"], EventKind.UNCLASSIFIED),
        ts=ts,
        host=doc["host"],
        attributes=attrs,
        source=f"{doc['agent']}-agent",
    )


# -- intel ------------------------------------------------------------------------

_MALWARE_CLASSES = ("ransomware", "trojan", "worm")

_IS_A_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z][\w.-]*)\s+is\s+a\s+(?:new\s+)?(?P<cls>\w+)\s*\.?\s*$",
    re.IGNORECASE,
)
_USES_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z][\w.-]*)\s+uses\s+(?P<phrase>.+?)"
    r"(?:\s+to\s+exploit)?\s*\.?\s*$",
    re.IGNORECASE,
)


def extract_intel_from_text(sentence: str, techniques: TechniqueTable) -> List[Triple]:
    """Template extractor for the two supported intel sentence shapes.

    `<X> is a [new] <class>` and `<X> uses <technique-phrase> [to exploit]`.
    Non-matching sentences yield an empty list, never an error.
    """
    m = _IS_A_RE.match(sentence)
    if m and m.group("cls").lower() in _MALWARE_CLASSES:
        return [(f"malware:{m.group('name').lower()}", "isClass",
                 f"class:{m.group('cls').lower()}")]
    m = _USES_RE.match(sentence)
    if m:
        technique = techniques.lookup(m.group("phrase"))
        if technique:
            return [(f"malware:{m.group('name').lower()}", "usesTechnique", technique)]
    return []


def _list_field(entry: Dict[str, Any], i: int, key: str, kinds) -> List[Any]:
    """Entry `i`'s list `key`, empty if absent, each item of one of `kinds`
    (a bool is no number)."""
    items = entry.get(key, [])
    if not isinstance(items, list):
        raise MalformedDocument(f"entry {i}: {key} must be a list")
    for item in items:
        if not isinstance(item, kinds) or isinstance(item, bool):
            raise MalformedDocument(f"entry {i}: bad {key} item {item!r}")
    return items


def parse_intel_document(text: str, techniques: TechniqueTable) -> List[Triple]:
    """Parse a STIX-flavored intel document (object or array of objects)
    into the isClass, usesTechnique and indicatesWith triples of each name.

    Each object: {name, labels[], uses[], indicators[]}, where labels and
    uses hold strings and indicators strings or numbers.  Technique ids
    must come from the registered technique list, and the name and each
    indicator make entity ids (`is_entity_id`).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int too long for str(), too deep
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise MalformedDocument("document must be an object or array")
    out: List[Triple] = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry:
            raise MalformedDocument(f"entry {i}: missing name")
        name = entry["name"]
        subject = f"malware:{name.lower()}" if isinstance(name, str) and name else ""
        if not is_entity_id(subject):
            raise MalformedDocument(f"entry {i}: bad name {name!r}")
        for label in _list_field(entry, i, "labels", str):
            if label not in _MALWARE_CLASSES:
                raise MalformedDocument(f"entry {i}: unknown label {label!r}")
            out.append((subject, "isClass", f"class:{label}"))
        for tech in _list_field(entry, i, "uses", str):
            if tech not in techniques.known_techniques:
                raise MalformedDocument(f"entry {i}: unknown technique {tech!r}")
            out.append((subject, "usesTechnique", tech))
        for ind in _list_field(entry, i, "indicators", (str, int, float)):
            indicator = f"indicator:{ind}"
            if not is_entity_id(indicator):
                raise MalformedDocument(f"entry {i}: bad indicators item {ind!r}")
            out.append((subject, "indicatesWith", indicator))
    return out


# -- fact emission -----------------------------------------------------------------


def make_event_id(source: str, payload: str, occurrence: int) -> str:
    """Deterministic, content-derived event entity id.

    Content hashing (rather than sequence numbers) keeps the emitted fact set
    invariant under reordering of same-timestamp inputs; `occurrence` counts
    the identical inputs before this one, so repeats get distinct ids.
    """
    digest = hashlib.sha1(
        f"{source}|{payload}|{occurrence}".encode("utf-8")
    ).hexdigest()
    return f"event:{digest[:12]}"


def event_to_facts(event: SensorEvent, event_id: str) -> List[Triple]:
    """Reify a sensor event as vocabulary triples about the entity `event_id`.

    Snort events: snortKind, srcIp, dstIp, eventTs + observedEvent, with
    evidence attached to the destination (attacked) host.  Host-agent events:
    hostKind, onHost, eventTs, one fact per attribute + observedEvent.
    """
    facts: List[Triple] = []
    if event.source == "snort":
        facts.append((event_id, "snortKind", event.kind.token))
        facts.append((event_id, "srcIp", f"host:{event.src_ip}"))
        facts.append((event_id, "dstIp", f"host:{event.dst_ip}"))
        facts.append((event_id, "eventTs", event.ts))
        host = f"host:{event.dst_ip}"
    else:
        facts.append((event_id, "hostKind", event.kind.token))
        facts.append((event_id, "onHost", event.host))
        facts.append((event_id, "eventTs", event.ts))
        for key in sorted(event.attributes):
            facts.append((event_id, key, event.attributes[key]))
        host = event.host
    facts.append((host, "observedEvent", event_id))
    return facts


@lru_cache(maxsize=32)  # far more than the sources the adapters emit
def _asserted(source: str) -> Asserted:
    """The one provenance object of a source, shared by all its facts."""
    return Asserted(source)


def commit_event(store: FactStore, event: SensorEvent, event_id: str) -> List[int]:
    """Insert an event's facts, all or none; returns ids of newly inserted
    facts.  Raises VocabularyViolation, with the store unchanged, if any
    fact fails validation."""
    return store.insert(event_to_facts(event, event_id), _asserted(event.source))


def commit_intel(store: FactStore, triples: List[Triple]) -> List[int]:
    return store.insert(triples, _asserted("intel"))
