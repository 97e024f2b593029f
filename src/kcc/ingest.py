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

from kcc.facts import Asserted, FactStore
from kcc.vocab import EventKind, parse_timestamp


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


@dataclass
class SensorEvent:
    """Normalized observation from Snort or a host agent."""

    kind: EventKind
    ts: datetime
    event_id: Optional[str] = None
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


@dataclass(frozen=True)
class IntelStatement:
    """One assertion extracted from structured or textual intel."""

    subject_name: str
    assertion: str  # IsMalwareOfClass | UsesTechnique | HasIndicator
    value: str


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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())


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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = re.match(r'^"([^"]+)"\s+(\S+)$', line)
            if not m or ":" not in m.group(2):
                raise MalformedConfig(f"techniques line {lineno}: {raw!r}")
            synonyms[m.group(1)] = m.group(2)
        return cls(synonyms)

    @classmethod
    def load(cls, path) -> "TechniqueTable":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())


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


def parse_snort_line(
    line: str, sidmap: SidMap, year: int = 2017
) -> SensorEvent:
    """Parse one Snort "fast" alert line.

    The fast format carries no year; `year` anchors the timestamp.  Unmapped
    gid:sid pairs yield kind Unclassified with all fields still extracted.
    """
    pos = 0
    groups: Dict[str, Tuple[str, ...]] = {}
    for name, stage in _SNORT_STAGES:
        m = stage.match(line, pos)
        if not m:
            raise MalformedLine(f"expected {name}", pos + 1)
        groups[name] = m.groups()
        pos = m.end()
    if pos != len(line.rstrip()):
        raise MalformedLine("trailing garbage", pos + 1)

    mo, day, hh, mm, ss, us = (int(g) for g in groups["timestamp"])
    try:
        ts = datetime(year, mo, day, hh, mm, ss, us, tzinfo=timezone.utc)
    except ValueError as exc:
        raise MalformedLine(str(exc), 1) from exc
    gid, sid, rev = (int(g) for g in groups["signature"])
    src_ip, src_port = groups["source"]
    dst_ip, dst_port = groups["destination"]
    return SensorEvent(
        kind=sidmap.kind_for(gid, sid),
        ts=ts,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=int(src_port) if src_port else None,
        dst_port=int(dst_port) if dst_port else None,
        proto=groups["protocol"][0],
        signature=(gid, sid, rev),
        message=groups["message"][0],
        classification=groups["classification"][0],
        priority=int(groups["priority"][0]),
        source="snort",
    )


def render_snort_line(event: SensorEvent) -> str:
    """Reconstruct the fast-alert line for a Snort-derived event."""
    ts = event.ts
    gid, sid, rev = event.signature or (0, 0, 0)
    src = event.src_ip + (f":{event.src_port}" if event.src_port is not None else "")
    dst = event.dst_ip + (f":{event.dst_port}" if event.dst_port is not None else "")
    return (
        f"{ts.month:02d}/{ts.day:02d}-{ts.hour:02d}:{ts.minute:02d}:"
        f"{ts.second:02d}.{ts.microsecond:06d}  [**] [{gid}:{sid}:{rev}] "
        f"{event.message} [**] [Classification: {event.classification}] "
        f"[Priority: {event.priority}] {{{event.proto}}} {src} -> {dst}"
    )


# -- host-agent events ----------------------------------------------------------

_HOST_TYPE_MAP = {
    "proc.stat": EventKind.PROCESS_STAT,
    "file.modified": EventKind.FILE_MODIFIED,
    "file.net_created": EventKind.FILE_CREATED_FROM_NETWORK,
}

_KNOWN_AGENTS = ("process", "file")


def parse_host_event(json_line: str) -> SensorEvent:
    """Parse one host-agent JSON-Lines record.

    Required fields: agent, ts, host, type.  Unknown event types map to
    Unclassified; unknown agents are rejected.
    """
    try:
        doc = json.loads(json_line)
    except json.JSONDecodeError as exc:
        raise MalformedEvent(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedEvent("event must be a JSON object")
    for key in ("agent", "ts", "host", "type"):
        if key not in doc:
            raise MalformedEvent(f"missing required field {key!r}")
    if doc["agent"] not in _KNOWN_AGENTS:
        raise MalformedEvent(f"unknown agent {doc['agent']!r}")
    try:
        ts = parse_timestamp(doc["ts"])
    except ValueError as exc:
        raise MalformedEvent(f"bad timestamp: {doc['ts']!r}") from exc
    attrs = doc.get("attrs", {})
    if not isinstance(attrs, dict):
        raise MalformedEvent("attrs must be an object")
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


def extract_intel_from_text(
    sentence: str, techniques: TechniqueTable
) -> List[IntelStatement]:
    """Template extractor for the two supported intel sentence shapes.

    `<X> is a [new] <class>` and `<X> uses <technique-phrase> [to exploit]`.
    Non-matching sentences yield an empty list, never an error.
    """
    m = _IS_A_RE.match(sentence)
    if m and m.group("cls").lower() in _MALWARE_CLASSES:
        return [
            IntelStatement(
                m.group("name").lower(), "IsMalwareOfClass", m.group("cls").lower()
            )
        ]
    m = _USES_RE.match(sentence)
    if m:
        technique = techniques.lookup(m.group("phrase"))
        if technique:
            return [
                IntelStatement(m.group("name").lower(), "UsesTechnique", technique)
            ]
    return []


def parse_intel_document(
    text: str, techniques: TechniqueTable
) -> List[IntelStatement]:
    """Parse a STIX-flavored intel document (object or array of objects).

    Each object: {name, labels[], uses[], indicators[]}.  Technique ids must
    come from the registered technique list.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise MalformedDocument("document must be an object or array")
    out: List[IntelStatement] = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry:
            raise MalformedDocument(f"entry {i}: missing name")
        name = str(entry["name"]).lower()
        for label in entry.get("labels", []):
            if label not in _MALWARE_CLASSES:
                raise MalformedDocument(f"entry {i}: unknown label {label!r}")
            out.append(IntelStatement(name, "IsMalwareOfClass", label))
        for tech in entry.get("uses", []):
            if tech not in techniques.known_techniques:
                raise MalformedDocument(f"entry {i}: unknown technique {tech!r}")
            out.append(IntelStatement(name, "UsesTechnique", tech))
        for ind in entry.get("indicators", []):
            out.append(IntelStatement(name, "HasIndicator", str(ind)))
    return out


# -- fact emission -----------------------------------------------------------------


def make_event_id(source: str, payload: str, occurrence: int = 0) -> str:
    """Deterministic, content-derived event entity id.

    Content hashing (rather than sequence numbers) keeps the emitted fact set
    invariant under reordering of same-timestamp inputs.
    """
    digest = hashlib.sha1(
        f"{source}|{payload}|{occurrence}".encode("utf-8")
    ).hexdigest()
    return f"event:{digest[:12]}"


def event_to_facts(event: SensorEvent) -> List[Tuple[str, str, Any]]:
    """Reify a sensor event as vocabulary triples.

    Snort events: snortKind, srcIp, dstIp, eventTs + observedEvent, with
    evidence attached to the destination (attacked) host.  Host-agent events:
    hostKind, onHost, eventTs, one fact per attribute + observedEvent.
    """
    if event.event_id is None:
        raise IngestError("event has no id assigned")
    e = event.event_id
    facts: List[Tuple[str, str, Any]] = []
    if event.source == "snort":
        facts.append((e, "snortKind", event.kind.token))
        facts.append((e, "srcIp", f"host:{event.src_ip}"))
        facts.append((e, "dstIp", f"host:{event.dst_ip}"))
        facts.append((e, "eventTs", event.ts))
        host = f"host:{event.dst_ip}"
    else:
        facts.append((e, "hostKind", event.kind.token))
        facts.append((e, "onHost", event.host))
        facts.append((e, "eventTs", event.ts))
        for key in sorted(event.attributes):
            facts.append((e, key, event.attributes[key]))
        host = event.host
    facts.append((host, "observedEvent", e))
    return facts


def intel_to_facts(statement: IntelStatement) -> List[Tuple[str, str, Any]]:
    subject = f"malware:{statement.subject_name}"
    if statement.assertion == "IsMalwareOfClass":
        return [(subject, "isClass", f"class:{statement.value}")]
    if statement.assertion == "UsesTechnique":
        return [(subject, "usesTechnique", statement.value)]
    if statement.assertion == "HasIndicator":
        return [(subject, "indicatesWith", f"indicator:{statement.value}")]
    raise IngestError(f"unknown assertion {statement.assertion!r}")


@lru_cache(maxsize=32)  # far more than the sources the adapters emit
def _asserted(source: str) -> Asserted:
    """The one provenance object of a source, shared by all its facts."""
    return Asserted(source)


def commit_event(store: FactStore, event: SensorEvent) -> List[int]:
    """Insert an event's facts, all or none; returns ids of newly inserted
    facts.  Raises VocabularyViolation, with the store unchanged, if any
    fact fails validation."""
    return store.insert_all(event_to_facts(event), _asserted(event.source))


def commit_intel(store: FactStore, statements: List[IntelStatement]) -> List[int]:
    return store.insert_all(
        (t for statement in statements for t in intel_to_facts(statement)),
        _asserted("intel"),
    )
