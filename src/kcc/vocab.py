"""Closed vocabulary: kill-chain phases, event kinds, indicators, predicates.

Every fact inserted into the store must use a predicate registered here, with
an object matching the registered schema.  The vocabulary is immutable once
loaded and safe to share read-only across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Dict, Optional

OBJECT_SCHEMAS = ("entity", "string", "integer", "decimal", "timestamp")


class VocabularyError(Exception):
    """Base class for vocabulary problems."""


class ConflictingSchema(VocabularyError):
    """A predicate was re-registered with a different object schema."""


class VocabularyViolation(VocabularyError):
    """A fact does not conform to the loaded vocabulary."""


class KillChainPhase(Enum):
    """The seven intrusion kill-chain phases, in canonical order."""

    RECONNAISSANCE = "Reconnaissance"
    WEAPONIZATION = "Weaponization"
    DELIVERY = "Delivery"
    EXPLOITATION = "Exploitation"
    INSTALLATION = "Installation"
    COMMAND_AND_CONTROL = "CommandAndControl"
    ACTIONS_ON_OBJECTIVES = "ActionsOnObjectives"

    @property
    def entity_id(self) -> str:
        return f"phase:{self.value}"

    @classmethod
    def parse(cls, text: str) -> "KillChainPhase":
        name = text.split(":", 1)[-1]
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown kill-chain phase: {text!r}")

    @property
    def order(self) -> int:
        return list(KillChainPhase).index(self)


class EventKind(Enum):
    """Closed set of normalized sensor event kinds.

    Unknown sensor signatures map to UNCLASSIFIED, never to a real kind.
    The token is the literal used in rule bodies and facts.
    """

    PORT_SCAN = ("PortScan", "portscan")
    MALFORMED_SMB = ("MalformedSmb", "malformed_smb")
    SUSPICIOUS_DOWNLOAD = ("SuspiciousDownload", "suspicious_download")
    PROCESS_STAT = ("ProcessStat", "proc_stat")
    FILE_MODIFIED = ("FileModified", "file_modified")
    FILE_CREATED_FROM_NETWORK = ("FileCreatedFromNetwork", "file_net_created")
    INBOUND_CONNECTION_BLOCKED = ("InboundConnectionBlocked", "inbound_blocked")
    UNCLASSIFIED = ("Unclassified", "unclassified")

    def __init__(self, label: str, token: str):
        self.label = label
        self.token = token

    @classmethod
    def from_label(cls, label: str) -> "EventKind":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(f"unknown event kind: {label!r}")


class IndicatorKind(Enum):
    """Derived per-host indicators computed by the correlator thresholds."""

    MASS_FILE_MODIFICATION = "MassFileModification"
    HIGH_CPU_USAGE = "HighCpuUsage"
    DOWNLOAD_FROM_UNKNOWN_SOURCE = "DownloadFromUnknownSource"
    INBOUND_ACCESS_SPIKE = "InboundAccessSpike"

    @property
    def entity_id(self) -> str:
        return f"indicator:{self.value}"


# `\s` matches exactly the characters for which str.isspace() is true
_WHITESPACE = re.compile(r"\s")


def has_whitespace(text: str) -> bool:
    # every whitespace character but the space is unprintable, so the
    # search only runs on the rare unprintable text
    return " " in text or (
        not text.isprintable() and _WHITESPACE.search(text) is not None
    )


def is_encodable(text: str) -> bool:
    """False for text holding a surrogate code point, which no UTF-8 file
    (such as a dump) can hold."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def is_writable_int(value: int) -> bool:
    """False for an int with more digits than str() may write under
    CPython's int/str conversion limit (4,300 by default)."""
    if value.bit_length() <= 2000:  # 603 digits; no limit may be below 640
        return True
    try:
        str(value)
    except ValueError:
        return False
    return True


def is_entity_id(text: Any) -> bool:
    """A non-empty string with no whitespace or surrogates: what can stand
    as a fact's subject or entity object, and survive dump and load as one
    token."""
    if not isinstance(text, str) or not text:
        return False
    # printable text holds no surrogate and no whitespace but the space
    if text.isprintable():
        return " " not in text
    return not has_whitespace(text) and is_encodable(text)


def _is_identifier(name: str) -> bool:
    return bool(name) and name[0].isalpha() and all(
        c.isalnum() or c == "_" for c in name
    )


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC."""
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is timezone.utc:  # astimezone would return ts itself
        return ts
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def render_timestamp(ts: datetime) -> str:
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    # isoformat pads the year to four digits, which strftime("%Y") does not;
    # its "+00:00" becomes "Z"
    text = ts.isoformat(timespec="microseconds" if ts.microsecond else "seconds")
    return text[:-6] + "Z"


@dataclass
class Vocabulary:
    """Registry mapping each predicate name to its object schema.

    Schemas: "entity" for entity-id objects, or one of the literal types
    "string", "integer", "decimal", "timestamp".
    """

    predicates: Dict[str, str] = field(default_factory=dict)
    version: int = 1

    def register_predicate(self, name: str, object_schema: str) -> None:
        if not _is_identifier(name):
            raise VocabularyError(f"bad predicate name: {name!r}")
        if object_schema not in OBJECT_SCHEMAS:
            raise VocabularyError(f"bad object schema: {object_schema!r}")
        existing = self.predicates.get(name)
        if existing is not None and existing != object_schema:
            raise ConflictingSchema(
                f"predicate {name} already registered as {existing}, "
                f"not {object_schema}"
            )
        self.predicates[name] = object_schema

    def schema_of(self, predicate: str) -> Optional[str]:
        return self.predicates.get(predicate)

    def coerce(self, predicate: str, obj: Any) -> Any:
        """Return the canonical object value for a fact, or raise.

        Canonical forms: entity/string -> str, integer -> int,
        decimal -> float, timestamp -> tz-aware UTC datetime.  An entity
        is a string without whitespace (`is_entity_id`); no string holds a
        surrogate (`is_encodable`), no integer is too long for `str`
        (`is_writable_int`), and no decimal is NaN or infinite.
        """
        schema = self.predicates.get(predicate)
        if schema is None:
            raise VocabularyViolation(f"unregistered predicate: {predicate}")
        if schema == "entity":
            if is_entity_id(obj):
                return obj
        elif schema == "string":
            if isinstance(obj, str) and obj and (obj.isascii() or is_encodable(obj)):
                return obj
        elif schema == "integer":
            if isinstance(obj, bool):
                return int(obj)
            if isinstance(obj, int):
                if is_writable_int(obj):
                    return obj
                raise VocabularyViolation(
                    f"integer of {obj.bit_length()} bits is too long to write, "
                    f"for {predicate}"
                )
        elif schema == "decimal":
            if isinstance(obj, bool):
                pass
            elif isinstance(obj, (int, float)):
                try:
                    value = float(obj)
                except OverflowError:  # an int beyond the largest float
                    value = math.inf
                if math.isfinite(value):
                    return value
        elif schema == "timestamp":
            if isinstance(obj, datetime):
                if obj.tzinfo is None:
                    obj = obj.replace(tzinfo=timezone.utc)
                return obj.astimezone(timezone.utc)
            if isinstance(obj, str):
                try:
                    return parse_timestamp(obj)
                except ValueError:
                    pass
        raise VocabularyViolation(
            f"object {obj!r} does not match schema {schema} of {predicate}"
        )


def parse_vocabulary(text: str) -> Vocabulary:
    """Parse a `.kcv` declaration file.

    Line format: `predicate <name> <entity|string|integer|decimal|timestamp>`.
    Blank lines and `#` comments are ignored; an optional `version <n>` line
    sets the vocabulary version.
    """
    vocab = Vocabulary()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "version" and len(parts) == 2 and parts[1].isdigit():
            vocab.version = int(parts[1])
            continue
        if parts[0] != "predicate" or len(parts) != 3:
            raise VocabularyError(f"line {lineno}: malformed declaration: {raw!r}")
        try:
            vocab.register_predicate(parts[1], parts[2])
        except VocabularyError as exc:
            raise VocabularyError(f"line {lineno}: {exc}") from exc
    return vocab


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        return parse_vocabulary(fh.read())
