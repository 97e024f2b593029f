"""Closed vocabulary: kill-chain phases, event kinds, indicators, predicates.

Every fact inserted into the store must use a predicate registered here, with
an object matching the registered schema.  The vocabulary is immutable once
loaded and safe to share read-only across threads.
"""

from __future__ import annotations

import errno
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from stat import S_ISREG
from typing import Any, Callable, Dict, Iterator, Optional, TextIO, Tuple

OBJECT_SCHEMAS = ("entity", "string", "integer", "decimal", "timestamp")


class VocabularyError(Exception):
    """A vocabulary that cannot be read, or a fact that does not conform to one."""


class KillChainPhase(Enum):
    """The seven intrusion kill-chain phases, in canonical order."""

    RECONNAISSANCE = "Reconnaissance"
    WEAPONIZATION = "Weaponization"
    DELIVERY = "Delivery"
    EXPLOITATION = "Exploitation"
    INSTALLATION = "Installation"
    COMMAND_AND_CONTROL = "CommandAndControl"
    ACTIONS_ON_OBJECTIVES = "ActionsOnObjectives"


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


def _as_utc(ts: datetime) -> datetime:
    """`ts` in UTC; a naive time is read as UTC, never as local time.
    Raises ValueError if the time in UTC falls outside years 1 to 9999."""
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{ts.isoformat()} is outside years 1-9999 in UTC") from None


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC."""
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return ts if ts.tzinfo is timezone.utc else _as_utc(ts)


def render_timestamp(ts: datetime) -> str:
    """The time in UTC (naive means UTC) with a four-digit year, a fraction
    only when it is nonzero, and `Z`; formatted field by field, which
    costs less than isoformat and slicing off its "+00:00"."""
    if ts.tzinfo is not timezone.utc:
        ts = _as_utc(ts)
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second
    )
    return f"{text}.{ts.microsecond:06d}Z" if ts.microsecond else text + "Z"


@dataclass
class Vocabulary:
    """Registry mapping each predicate name to its object schema.

    Schemas: "entity" for entity-id objects, or one of the literal types
    "string", "integer", "decimal", "timestamp".
    """

    predicates: Dict[str, str] = field(default_factory=dict)

    def register_predicate(self, name: str, object_schema: str) -> None:
        if not _is_identifier(name):
            raise VocabularyError(f"bad predicate name: {name!r}")
        if object_schema not in OBJECT_SCHEMAS:
            raise VocabularyError(f"bad object schema: {object_schema!r}")
        existing = self.predicates.get(name)
        if existing is not None and existing != object_schema:
            raise VocabularyError(
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
            raise VocabularyError(f"unregistered predicate: {predicate}")
        if schema == "entity":
            if is_entity_id(obj):
                return obj
        elif schema == "timestamp":  # second: one fact of every event
            try:
                if isinstance(obj, datetime):
                    return obj if obj.tzinfo is timezone.utc else _as_utc(obj)
                if isinstance(obj, str):
                    return parse_timestamp(obj)
            except ValueError:
                pass
        elif schema == "string":
            if isinstance(obj, str) and obj and (obj.isascii() or is_encodable(obj)):
                return obj
        elif schema == "integer":
            if isinstance(obj, bool):
                return int(obj)
            if isinstance(obj, int):
                if is_writable_int(obj):
                    return obj
                raise VocabularyError(
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
        raise VocabularyError(
            f"object {obj!r} does not match schema {schema} of {predicate}"
        )


@contextmanager
def open_input(path, error: Callable[[str, int], Exception]) -> Iterator[TextIO]:
    """An input file open as UTF-8 text with universal newlines; every input
    file is read through here.  A path that is not a regular file raises
    OSError naming it before any open, where a named pipe would wait for a
    writer.  A byte that is not UTF-8 raises `error(message, line number)`."""
    # os.stat raises ValueError, not OSError, for a name holding a NUL
    if "\0" in str(path) or not S_ISREG(os.stat(path).st_mode):
        raise OSError(errno.EINVAL, "not a regular file", str(path))
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:  # exc's position is in the chunk text mode decoded
                for lineno, line in enumerate(raw.read().splitlines(), 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as line_exc:
                        raise error(str(line_exc), lineno) from line_exc
            raise error(str(exc), 0) from exc  # no line fails: the file changed


def read_text(path, error: type, prefix: str = "") -> str:
    """The text of an input file; a byte that is not UTF-8 is `error("<prefix>line <n>: ...")`."""
    with open_input(path, lambda message, lineno: error(f"{prefix}line {lineno}: {message}")) as fh:
        return fh.read()


def config_lines(text: str) -> Iterator[Tuple[int, str, str]]:
    """(line number, stripped line, raw line) of each line of a config text
    that is neither blank nor a `#` comment.  Lines split only at newlines,
    not at the other breaks str.splitlines() splits at."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, raw


def parse_vocabulary(text: str) -> Vocabulary:
    """Parse a `.kcv` declaration file.

    Line format: `predicate <name> <entity|string|integer|decimal|timestamp>`.
    Blank lines, `#` comments and `version <ASCII digits>` lines are ignored.
    """
    vocab = Vocabulary()
    for lineno, line, raw in config_lines(text):
        parts = line.split()
        if parts[0] == "version" and len(parts) == 2 and parts[1].isascii() and parts[1].isdigit():
            continue
        if parts[0] != "predicate" or len(parts) != 3:
            raise VocabularyError(f"line {lineno}: malformed declaration: {raw!r}")
        try:
            vocab.register_predicate(parts[1], parts[2])
        except VocabularyError as exc:
            raise VocabularyError(f"line {lineno}: {exc}") from exc
    return vocab


def load_vocabulary(path) -> Vocabulary:
    return parse_vocabulary(read_text(path, VocabularyError))
