"""Statistical indicator extraction and tiered alert assembly.

Indicators are threshold/frequency observations asserted as facts before
rule evaluation; alerts interpret the rule engine's phase-evidence and
attack facts after it has reached fixpoint.  All functions here are pure
over a quiesced store.
"""

from __future__ import annotations

import json
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from typing import Any, DefaultDict, Dict, List, Optional, Set, Tuple

from kcc.facts import Derived, Fact, FactStore, Pattern
from kcc.vocab import EventKind, IndicatorKind, KillChainPhase, render_timestamp


@dataclass
class IndicatorConfig:
    """Thresholds for indicator derivation.

    Defaults are engineering choices, not measured values.
    """

    mass_file_mod_threshold: int = 5
    mass_file_mod_window: float = 300.0  # seconds
    high_cpu_threshold: float = 80.0  # percent
    high_cpu_min_samples: int = 2
    spike_window: float = 60.0  # seconds
    spike_factor: float = 5.0  # multiplier over trailing mean
    spike_min_count: int = 10

    def validate(self) -> None:
        positive = (
            self.mass_file_mod_threshold,
            self.mass_file_mod_window,
            self.high_cpu_threshold,
            self.high_cpu_min_samples,
            self.spike_window,
            self.spike_min_count,
        )
        if any(v <= 0 for v in positive):
            raise ValueError("all thresholds must be strictly positive")
        if self.spike_factor <= 1:
            raise ValueError("spike_factor must be > 1")

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "IndicatorConfig":
        config = cls()
        for key, raw in mapping.items():
            if not hasattr(config, key):
                raise ValueError(f"unknown indicator setting {key!r}")
            current = getattr(config, key)
            setattr(config, key, type(current)(raw))
        config.validate()
        return config


# kind predicate -> the predicate naming the host its evidence attaches to
_HOST_PREDICATES = {"hostKind": "onHost", "snortKind": "dstIp"}


# predicates whose first fact an event's entry keeps
_ATTRIBUTES = ("eventTs", "onHost", "dstIp", "sensitive", "cpuPercent")

# predicates whose facts an event's entry is built from
_RECORD_PREDICATES = frozenset(_ATTRIBUTES) | _HOST_PREDICATES.keys()


class _Entry:
    """One event as the indicator checks see it: the object of its first
    fact of each attribute predicate (None until it has one), and its kind
    facts still waiting for the timestamp or host their record needs."""

    __slots__ = _ATTRIBUTES + ("pending",)

    def __init__(self) -> None:
        self.eventTs = self.onHost = self.dstIp = None
        self.sensitive = self.cpuPercent = None
        self.pending: Optional[List[Fact]] = None


# (ts, event, kind fact id, the event's entry); (ts, event) is unique within
# one record list, so records order by it alone
_Record = Tuple[datetime, str, int, _Entry]


class IndicatorState:
    """Event records of one store, kept up to date across calls to
    `extract_indicators`, which reads only the facts above `watermark`.

    Records are keyed by (kind predicate, kind token, host) and sorted by
    (ts, event).  An event's host is the object of its first onHost
    (host-agent kinds) or dstIp (Snort kinds) fact and its time that of its
    first eventTs fact; a kind fact gets its record once the event has both.
    The first fact of each predicate wins and facts are never removed, so a
    record, once placed, never moves; later attribute facts still count,
    since a record reads them through the event's entry.
    """

    def __init__(self) -> None:
        self.watermark = 0
        self.entries: Dict[str, _Entry] = {}
        self.records: DefaultDict[Tuple[str, str, str], List[_Record]] = defaultdict(list)

    def advance(self, store: FactStore) -> Set[str]:
        """Take in the store's facts above the watermark; returns the hosts
        of every event that gained a fact a record is built from."""
        entries = self.entries
        touched: Dict[str, _Entry] = {}
        for fact in store.facts_since(self.watermark):
            pred = fact.predicate
            if pred not in _RECORD_PREDICATES:
                continue
            entry = entries.get(fact.subject)
            if entry is None:
                entry = entries[fact.subject] = _Entry()
            if pred in _HOST_PREDICATES:
                if entry.pending is None:
                    entry.pending = []
                entry.pending.append(fact)
            elif getattr(entry, pred) is None:
                setattr(entry, pred, fact.obj)
            touched[fact.subject] = entry
        self.watermark = store.watermark
        hosts: Set[Optional[str]] = set()
        for event, entry in touched.items():
            if entry.pending is not None and entry.eventTs is not None:
                self._place(event, entry)
            hosts.add(entry.onHost)
            hosts.add(entry.dstIp)
        hosts.discard(None)
        return hosts

    def _place(self, event: str, entry: _Entry) -> None:
        waiting = []
        for kind in entry.pending:
            host = getattr(entry, _HOST_PREDICATES[kind.predicate])
            if host is None:
                waiting.append(kind)
            else:
                insort(
                    self.records[(kind.predicate, kind.obj, host)],
                    (entry.eventTs, event, kind.fact_id, entry),
                )
        entry.pending = waiting or None


def _attr(store: FactStore, event: str, predicate: str) -> Optional[Any]:
    facts = store.query(Pattern.of(event, predicate))
    return facts[0].obj if facts else None


def sliding_window_hit(
    timestamps: List[datetime], window: float, threshold: int
) -> Optional[Tuple[int, int]]:
    """First window [t_i, t_i + window] holding >= threshold events.

    Input must be sorted.  Returns (start_index, end_index_exclusive) of the
    earliest qualifying window, or None.
    """
    j = 0
    for i in range(len(timestamps)):
        if j < i:
            j = i
        while (
            j < len(timestamps)
            and (timestamps[j] - timestamps[i]).total_seconds() <= window
        ):
            j += 1
        if j - i >= threshold:
            return (i, j)
    return None


def tumbling_window_counts(
    timestamps: List[datetime], window: float
) -> List[List[int]]:
    """Indices of sorted timestamps bucketed into consecutive windows of
    `window` seconds starting at the first timestamp."""
    if not timestamps:
        return []
    buckets: List[List[int]] = []
    t0 = timestamps[0]
    for i, ts in enumerate(timestamps):
        k = int((ts - t0).total_seconds() // window)
        while len(buckets) <= k:
            buckets.append([])
        buckets[k].append(i)
    return buckets


def extract_indicators(
    store: FactStore,
    config: Optional[IndicatorConfig] = None,
    *,
    state: Optional[IndicatorState] = None,
) -> List[Fact]:
    """Assert per-host indicator facts derived by threshold/frequency analysis.

    `state` holds the event records of the facts up to its watermark (a
    fresh state, the default, holds none); the call brings it up to date
    and examines only hosts whose events gained facts above that watermark.
    Each is examined over its whole history, kind by kind and in host
    order, so the facts and their ids do not depend on the state passed.

    Idempotent: set semantics on (host, hasIndicator, indicator) means a
    second run adds nothing.  Returns newly asserted facts.
    """
    config = config or IndicatorConfig()
    config.validate()
    if state is None:
        state = IndicatorState()
    hosts = sorted(state.advance(store))
    records = state.records
    new_facts: List[Fact] = []

    def assert_indicator(host: str, kind: IndicatorKind, premises: List[int]):
        inserted, fid = store.insert(
            host,
            "hasIndicator",
            kind.entity_id,
            Derived(f"indicator:{kind.value}", tuple(sorted(set(premises)))),
        )
        if inserted:
            new_facts.append(store.get(fid))

    def of_kind(kind_pred: str, kind: EventKind, host: str) -> List[_Record]:
        return records.get((kind_pred, kind.token, host), [])

    # mass modification of sensitive files in a sliding window
    for host in hosts:
        mods = [
            r
            for r in of_kind("hostKind", EventKind.FILE_MODIFIED, host)
            if r[3].sensitive == 1
        ]
        hit = sliding_window_hit(
            [r[0] for r in mods],
            config.mass_file_mod_window,
            config.mass_file_mod_threshold,
        )
        if hit:
            assert_indicator(
                host,
                IndicatorKind.MASS_FILE_MODIFICATION,
                [r[2] for r in mods[hit[0] : hit[1]]],
            )

    # repeated process samples above the CPU threshold
    for host in hosts:
        hot = [
            r
            for r in of_kind("hostKind", EventKind.PROCESS_STAT, host)
            if isinstance(r[3].cpuPercent, (int, float))
            and r[3].cpuPercent > config.high_cpu_threshold
        ]
        if len(hot) >= config.high_cpu_min_samples:
            assert_indicator(
                host, IndicatorKind.HIGH_CPU_USAGE, [r[2] for r in hot]
            )

    # any download flagged by the network sensor
    for host in hosts:
        downloads = of_kind("snortKind", EventKind.SUSPICIOUS_DOWNLOAD, host)
        if downloads:
            assert_indicator(
                host,
                IndicatorKind.DOWNLOAD_FROM_UNKNOWN_SOURCE,
                [r[2] for r in downloads],
            )

    # inbound-blocked count spiking over the trailing per-window mean
    for host in hosts:
        blocked = of_kind("snortKind", EventKind.INBOUND_CONNECTION_BLOCKED, host)
        buckets = tumbling_window_counts([r[0] for r in blocked], config.spike_window)
        earlier = len(buckets[0]) if buckets else 0
        for k in range(1, len(buckets)):
            count = len(buckets[k])
            if count >= config.spike_min_count and count >= config.spike_factor * (earlier / k):
                assert_indicator(
                    host,
                    IndicatorKind.INBOUND_ACCESS_SPIKE,
                    [blocked[i][2] for i in buckets[k]],
                )
                break
            earlier += count
    return new_facts


# -- alerts --------------------------------------------------------------------


@dataclass
class Alert:
    host: str
    tier: str  # "Suspicion" | "Confirmed"
    malware: Optional[str]
    phases: List[KillChainPhase]
    evidence_fact_ids: List[int]
    first_seen: Optional[datetime]
    last_seen: Optional[datetime]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.host, self.tier)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "tier": self.tier,
            "malware": self.malware,
            "phases": [p.value for p in self.phases],
            "first_seen": render_timestamp(self.first_seen) if self.first_seen else None,
            "last_seen": render_timestamp(self.last_seen) if self.last_seen else None,
            "evidence_fact_ids": self.evidence_fact_ids,
        }


def _asserted_leaves(store: FactStore, roots: List[int]) -> List[Fact]:
    """The asserted facts the roots' derivations rest on, each once: a walk
    over premise ids with a visited set, so that a premise shared by many
    derivations is expanded once."""
    leaves: List[Fact] = []
    seen = set(roots)
    todo = list(roots)
    while todo:
        fact = store.get(todo.pop())
        if isinstance(fact.provenance, Derived):
            for pid in fact.provenance.premises:
                if pid not in seen:
                    seen.add(pid)
                    todo.append(pid)
        else:
            leaves.append(fact)
    return leaves


def _evidence_timespan(
    store: FactStore, roots: List[int]
) -> Tuple[Optional[datetime], Optional[datetime]]:
    stamps: List[datetime] = []
    for leaf in _asserted_leaves(store, roots):
        ts = _attr(store, leaf.subject, "eventTs")
        if isinstance(ts, datetime):
            stamps.append(ts)
    if not stamps:
        return (None, None)
    return (min(stamps), max(stamps))


def has_intel_leaf(store: FactStore, fact_id: int) -> bool:
    return any(
        leaf.provenance.source == "intel" for leaf in _asserted_leaves(store, [fact_id])
    )


_ALERT_PREDICATES = ("hasPhaseEvidence", "attackDetected")


def assemble_alerts(store: FactStore, *, since: int = 0) -> List[Alert]:
    """Tiered per-host alerts from a store at rule-engine fixpoint.

    Confirmed: an attackDetected(host, malware) fact exists.  Suspicion:
    evidence in >=2 distinct kill-chain phases without attackDetected.
    Hosts with <=1 evidenced phase raise no alert.  Only hosts that gained
    a hasPhaseEvidence or attackDetected fact with an id above `since` are
    assembled (every host by default); the alerts come sorted by host.
    """
    hosts = {
        fact.subject
        for fact in store.facts_since(since)
        if fact.predicate in _ALERT_PREDICATES
    }
    alerts: List[Alert] = []
    for host in sorted(hosts):
        phase_ids: Dict[KillChainPhase, int] = {}
        for fact in store.query(Pattern.of(host, "hasPhaseEvidence")):
            try:
                phase = KillChainPhase.parse(fact.obj)
            except ValueError:
                continue
            phase_ids.setdefault(phase, fact.fact_id)
        phases = sorted(phase_ids, key=lambda p: p.order)
        attack_facts = store.query(Pattern.of(host, "attackDetected"))
        if attack_facts:
            malware = sorted(f.obj for f in attack_facts)[0]
            roots = sorted(
                {f.fact_id for f in attack_facts} | set(phase_ids.values())
            )
            first, last = _evidence_timespan(store, roots)
            alerts.append(
                Alert(host, "Confirmed", malware, phases, roots, first, last)
            )
        elif len(phases) >= 2:
            roots = sorted(phase_ids.values())
            first, last = _evidence_timespan(store, roots)
            alerts.append(Alert(host, "Suspicion", None, phases, roots, first, last))
    return alerts


def render_alerts_jsonl(alerts: List[Alert]) -> str:
    return "\n".join(
        json.dumps(a.to_json_dict(), sort_keys=True) for a in alerts
    )


def render_report(alerts: List[Alert]) -> str:
    """Human-readable table, one block per host."""
    if not alerts:
        return "No alerts.\n"
    lines = []
    for alert in alerts:
        lines.append(f"host: {alert.host}")
        lines.append(f"  tier:      {alert.tier}")
        lines.append(f"  malware:   {alert.malware or '-'}")
        lines.append(
            "  phases:    " + ", ".join(p.value for p in alert.phases)
        )
        span = "-"
        if alert.first_seen and alert.last_seen:
            span = (
                f"{render_timestamp(alert.first_seen)} .. "
                f"{render_timestamp(alert.last_seen)}"
            )
        lines.append(f"  seen:      {span}")
        lines.append(
            "  evidence:  "
            + ", ".join(f"f{i}" for i in alert.evidence_fact_ids)
        )
    return "\n".join(lines) + "\n"
