"""Statistical indicator extraction and tiered alert assembly.

Indicators are threshold/frequency observations asserted as facts before
rule evaluation; alerts interpret the rule engine's phase-evidence and
attack facts after it has reached fixpoint.  All functions here are pure
over a quiesced store.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from typing import Any, DefaultDict, Dict, Iterable, List, Optional, Set, Tuple

from kcc.facts import Derived, Fact, FactStore
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
        """Raise ValueError, naming the setting, unless every threshold has
        its default's type (a float setting also takes an int, and neither
        takes a bool), is finite and above 0, and spike_factor above 1."""
        for key, value in vars(self).items():
            kind = type(getattr(IndicatorConfig, key))
            if isinstance(value, bool) or not isinstance(value, (kind, int)):
                raise ValueError(f"indicator setting {key!r} must be {kind.__name__}: {value!r}")
            low = 1 if key == "spike_factor" else 0
            if not (math.isfinite(value) and value > low):
                raise ValueError(
                    f"indicator setting {key!r} must be finite and > {low}: {value!r}"
                )

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "IndicatorConfig":
        config = cls()
        settings = vars(config)  # the fields, not the methods
        for key, raw in mapping.items():
            if key not in settings:
                raise ValueError(f"unknown indicator setting {key!r}")
            kind = type(settings[key])
            try:
                settings[key] = kind(raw)
            except ValueError:
                message = f"indicator setting {key!r} must be {kind.__name__}: {raw!r}"
                raise ValueError(message) from None
        config.validate()
        return config


# kind predicate -> the predicate naming the host its evidence attaches to
_HOST_PREDICATES = {"hostKind": "onHost", "snortKind": "dstIp"}

# each indicator check's (kind predicate, kind token) and indicator entity
# id, read once: on CPython 3.11 an enum attribute read costs up to 0.75 us
_MASS_MODIFICATION, _HIGH_CPU, _DOWNLOAD, _SPIKE = (
    ((kind_pred, kind.token), indicator.entity_id)
    for kind_pred, kind, indicator in (
        ("hostKind", EventKind.FILE_MODIFIED, IndicatorKind.MASS_FILE_MODIFICATION),
        ("hostKind", EventKind.PROCESS_STAT, IndicatorKind.HIGH_CPU_USAGE),
        ("snortKind", EventKind.SUSPICIOUS_DOWNLOAD, IndicatorKind.DOWNLOAD_FROM_UNKNOWN_SOURCE),
        ("snortKind", EventKind.INBOUND_CONNECTION_BLOCKED, IndicatorKind.INBOUND_ACCESS_SPIKE),
    )
)


def _attr(store: FactStore, event: str, predicate: str) -> Optional[Any]:
    """The event's attribute: the object of its first `predicate` fact."""
    fact = store.first(event, predicate)
    return None if fact is None else fact.obj


# predicates whose facts a record is built from or a check reads
_RECORD_PREDICATES = (
    "eventTs", "sensitive", "cpuPercent", *_HOST_PREDICATES, *_HOST_PREDICATES.values()
)

# (ts, event, kind fact id); (ts, event) is unique among the records of one
# (kind predicate, kind token, host), so they order by it
_Record = Tuple[datetime, str, int]

# (kind predicate, kind token) -> host -> records
_Changes = Dict[Tuple[str, str], Dict[str, List[_Record]]]


class IndicatorState:
    """What the indicator checks know of one store, kept up to date across
    calls to `extract_indicators`, which reads only the facts above
    `watermark`.

    A record stands for one kind fact of an event: (kind predicate, kind
    token, host) with the event's time.  An event's attributes are read
    from the store (`_attr`): its host is the object of its first onHost
    (host-agent kinds) or dstIp (Snort kinds) fact and its time that of its
    first eventTs fact; a kind fact has its record once the event has both.
    The first fact of each predicate wins and facts are never removed, so a
    record, once there, never changes, except that its event may later gain
    its first `sensitive` or `cpuPercent` fact, which the checks read.

    The state holds each check's running state per host: the sensitive
    file modifications and the inbound-blocked records, each sorted by
    (ts, event); the hot process samples; and the first blocked time at the
    last spike check.  It also holds the checks' thresholds: `config`, or
    the defaults if it is None, validated when the state is made.
    """

    def __init__(self, config: Optional[IndicatorConfig] = None) -> None:
        self.config = IndicatorConfig() if config is None else config
        self.config.validate()
        self.watermark = 0
        self.mods: DefaultDict[str, List[_Record]] = defaultdict(list)
        self.hot: DefaultDict[str, Set[int]] = defaultdict(set)
        self.blocked: DefaultDict[str, List[_Record]] = defaultdict(list)
        self.origins: Dict[str, datetime] = {}

    def advance(self, store: FactStore) -> _Changes:
        """Take in the store's facts above the watermark; returns, by (kind
        predicate, kind token) and host, the records of every event that
        gained a fact a record is built from.  Those are the new records
        and the records whose event gained its first `sensitive` or
        `cpuPercent` fact, with some unchanged ones that the checks pass
        over."""
        new = store.new_facts(self.watermark, _RECORD_PREDICATES)
        touched = dict.fromkeys(fact[1] for facts in new.values() for fact in facts)
        self.watermark = store.watermark
        changed: _Changes = {}
        for event in touched:
            ts = _attr(store, event, "eventTs")
            if ts is None:
                continue
            for kind_pred, host_pred in _HOST_PREDICATES.items():
                kinds = store.lookup(event, kind_pred)
                host = _attr(store, event, host_pred) if kinds else None
                if host is None:
                    continue
                for kind in kinds:
                    by_host = changed.setdefault((kind_pred, kind.obj), {})
                    by_host.setdefault(host, []).append((ts, event, kind.fact_id))
        return changed


def _seconds(later: datetime, earlier: datetime) -> float:
    """The one time difference every window and bucket is computed from."""
    return (later - earlier).total_seconds()


def _insort_new(records: List[_Record], record: _Record) -> None:
    """Insert into records sorted by (ts, event), unless already there."""
    i = bisect_left(records, record)
    if i == len(records) or records[i][1] != record[1]:
        records.insert(i, record)


def _first_window(
    records: List[_Record], changed: List[_Record], window: float, threshold: int
) -> Optional[Tuple[int, int]]:
    """The earliest window [t_i, t_i + window] over `records` (sorted by
    time) that holds one of `changed` and at least `threshold` records, as
    (i, end) with `records[i:end]` the records it holds; None if none does.

    A window without a changed record held as many records before, so
    when no window qualified before, the earliest one that does now is
    among those tested here.
    """
    if len(records) < threshold:
        return None
    starts: Set[int] = set()
    for record in changed:
        # the windows that hold t start at or before t, at most `window` earlier
        t = record[0]
        first = bisect_left(records, True, key=lambda r: _seconds(t, r[0]) <= window)
        starts.update(range(first, bisect_right(records, t, key=itemgetter(0))))
    for i in sorted(starts):
        t = records[i][0]
        if i and records[i - 1][0] == t:
            continue  # the window of records[i - 1], tested already
        end = bisect_right(records, window, i, key=lambda r: _seconds(r[0], t))
        if end - i >= threshold:
            return (i, end)
    return None


def extract_indicators(store: FactStore, state: IndicatorState) -> List[Fact]:
    """Assert per-host indicator facts derived by threshold/frequency analysis.

    `state` holds the thresholds and what the checks know of the facts up
    to its watermark (a fresh state knows none, so every record is new);
    the call brings it up to date and tests only what the new and changed
    records can make qualify.  No check qualified before, or its fact would
    exist, so the earliest qualifying window now is among those:

    - mass modification: the windows [t, t + mass_file_mod_window] that
      hold a new or changed sensitive file modification;
    - high CPU: the new or changed process samples, against a running set
      of the host's hot ones;
    - download: the host's first suspicious downloads;
    - inbound spike: the spike_window buckets (counted from the host's
      first blocked connection) that gained a record.  A later bucket
      keeps its count and gets a higher trailing mean, so it cannot start
      to qualify.  Only when a record lands before the host's first one
      does the origin move and every bucket get tested again.  Buckets
      are found by bisection on the host's sorted records, so an empty
      bucket is never visited; it still counts in the trailing mean.

    A (host, indicator) pair whose fact the store holds is not tested
    again.  Checks run kind by kind, hosts in sorted order, so the facts,
    their ids and premises do not depend on how far the state had come.

    Idempotent: set semantics on (host, hasIndicator, indicator) means a
    second run adds nothing.  Returns newly asserted facts.
    """
    config = state.config
    changed = state.advance(store)
    if not changed:
        return []
    new_facts: List[Fact] = []

    def assert_indicator(host: str, ident: str, premises: Iterable[int]):
        # the rule id of an indicator's derivation is its entity id
        inserted, fid = store.insert(
            host, "hasIndicator", ident, Derived(ident, tuple(sorted(set(premises))))
        )
        if inserted:
            new_facts.append(store.get(fid))

    def changed_hosts(key: Tuple[str, str], ident: str) -> List[Tuple[str, List[_Record]]]:
        """(host, its changed records of the kind `key`), sorted by host,
        for the hosts whose indicator `ident` is not yet asserted."""
        by_host = changed.get(key)
        if not by_host:
            return []
        return sorted(
            item for item in by_host.items() if not store.contains(item[0], "hasIndicator", ident)
        )

    # mass modification of sensitive files in a sliding window
    key, mass = _MASS_MODIFICATION
    for host, records in changed_hosts(key, mass):
        mods = state.mods[host]
        sensitive = [r for r in records if _attr(store, r[1], "sensitive") == 1]
        for r in sensitive:
            _insort_new(mods, r)
        hit = _first_window(
            mods, sensitive, config.mass_file_mod_window, config.mass_file_mod_threshold
        )
        if hit:
            assert_indicator(host, mass, [r[2] for r in mods[hit[0] : hit[1]]])

    # repeated process samples above the CPU threshold
    key, high_cpu = _HIGH_CPU
    for host, records in changed_hosts(key, high_cpu):
        hot = state.hot[host]
        for r in records:
            cpu = _attr(store, r[1], "cpuPercent")
            if isinstance(cpu, (int, float)) and cpu > config.high_cpu_threshold:
                hot.add(r[2])
        if len(hot) >= config.high_cpu_min_samples:
            assert_indicator(host, high_cpu, hot)

    # any download flagged by the network sensor: a host's first downloads
    # are every download it has
    key, download = _DOWNLOAD
    for host, records in changed_hosts(key, download):
        assert_indicator(host, download, [r[2] for r in records])

    # inbound-blocked count spiking over the trailing per-window mean
    key, spike = _SPIKE
    window, min_count = config.spike_window, config.spike_min_count
    for host, records in changed_hosts(key, spike):
        blocked = state.blocked[host]
        for r in records:
            _insort_new(blocked, r)
        if len(blocked) < min_count:
            continue  # no bucket can qualify yet
        t0 = blocked[0][0]
        moved = state.origins.get(host) != t0  # first test, or a record before t0
        state.origins[host] = t0

        def bucket(r: _Record) -> int:
            return int(_seconds(r[0], t0) // window)

        for k in sorted({bucket(r) for r in (blocked if moved else records)}):
            if k == 0:
                continue
            lo = bisect_left(blocked, k, key=bucket)
            hi = bisect_right(blocked, k, lo, key=bucket)
            # lo records fall in the k buckets before bucket k
            if hi - lo >= min_count and hi - lo >= config.spike_factor * (lo / k):
                assert_indicator(host, spike, [r[2] for r in blocked[lo:hi]])
                break
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


def _evidence_timespan(
    store: FactStore, roots: List[int]
) -> Tuple[Optional[datetime], Optional[datetime]]:
    """The earliest and latest event time of the asserted facts the roots'
    derivations rest on."""
    stamps: List[datetime] = []
    for node in store.derivation(roots).values():
        if not node.children:
            ts = _attr(store, node.fact.subject, "eventTs")
            if isinstance(ts, datetime):
                stamps.append(ts)
    if not stamps:
        return (None, None)
    return (min(stamps), max(stamps))


_ALERT_PREDICATES = ("hasPhaseEvidence", "attackDetected")

# a phase evidence object's text after its first colon, or its whole text
# if it has none -> (the phase's index in kill-chain order, the phase)
_PHASES = {phase.value: (i, phase) for i, phase in enumerate(KillChainPhase)}


def assemble_alerts(store: FactStore, *, since: int = 0) -> List[Alert]:
    """Tiered per-host alerts from a store at rule-engine fixpoint.

    Confirmed: an attackDetected(host, malware) fact exists.  Suspicion:
    evidence in >=2 distinct kill-chain phases without attackDetected.
    Hosts with <=1 evidenced phase raise no alert.  Only hosts that gained
    a hasPhaseEvidence or attackDetected fact with an id above `since` are
    assembled (every host by default); the alerts come sorted by host.
    """
    new = store.new_facts(since, _ALERT_PREDICATES)
    hosts = {fact[1] for facts in new.values() for fact in facts}
    alerts: List[Alert] = []
    for host in sorted(hosts):
        phase_ids: Dict[Tuple[int, KillChainPhase], int] = {}
        for fact in store.lookup(host, "hasPhaseEvidence"):
            phase = _PHASES.get(fact.obj.split(":", 1)[-1])
            if phase is not None:
                phase_ids.setdefault(phase, fact.fact_id)
        phases = [phase for _, phase in sorted(phase_ids)]
        attack_facts = store.lookup(host, "attackDetected")
        if attack_facts:
            tier, malware = "Confirmed", min(f.obj for f in attack_facts)
            roots = sorted({f.fact_id for f in attack_facts} | set(phase_ids.values()))
        elif len(phases) >= 2:
            tier, malware, roots = "Suspicion", None, sorted(phase_ids.values())
        else:
            continue
        first, last = _evidence_timespan(store, roots)
        alerts.append(Alert(host, tier, malware, phases, roots, first, last))
    return alerts


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
