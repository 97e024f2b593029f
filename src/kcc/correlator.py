"""Statistical indicator extraction and tiered alert assembly.

Indicators are threshold/frequency observations asserted as facts before
rule evaluation; alerts interpret the rule engine's phase-evidence and
attack facts after it has reached fixpoint.  Each indicator check is a
pure function of one host's sorted records of its kind and the new ones
among them; `extract_indicators` alone files records.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Set, Tuple

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
        takes a bool), is finite and above 0, and spike_factor above 1.  An
        int beyond the float range counts as not finite."""
        for key, value in vars(self).items():
            kind = type(getattr(IndicatorConfig, key))
            if isinstance(value, bool) or not isinstance(value, (kind, int)):
                raise ValueError(f"indicator setting {key!r} must be {kind.__name__}: {value!r}")
            low = 1 if key == "spike_factor" else 0
            if not low < value <= sys.float_info.max:  # False for NaN
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
_KIND_PREDICATES = tuple(_HOST_PREDICATES)
# the predicates of the facts a due kind fact waits for
_LATE_PREDICATES = ("eventTs", *_HOST_PREDICATES.values(), "sensitive", "cpuPercent")

# (ts, event, kind fact id); (ts, event) is unique among the records of one
# (kind predicate, kind token, host), so they order by it
_Record = Tuple[datetime, str, int]
_Kind = Tuple[str, str, str, int]  # (event, kind predicate, kind token, kind fact id)
_Changes = Dict[Tuple[str, str], Dict[str, List[_Record]]]  # kind key -> host -> records


class IndicatorState:
    """What the indicator checks know of the facts up to `watermark` (see
    README "Engine"): `due`, each event's kind facts still waiting for its
    time, host or checked attribute; `records`, the sorted records of each
    (kind predicate, kind token, host) whose indicator is not asserted; and
    the thresholds, `config` or the defaults, validated here."""

    def __init__(self, config: Optional[IndicatorConfig] = None) -> None:
        self.config = IndicatorConfig() if config is None else config
        self.config.validate()
        self.watermark = 0
        self.due: Dict[str, List[_Kind]] = {}
        self.records: DefaultDict[Tuple[str, str, str], List[_Record]] = defaultdict(list)

    def advance(self, store: FactStore) -> _Changes:
        """Take in the facts above the watermark; returns the records that
        are new and that a check can use, by kind key and host."""
        due, first, config = self.due, store.first, self.config
        late = _LATE_PREDICATES if due else ()
        new = store.new_facts(self.watermark, _KIND_PREDICATES + late)
        self.watermark = store.watermark
        kinds: List[_Kind] = []
        for kind_pred in _KIND_PREDICATES:
            for fid, event, _, token, _ in new.get(kind_pred, ()):
                if (kind_pred, token) in _CHECKS:
                    kinds.append((event, kind_pred, token, fid))
        for predicate in late:
            for fact in new.get(predicate, ()):
                kinds += due.pop(fact[1], ())
        changed: _Changes = {}
        for kind in kinds:
            event, kind_pred, token, fid = kind
            _, _, attribute, admits = _CHECKS[kind_pred, token]
            if attribute:
                value = first(event, attribute)
                if value is None:
                    due.setdefault(event, []).append(kind)
                    continue
                if not admits(config, value[3]):
                    continue  # the first attribute stays, and so does the verdict
            ts, host = first(event, "eventTs"), first(event, _HOST_PREDICATES[kind_pred])
            if ts is None or host is None:
                due.setdefault(event, []).append(kind)
            else:
                changed.setdefault((kind_pred, token), {}).setdefault(host[3], []).append((ts[3], event, fid))
        return changed


def _seconds(later: datetime, earlier: datetime) -> float:
    """The one time difference every window and bucket is computed from."""
    return (later - earlier).total_seconds()


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
    """Assert the per-host indicator facts that the facts above the
    state's watermark make qualify, and bring the state up to date; a fresh
    state knows no fact.  The facts, ids and premises do not depend on how
    far the state had come, and a second call adds nothing (see README
    "Engine").  Returns the new facts."""
    changed = state.advance(store)
    if not changed:
        return []
    new_facts: List[Fact] = []
    for key, (ident, check, _, _) in _CHECKS.items():
        for host, new in sorted(changed.get(key, {}).items()):
            if store.contains(host, "hasIndicator", ident):
                continue
            held = state.records[(*key, host)]
            for r in new:
                insort(held, r)
            premises = check(state.config, held, new)
            if premises is None:
                continue
            # the rule id of an indicator's derivation is its entity id
            triple = (host, "hasIndicator", ident)
            for fid in store.insert((triple,), Derived(ident, tuple(sorted(set(premises))))):
                new_facts.append(store.get(fid))
    return new_facts


# Each check takes the thresholds, a host's sorted records of its kind and
# the new ones among them, its indicator not yet asserted, and returns the
# indicator's premises if it qualifies now, else None; it changes nothing.
_Premises = Optional[List[int]]


def _mass_modification(config: IndicatorConfig, held: List[_Record], new: List[_Record]) -> _Premises:
    """At least mass_file_mod_threshold sensitive file modifications in a
    window [t, t + mass_file_mod_window]; tested are the windows that hold
    a new one."""
    hit = _first_window(held, new, config.mass_file_mod_window, config.mass_file_mod_threshold)
    return [r[2] for r in held[hit[0] : hit[1]]] if hit else None


def _high_cpu(config: IndicatorConfig, held: List[_Record], new: List[_Record]) -> _Premises:
    """At least high_cpu_min_samples process samples above the CPU
    threshold: only those make records."""
    return [r[2] for r in held] if len(held) >= config.high_cpu_min_samples else None


def _download(config: IndicatorConfig, held: List[_Record], new: List[_Record]) -> _Premises:
    """Any download flagged by the network sensor: a host's first downloads
    are every download it has."""
    return [r[2] for r in held]


def _inbound_spike(config: IndicatorConfig, held: List[_Record], new: List[_Record]) -> _Premises:
    """An inbound-blocked count spiking over the trailing per-window mean,
    in a spike_window bucket counted from the host's first blocked
    connection.  Tested are the buckets that gained a record, or all of
    them on the first test or when a new record is first (README "Engine")."""
    window, min_count = config.spike_window, config.spike_min_count
    if len(held) < min_count:
        return None  # no bucket can qualify yet
    t0 = held[0][0]
    # the first test, or the origin may have moved: every bucket
    every = len(held) - len(new) < min_count or held[0] in new

    def bucket(r: _Record) -> int:
        return int(_seconds(r[0], t0) // window)

    for k in sorted({bucket(r) for r in (held if every else new)}):
        if k == 0:
            continue
        lo = bisect_left(held, k, key=bucket)
        hi = bisect_right(held, k, lo, key=bucket)
        # lo records fall in the k buckets before bucket k
        if hi - lo >= min_count and hi - lo >= config.spike_factor * (lo / k):
            return [r[2] for r in held[lo:hi]]
    return None


def _sensitive(config: IndicatorConfig, value: Any) -> bool:
    return value == 1


def _hot(config: IndicatorConfig, value: Any) -> bool:
    return isinstance(value, (int, float)) and value > config.high_cpu_threshold


# (kind predicate, kind token) -> (indicator entity id, check, the attribute
# a record needs and the test its first value must pass, or None, None), in
# the order the checks run; built once: on CPython 3.11 an enum attribute
# read costs up to 0.75 us
_CHECKS: Dict[Tuple[str, str], Tuple[str, Callable[..., _Premises], Optional[str], Any]] = {
    (kind_pred, kind.token): (indicator.entity_id, check, attribute, admits)
    for kind_pred, kind, indicator, check, attribute, admits in (
        ("hostKind", EventKind.FILE_MODIFIED, IndicatorKind.MASS_FILE_MODIFICATION,
         _mass_modification, "sensitive", _sensitive),
        ("hostKind", EventKind.PROCESS_STAT, IndicatorKind.HIGH_CPU_USAGE, _high_cpu, "cpuPercent", _hot),
        ("snortKind", EventKind.SUSPICIOUS_DOWNLOAD, IndicatorKind.DOWNLOAD_FROM_UNKNOWN_SOURCE,
         _download, None, None),
        ("snortKind", EventKind.INBOUND_CONNECTION_BLOCKED, IndicatorKind.INBOUND_ACCESS_SPIKE,
         _inbound_spike, None, None),
    )
}


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
    """The earliest and latest event time (the object of an event's first
    eventTs fact) of the asserted facts the roots' derivations rest on."""
    stamps: List[datetime] = []
    for node in store.derivation(roots).values():
        if not node.children:
            fact = store.first(node.fact.subject, "eventTs")
            if fact is not None and isinstance(fact.obj, datetime):
                stamps.append(fact.obj)
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
