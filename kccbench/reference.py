"""Independent alert reference, computed from the generated events alone.

This re-states the paper's correlation rules (kcc's `default.kcr`) and the
default indicator thresholds directly over `gen.Event`s, without kcc's fact
store, rule engine or correlator.  It gives, for every host, the alert kcc
must show (tier, malware, phase set) after each batch, and the first
scenario time at which each (host, tier) alert must appear.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from gen import Event, iso

PHASES = ("Reconnaissance", "Weaponization", "Delivery", "Exploitation",
          "Installation", "CommandAndControl", "ActionsOnObjectives")
AOO = "ActionsOnObjectives"

# technique -> (snort kind that shows it, phase it evidences): rules R9, R10
TECHNIQUE_EVIDENCE = {
    "malformed_smb_exploit": ("malformed_smb", "Exploitation"),
    "portscan": ("portscan", "Reconnaissance"),
}

# default thresholds of kcc's IndicatorConfig
MASS_MOD_COUNT, MASS_MOD_WINDOW = 5, 300
HOT_CPU, HOT_SAMPLES = 80.0, 2
SPIKE_WINDOW, SPIKE_FACTOR, SPIKE_MIN = 60, 5.0, 10

Alert = Tuple[str, str, Optional[str], Tuple[str, ...]]  # host, tier, malware, phases


class _Host:
    def __init__(self) -> None:
        self.kinds: Set[str] = set()
        self.sensitive_mods: List[int] = []
        self.hot = 0
        self.inbound: List[int] = []

    def add(self, ev: Event) -> None:
        self.kinds.add(ev.kind)
        if ev.kind == "file_modified" and ev.sensitive:
            bisect.insort(self.sensitive_mods, ev.t)
        elif ev.kind == "proc_stat" and ev.cpu > HOT_CPU:
            self.hot += 1
        elif ev.kind == "inbound_blocked":
            bisect.insort(self.inbound, ev.t)

    def mass_modification(self) -> bool:
        ts = self.sensitive_mods
        return any(
            bisect.bisect_right(ts, t + MASS_MOD_WINDOW) - i >= MASS_MOD_COUNT
            for i, t in enumerate(ts)
        )

    def inbound_spike(self) -> bool:
        if not self.inbound:
            return False
        t0 = self.inbound[0]
        counts = Counter((t - t0) // SPIKE_WINDOW for t in self.inbound)
        before = counts.get(0, 0)
        for k in range(1, max(counts) + 1):
            count = counts.get(k, 0)
            if count >= SPIKE_MIN and count >= SPIKE_FACTOR * (before / k):
                return True
            before += count
        return False

    def phases(self) -> Set[str]:
        out = set()
        if "portscan" in self.kinds or self.inbound_spike():
            out.add("Reconnaissance")
        if self.kinds & {"suspicious_download", "file_net_created"}:
            out.add("Delivery")
        if "malformed_smb" in self.kinds:
            out.add("Exploitation")
        if self.hot >= HOT_SAMPLES or self.mass_modification():
            out.add(AOO)
        return out


class Reference:
    """Incremental per-host state over events fed in scenario order."""

    def __init__(self) -> None:
        self.hosts: Dict[str, _Host] = {}
        self.uses: Set[Tuple[str, str]] = set()

    def add(self, ev: Event) -> None:
        if ev.uses:
            self.uses.add(ev.uses)
        if ev.host:
            self.hosts.setdefault(ev.host, _Host()).add(ev)

    def alert(self, host: str) -> Optional[Alert]:
        state = self.hosts[host]
        phases = state.phases()
        ordered = tuple(p for p in PHASES if p in phases)
        matched = {m for m, tech in self.uses if TECHNIQUE_EVIDENCE[tech][0] in state.kinds}
        matched_phases = {TECHNIQUE_EVIDENCE[tech][1] for m, tech in self.uses
                          if TECHNIQUE_EVIDENCE[tech][0] in state.kinds}
        confirmed = AOO in phases and any(
            p1 != p0 and p1 != AOO for p0 in matched_phases for p1 in phases
        )
        if confirmed:
            return (host, "Confirmed", "malware:" + min(matched), ordered)
        if len(phases) >= 2:
            return (host, "Suspicion", None, ordered)
        return None


def batches(events: Iterable[Event]) -> List[Tuple[int, List[Event]]]:
    out: List[Tuple[int, List[Event]]] = []
    for ev in events:
        if out and out[-1][0] == ev.t:
            out[-1][1].append(ev)
        else:
            out.append((ev.t, [ev]))
    return out


def stream_expectations(events: List[Event]) -> Tuple[List[List[Alert]], List[Tuple[str, str, str]]]:
    """Alerts after every batch, and the (host, tier, first time) timeline."""
    ref = Reference()
    current: Dict[str, Alert] = {}
    first: Dict[Tuple[str, str], str] = {}
    snapshots: List[List[Alert]] = []
    for t, batch in batches(events):
        for ev in batch:
            ref.add(ev)
        touched = set(ref.hosts) if any(ev.uses for ev in batch) else {ev.host for ev in batch if ev.host}
        for host in touched:
            alert = ref.alert(host)
            if alert is None:
                current.pop(host, None)
            else:
                current[host] = alert
                first.setdefault((host, alert[1]), iso(t))
        snapshots.append([current[h] for h in sorted(current)])
    timeline = [(host, tier, ts) for (host, tier), ts in sorted(first.items())]
    return snapshots, timeline


def final_alerts(events: List[Event]) -> List[Alert]:
    """Alerts after replaying all events as one batch."""
    ref = Reference()
    for ev in events:
        ref.add(ev)
    alerts = (ref.alert(h) for h in sorted(ref.hosts))
    return [a for a in alerts if a is not None]


def asserted_fact_count(events: List[Event]) -> int:
    """Facts the ingest adapters must assert: five per snort event (kind,
    source, destination, time, observedEvent), four plus one per attribute
    per host event, one per distinct intel statement."""
    total = 0
    statements = set()
    for ev in events:
        if ev.tag == "snort":
            total += 5
        elif ev.tag == "host":
            total += 4 + ev.n_attrs
        else:
            statements.add(ev.payload)
    return total + len(statements)
