"""Seeded synthetic inputs: sensor events, intel sentences and scenario files.

Every input is a plain `Event`; the scenario text kcc reads is rendered from
it, and the independent reference in `reference.py` reads the same events.
The same seed always gives the same events.  Event counts and host counts are
fixed by the workload, so seeds change who is attacked and when, not how
much work there is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

EPOCH = datetime(2017, 8, 15, 6, 0, 0, tzinfo=timezone.utc)

# snort kind token -> (sid, message, classification, priority); the sids
# are the ones mapped in kcc's packaged sid map, 9999999 is unmapped
SNORT = {
    "portscan": (1000001, "PSNG_TCP_PORTSCAN", "Attempted Information Leak", 2),
    "malformed_smb": (1000002, "SMB MALFORMED TRANSACTION REQUEST",
                      "Attempted Administrator Privilege Gain", 1),
    "suspicious_download": (1000003, "POLICY DOWNLOAD FROM UNTRUSTED HOST",
                            "Potentially Bad Traffic", 2),
    "inbound_blocked": (1000004, "INBOUND CONNECTION BLOCKED", "Misc activity", 3),
    "unclassified": (9999999, "GENERIC NOISE", "Not Suspicious Traffic", 3),
}

# intel sentences and the (malware, technique) use each one states
INTEL = (
    ("Wannacry is a ransomware", None),
    ("Wannacry uses Malformed SMB packets to exploit", ("wannacry", "malformed_smb_exploit")),
    ("Emotet is a trojan", None),
)

DOCS = ("budget.xlsx", "notes.docx", "contract.pdf", "family.jpg", "inbox.mbox",
        "plan.pptx", "payroll.csv", "thesis.tex", "keys.kdbx", "chunks.lst")
PROCS = ("explorer.exe", "firefox.exe", "excel.exe", "winword.exe", "svchost.exe",
         "outlook.exe", "teams.exe", "python.exe")


@dataclass(frozen=True)
class Event:
    """One scenario input.  `kind` is the event token the rules name
    (`portscan`, `file_modified`, ...) or `intel`; `host` is the host the
    evidence attaches to (the destination, for snort events)."""

    t: int  # seconds after EPOCH
    tag: str  # snort | host | intel-text
    kind: str
    host: Optional[str]
    payload: str
    sensitive: bool = False
    cpu: float = 0.0
    n_attrs: int = 0
    uses: Optional[Tuple[str, str]] = None


def iso(t: int) -> str:
    return (EPOCH + timedelta(seconds=t)).strftime("%Y-%m-%dT%H:%M:%SZ")


def host_ip(i: int) -> str:
    return f"10.{i // 250}.{i % 250}.{10 + i % 7}"


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def snort(self, t: int, kind: str, src: str, dst: str, dport: Optional[int] = None) -> Event:
        sid, msg, cls, prio = SNORT[kind]
        ts = EPOCH + timedelta(seconds=t)
        sport = self.rng.randrange(1024, 65535)
        dport = dport if dport is not None else self.rng.choice((22, 80, 139, 443, 445, 3389))
        line = (
            f"{ts:%m/%d-%H:%M:%S}.000000  [**] [1:{sid}:1] "
            f"{msg} [**] [Classification: {cls}] [Priority: {prio}] {{TCP}} "
            f"{src}:{sport} -> {dst}:{dport}"
        )
        return Event(t, "snort", kind, f"host:{dst}", line)

    def host(self, t: int, kind: str, ip: str, **attrs) -> Event:
        agent, typ = {
            "proc_stat": ("process", "proc.stat"),
            "file_modified": ("file", "file.modified"),
            "file_net_created": ("file", "file.net_created"),
        }[kind]
        doc = {"agent": agent, "ts": iso(t), "host": f"host:{ip}", "type": typ, "attrs": attrs}
        return Event(
            t, "host", kind, f"host:{ip}", json.dumps(doc, separators=(",", ":")),
            sensitive=attrs.get("sensitive") is True, cpu=float(attrs.get("cpuPercent", 0.0)),
            n_attrs=len(attrs),
        )

    def intel(self, t: int) -> List[Event]:
        return [Event(t, "intel-text", "intel", None, text, uses=uses) for text, uses in INTEL]

    def doc_path(self) -> str:
        return "C:\\Users\\u\\Documents\\" + self.rng.choice(DOCS)

    # -- attack chains ---------------------------------------------------

    def chain(self, t0: int, victim: str, steps: Sequence[str]) -> List[Event]:
        """A WannaCry-like chain on one victim, as in golden.scn: recon,
        SMB exploitation, payload delivery, file encryption, CPU load.
        `steps` picks which stages are present."""
        attacker = f"203.0.113.{self.rng.randrange(1, 250)}"
        out: List[Event] = []
        if "recon" in steps:
            out += [self.snort(t0 + d, "portscan", attacker, victim, 445) for d in (0, 5)]
        if "exploit" in steps:
            out += [self.snort(t0 + d, "malformed_smb", attacker, victim, 445) for d in (60, 70)]
        if "deliver" in steps:
            out += [self.snort(t0 + d, "suspicious_download", attacker, victim) for d in (120, 125)]
            out += [
                self.host(t0 + 150, "file_net_created", victim, filePath="C:\\Users\\u\\Downloads\\encryptor.exe",
                          byteCount=482304, processName="svchost.exe"),
                self.host(t0 + 155, "file_net_created", victim, filePath="C:\\Users\\u\\Downloads\\pubkey.pem",
                          byteCount=451, processName="svchost.exe"),
            ]
        if "encrypt" in steps:
            out += [
                self.host(t0 + d, "file_modified", victim, filePath=self.doc_path(), sensitive=True,
                          processName="encryptor.exe")
                for d in (180, 200, 220, 240, 260, 280)
            ]
        if "cpu" in steps:
            out += [
                self.host(t0 + d, "proc_stat", victim, processName="encryptor.exe", parentProcess="cmd.exe",
                          cpuPercent=round(self.rng.uniform(85.0, 99.0), 1))
                for d in (330, 360)
            ]
        return out

    def spike(self, t0: int, victim: str) -> List[Event]:
        """A burst of 20 blocked inbound connections within 50 s; however
        it falls across the one-minute counting windows, one window holds
        at least half of it."""
        return [
            self.snort(t0 + self.rng.randrange(50), "inbound_blocked", f"198.51.100.{self.rng.randrange(1, 250)}", victim)
            for _ in range(20)
        ]

    # -- background ------------------------------------------------------

    def background(self, n: int, ips: Sequence[str], exposed: Sequence[str], span: int,
                   evidence_hosts: Optional[Sequence[str]] = None) -> List[Event]:
        """`n` everyday events, one in each of `n` equal slots of `span`
        seconds.  The mix is fixed; hosts, exact times and attribute values
        vary with the seed.  Blocked inbound connections hit only the
        `exposed` hosts.  Each host of `evidence_hosts` gets only one kind of
        evidence-bearing event, so background alone raises no alert there."""
        mix = (
            ("proc_stat", 0.27), ("file_modified", 0.20), ("sensitive_mod", 0.04),
            ("file_net_created", 0.04), ("unclassified", 0.20), ("inbound_blocked", 0.18),
            ("portscan", 0.04), ("hot_cpu", 0.03),
        )
        kinds: List[str] = []
        for kind, share in mix:
            kinds += [kind] * round(n * share)
        kinds = (kinds + ["proc_stat"] * n)[:n]
        self.rng.shuffle(kinds)
        evidence = ("sensitive_mod", "file_net_created", "portscan", "hot_cpu")
        pool = list(evidence_hosts or ips)
        hosts_for = {kind: pool[i::len(evidence)] or pool for i, kind in enumerate(evidence)}
        hosts_for["inbound_blocked"] = list(exposed)
        out = []
        for slot, kind in enumerate(kinds):
            t = slot * span // n + self.rng.randrange(max(1, span // n))
            ip = self.rng.choice(hosts_for.get(kind, ips))
            other = f"192.0.2.{self.rng.randrange(1, 250)}"
            if kind in ("unclassified", "inbound_blocked", "portscan"):
                out.append(self.snort(t, kind, other, ip))
            elif kind in ("proc_stat", "hot_cpu"):
                cpu = self.rng.uniform(85.0, 99.0) if kind == "hot_cpu" else self.rng.uniform(1.0, 70.0)
                out.append(self.host(t, "proc_stat", ip, processName=self.rng.choice(PROCS),
                                     parentProcess="explorer.exe", cpuPercent=round(cpu, 1)))
            elif kind in ("file_modified", "sensitive_mod"):
                out.append(self.host(t, "file_modified", ip, filePath=self.doc_path(),
                                     sensitive=kind == "sensitive_mod", processName=self.rng.choice(PROCS)))
            else:
                out.append(self.host(t, "file_net_created", ip, filePath="C:\\Users\\u\\Downloads\\setup.msi",
                                     byteCount=self.rng.randrange(1000, 9000000), processName="firefox.exe"))
        return out


def share_timestamps(events: List[Event]) -> List[Event]:
    """Sort by time and move every 10th event onto the time of the event
    before it, so that some batches hold several lines."""
    events = sorted(events, key=lambda e: e.t)
    out = events[:1]
    for i, ev in enumerate(events[1:], start=1):
        if ev.tag != "intel-text" and i % 10 == 0:
            ev = retime(ev, out[-1].t)
        out.append(ev)
    return out


def retime(ev: Event, t: int) -> Event:
    """The same event at another time (payload timestamps included)."""
    if ev.tag == "snort":
        rest = ev.payload.split(".", 1)[1]
        ts = EPOCH + timedelta(seconds=t)
        return Event(t, ev.tag, ev.kind, ev.host, f"{ts:%m/%d-%H:%M:%S}.{rest}")
    if ev.tag == "host":
        doc = json.loads(ev.payload)
        doc["ts"] = iso(t)
        return Event(t, ev.tag, ev.kind, ev.host, json.dumps(doc, separators=(",", ":")),
                     sensitive=ev.sensitive, cpu=ev.cpu, n_attrs=ev.n_attrs)
    return Event(t, ev.tag, ev.kind, ev.host, ev.payload, uses=ev.uses)


def write_scenario(path: Path, events: Sequence[Event], at: Optional[int] = None) -> None:
    """Write events as a `.scn` file in time order.  With `at`, every line
    carries that scenario time, so the file replays as a single batch."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(f"{iso(ev.t if at is None else at)} {ev.tag} {ev.payload}\n")


# -- the three workloads' inputs ----------------------------------------------


# planted chains: two full WannaCry-like chains, two without one stage
# that still confirm, and two that stop short of confirmation
PLAN = (
    ("recon", "exploit", "deliver", "encrypt", "cpu"),
    ("exploit", "deliver", "encrypt"),
    ("recon", "deliver", "encrypt", "cpu"),  # no SMB exploitation: Suspicion
    ("recon", "exploit", "cpu"),
    ("exploit", "deliver"),  # no impact yet: Suspicion
    ("recon", "exploit", "deliver", "encrypt", "cpu"),
)


def stream(rng: random.Random, n_events: int = 400) -> List[Event]:
    """A live feed over 30 hosts and three hours: intel first, then planted
    chains among background.  Chains start at fixed shares of the span,
    with a few minutes' jitter."""
    n_hosts, span = 30, 3 * 3600
    g = Gen(rng)
    ips = [host_ip(i) for i in range(n_hosts)]
    rng.shuffle(ips)
    victims, spiked, quiet = ips[:len(PLAN)], ips[len(PLAN)], ips[len(PLAN) + 1:]
    events = g.intel(0)
    for i, (steps, victim) in enumerate(zip(PLAN, victims)):
        events += g.chain(span * (i + 1) // (len(PLAN) + 2) + rng.randrange(-300, 300), victim, steps)
    events += g.chain(span * 3 // 4, spiked, ("deliver",))
    events += g.spike(span * 7 // 8 + rng.randrange(-300, 300), spiked)  # Recon: Suspicion
    exposed = quiet[:5] + [spiked]
    events += g.background(n_events - len(events), ips, exposed, span, evidence_hosts=quiet)
    return share_timestamps(events)


def archive(rng: random.Random, n_events: int, intel: bool) -> List[Event]:
    """One archived hour of mixed logs from a site of 10 hosts, with or
    without the intel sentences."""
    n_hosts, span = 10, 3600
    g = Gen(rng)
    ips = [host_ip(i) for i in range(n_hosts)]
    rng.shuffle(ips)
    events = g.intel(0) if intel else []
    events += g.chain(span // 4 + rng.randrange(-300, 300), ips[0], PLAN[0])
    events += g.chain(span // 2 + rng.randrange(-300, 300), ips[1], PLAN[4])
    events += g.chain(span // 2, ips[2], ("deliver",))
    events += g.spike(span * 3 // 4 + rng.randrange(-300, 300), ips[2])
    events += g.background(n_events - len(events), ips, ips[2:6], span, evidence_hosts=ips[3:])
    return sorted(events, key=lambda e: e.t)


def forensic_store(rng: random.Random) -> List[Event]:
    """Two hours of a site's evidence, for the fact store the analyst
    reads: 60 hosts of 70 events each, a fifth of them attacked."""
    n_hosts, per_host, span = 60, 70, 2 * 3600
    g = Gen(rng)
    ips = [host_ip(i) for i in range(n_hosts)]
    rng.shuffle(ips)
    events = g.intel(0)
    for i, ip in enumerate(ips):
        mine = g.chain(rng.randrange(span - 400), ip, PLAN[i % 2]) if i < n_hosts // 5 else []
        events += mine + g.background(per_host - len(mine), [ip], [ip], span)
    return sorted(events, key=lambda e: e.t)
