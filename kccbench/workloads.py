"""The three workloads.  Each one makes its inputs from the seed, sets up,
runs rounds of fixed work through kcc's public API, and checks every
operation against the independent reference or a full-scan property.

A workload has:
  setup()        -> state        timed as setup_s, before every
                                 `rounds_per_setup` rounds
  round(state)   -> (op latencies, outcome)
  check(outcome) -> failed ops   outside all timing
  checks(state)  -> (attempted, failed) of the fixed per-run checks

Every latency is scaled by `speed()`, measured just before the operation.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import zip_longest
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from kcc import facts as kfacts
from kcc import ingest as kingest
from kcc import rules as krules
from kcc import scenario as kscenario
from kcc import vocab as kvocab

import gen
import reference

DATA = Path(kfacts.__file__).resolve().parent / "data"
GOLDEN_ALERT = [("host:192.168.56.102", "Confirmed", "malware:wannacry")]

# the probe's time on an idle 2.0 GHz core of the machine the reference
# figures in README.md come from
PROBE_REF_S = 0.0004


def _probe() -> int:
    """Fixed interpreter work of the kind kcc does (tuple keys, a dict of
    lists, a sort), independent of kcc's code."""
    index: Dict[str, list] = {}
    for i in range(400):
        key = ("event:%04x" % (i * 2654435761 % 65536), "p%d" % (i % 7))
        index.setdefault(key[1], []).append(key)
    return sum(len(v) for v in sorted(index.values()))


def speed() -> float:
    """The CPU's speed now, relative to the reference machine.  On a shared
    machine a CPU slows by up to 1.8x for seconds at a time when another
    tenant runs beside it; a latency times the speed measured just before
    it is the time the operation takes at reference speed."""
    start = perf_counter()
    _probe()
    return PROBE_REF_S / (perf_counter() - start)


def load_config() -> kscenario.EngineConfig:
    vocab = kvocab.load_vocabulary(DATA / "vocab.kcv")
    return kscenario.EngineConfig(
        vocab=vocab,
        rules=krules.load_ruleset(DATA / "rules" / "default.kcr", vocab),
        sidmap=kingest.SidMap.load(DATA / "sidmap.kcm"),
        techniques=kingest.TechniqueTable.load(DATA / "techniques.kct"),
    )


def alert_rows(alerts: List[Dict[str, Any]]) -> List[reference.Alert]:
    return [(a["host"], a["tier"], a["malware"], tuple(a["phases"])) for a in alerts]


def reference_scenarios(config, workdir: Path) -> Tuple[int, int]:
    """golden.scn gives exactly one Confirmed wannacry alert on the victim,
    benign.scn gives none, and the golden store survives dump and load byte
    for byte.  Returns (attempted, failed)."""
    golden = kscenario.replay(kscenario.load_scenario(DATA / "scenarios" / "golden.scn"), config)
    confirmed = [(a.host, a.tier, a.malware) for a in golden.alerts if a.tier == "Confirmed"]
    benign = kscenario.replay(kscenario.load_scenario(DATA / "scenarios" / "benign.scn"), config)
    path = workdir / "golden.dump"
    golden.store.dump(path)
    reloaded = kfacts.FactStore.load(path, config.vocab).dump_lines()
    results = (confirmed == GOLDEN_ALERT, not benign.alerts, reloaded == golden.store.dump_lines())
    return len(results), results.count(False)


class PulledScenario(kscenario.Scenario):
    """A scenario that times each batch from its hand-over to replay's next
    pull: from new input to updated alerts."""

    def batches(self):
        self.latencies = []
        for batch in super().batches():
            scale = speed()
            start = perf_counter()
            yield batch
            self.latencies.append((perf_counter() - start) * scale)


class StreamDetect:
    """A live feed replayed batch by batch; one operation is one batch."""

    rounds_per_setup = 1

    def __init__(self, seed: int, workdir: Path):
        events = gen.stream(random.Random(seed))
        self.path = workdir / "stream.scn"
        gen.write_scenario(self.path, events)
        self.snapshots, self.timeline = reference.stream_expectations(events)

    def setup(self):
        return load_config(), kscenario.load_scenario(self.path)

    def round(self, state):
        config, loaded = state
        scenario = PulledScenario(loaded.name, loaded.lines, loaded.base_dir)
        try:
            transcript = kscenario.replay(scenario, config)
        except Exception as exc:  # a crash fails the round's remaining batches
            transcript = exc
        latencies = getattr(scenario, "latencies", [])
        pulled = len(latencies)
        latencies = (latencies + [0.0] * len(self.snapshots))[: len(self.snapshots)]
        return latencies, (transcript, pulled)

    def check(self, outcome) -> int:
        transcript, pulled = outcome
        if isinstance(transcript, Exception) or pulled != len(transcript.batches):
            return len(self.snapshots)
        failed = sum(
            got is None or want is None or alert_rows(got["alerts"]) != want
            for got, want in zip_longest(transcript.batches, self.snapshots)
        )
        timeline = [(e["host"], e["tier"], e["first_ts"]) for e in transcript.alert_timeline]
        return min(len(self.snapshots), max(failed, int(timeline != self.timeline)))

    def checks(self, state) -> Tuple[int, int]:
        return 0, 0


class ArchiveIngest:
    """Archived logs, each replayed as one batch into a fresh store and
    dumped, as `kcc ingest` does; one operation is one archive."""

    rounds_per_setup = 1
    # 48 archives of 200 to 600 events, 400 on average, every other size
    # with the intel sentences; the seed sets their order
    kinds = [(200 + 400 * i // 47, i % 2 == 0) for i in range(48)]

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        self.paths: List[Path] = []
        self.expected = []
        for i, (n_events, intel) in enumerate(kinds):
            start = 3600 * i
            events = [gen.retime(ev, ev.t + start) for ev in gen.archive(rng, n_events, intel)]
            path = workdir / f"archive{i:02d}.scn"
            gen.write_scenario(path, events, at=start + 3600)
            alerts = reference.final_alerts(events)
            timeline = [(host, tier, gen.iso(start + 3600)) for host, tier, _, _ in alerts]
            self.paths.append(path)
            self.expected.append((alerts, sorted(timeline), reference.asserted_fact_count(events)))

    def setup(self):
        return load_config(), [kscenario.load_scenario(p) for p in self.paths]

    def round(self, state):
        config, scenarios = state
        latencies, outcome = [], []
        for scenario in scenarios:
            scale = speed()
            start = perf_counter()
            try:
                transcript = kscenario.replay(scenario, config)
                lines = transcript.store.dump_lines()
            except Exception as exc:
                transcript, lines = exc, []
            latencies.append((perf_counter() - start) * scale)
            outcome.append(self._summary(transcript, lines))
        return latencies, outcome

    @staticmethod
    def _summary(transcript, lines: List[str]):
        if isinstance(transcript, Exception):
            return None
        asserted = sum(line.rsplit(" ", 1)[1].startswith("asserted:") for line in lines)
        timeline = [(e["host"], e["tier"], e["first_ts"]) for e in transcript.alert_timeline]
        alerts = alert_rows([a.to_json_dict() for a in transcript.alerts])
        return alerts, timeline, asserted, len(lines) == len(transcript.store)

    def check(self, outcome) -> int:
        return sum(
            got is None or got[:3] != want or not got[3]
            for got, want in zip(outcome, self.expected)
        )

    def checks(self, state) -> Tuple[int, int]:
        return 0, 0


class HostForensics:
    """Reads of one large fact store; one operation is one analyst
    investigation of one host."""

    rounds_per_setup = 10

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        events = gen.forensic_store(rng)
        site = workdir / "site.scn"
        gen.write_scenario(site, events, at=events[-1].t)
        transcript = kscenario.replay(kscenario.load_scenario(site), load_config())
        self.dump = workdir / "site.dump"
        transcript.store.dump(self.dump)
        del transcript
        self.lines = self.dump.read_text(encoding="utf-8").splitlines()
        # the full-scan answer to every query an investigation makes
        self.by_s: Dict[str, List[int]] = defaultdict(list)
        self.by_sp: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        self.events_of: Dict[str, set] = defaultdict(set)
        for line in self.lines:
            fid_text, subject, predicate, rest = line.split(" ", 3)
            fid = int(fid_text[1:])
            self.by_s[subject].append(fid)
            self.by_sp[(subject, predicate)].append(fid)
            if predicate == "observedEvent":
                self.events_of[subject].add(rest.rsplit(" ", 1)[0])
        self.hosts = sorted({ev.host for ev in events if ev.host})
        rng.shuffle(self.hosts)

    def setup(self):
        config = load_config()
        return config, kfacts.FactStore.load(self.dump, config.vocab)

    def round(self, state):
        _, store = state
        Pattern = kfacts.Pattern
        latencies, outcome = [], []
        for host in self.hosts:
            scale = speed()
            start = perf_counter()
            try:
                events = store.query(Pattern.of(host, "observedEvent"))
                attributes = [store.query(Pattern.of(f.obj)) for f in events]
                evidence = (store.query(Pattern.of(host, "hasPhaseEvidence"))
                            + store.query(Pattern.of(host, "attackDetected")))
                trees = [store.explain(f.fact_id) for f in evidence]
                found = (host, events, attributes, evidence, trees)
            except Exception as exc:
                found = exc
            latencies.append((perf_counter() - start) * scale)
            outcome.append(found)
        return latencies, outcome

    def check(self, outcome) -> int:
        return sum(not self._investigation_ok(found) for found in outcome)

    def _investigation_ok(self, found) -> bool:
        if isinstance(found, Exception):
            return False
        host, events, attributes, evidence, trees = found
        if not self._same(events, self.by_sp[(host, "observedEvent")], host, "observedEvent"):
            return False
        if not all(self._same(attrs, self.by_s[e.obj], e.obj) for e, attrs in zip(events, attributes)):
            return False
        want = self.by_sp[(host, "hasPhaseEvidence")] + self.by_sp[(host, "attackDetected")]
        if [f.fact_id for f in evidence] != want:
            return False
        mine = self.events_of[host]
        return all(
            isinstance(leaf.provenance, kfacts.Asserted)
            and (leaf.subject in mine or leaf.provenance.source == "intel")
            for tree in trees for leaf in tree.leaves()
        )

    @staticmethod
    def _same(facts, want_ids, subject, predicate=None) -> bool:
        return [f.fact_id for f in facts] == want_ids and all(
            f.subject == subject and predicate in (None, f.predicate) for f in facts
        )

    def checks(self, state) -> Tuple[int, int]:
        """The loaded store dumps back to the dump it was loaded from."""
        _, store = state
        return 1, int(store.dump_lines() != self.lines)


WORKLOADS = {
    "stream_detect": StreamDetect,
    "archive_ingest": ArchiveIngest,
    "host_forensics": HostForensics,
}
