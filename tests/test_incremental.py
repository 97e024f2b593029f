"""Incremental replay: each batch's stages against whole-store runs.

Replay calls `run_to_fixpoint` and `assemble_alerts` with `since` set to the
store's watermark at the start of the batch, and `extract_indicators` with
the run's `IndicatorState`.  These tests run the same batches through the
whole-store calls (`since=0`, a fresh state) and require byte-identical
stores after every batch, and they bound the work a batch costs as the
store grows.
"""

import random
from datetime import datetime, timedelta, timezone

from kcc.correlator import IndicatorState, assemble_alerts, extract_indicators
from kcc.facts import Asserted, FactStore
from kcc.rules import run_to_fixpoint
from kcc.scenario import load_scenario, replay

from conftest import make_test_vocab
from oracles import naive_fixpoint
from randomgen import random_ruleset, random_store

T0 = datetime(2017, 8, 15, 14, 0, 0, tzinfo=timezone.utc)
SRC = Asserted("test")

HOST_KINDS = ("file_modified", "proc_stat", "file_net_created")
SNORT_KINDS = (
    "portscan",
    "malformed_smb",
    "suspicious_download",
    "inbound_blocked",
    "unclassified",
)
INTEL = [
    ("malware:wannacry", "isClass", "class:ransomware"),
    ("malware:wannacry", "usesTechnique", "technique:malformed_smb_exploit"),
    ("malware:emotet", "usesTechnique", "technique:portscan"),
]


def random_batches(rng, items, max_batch):
    out = []
    i = 0
    while i < len(items):
        n = rng.randrange(1, max_batch + 1)
        out.append(items[i : i + n])
        i += n
    return out


def random_events(rng, n_events, hosts):
    """Event triples grouped per event: bursts on few hosts so that every
    indicator and every rule has a chance to fire."""
    events = []
    for i in range(n_events):
        e = f"event:r{i}"
        host = rng.choice(hosts)
        offset = rng.choice((0, 30, 60, 90, 600))
        kind = rng.choice(HOST_KINDS + SNORT_KINDS)
        if rng.random() < 0.2:  # a burst of blocked connections
            host, offset, kind = hosts[0], 600, "inbound_blocked"
        facts = [(e, "eventTs", T0 + timedelta(seconds=offset + rng.randrange(40)))]
        if kind in HOST_KINDS:
            facts += [(e, "hostKind", kind), (e, "onHost", host)]
            if kind == "file_modified":
                facts.append((e, "sensitive", int(rng.random() < 0.8)))
            if kind == "proc_stat":
                facts.append((e, "cpuPercent", float(rng.randrange(50, 100))))
        else:
            facts += [
                (e, "snortKind", kind),
                (e, "srcIp", "host:10.0.0.9"),
                (e, "dstIp", host),
            ]
        if rng.random() < 0.05:  # a second host fact: the first one counts
            facts.append((e, "onHost", rng.choice(hosts)))
        facts.append((host, "observedEvent", e))
        events.append(facts)
    return events


def step(store, rules, since, state=None):
    indicators = extract_indicators(store, state=state)
    result = run_to_fixpoint(rules, store, since=since)
    return [f.fact_id for f in indicators], (result.epochs, result.derived)


def test_incremental_fixpoint_matches_whole_store():
    for seed in range(40):
        rng = random.Random(seed)
        triples = [f.triple for f in random_store(rng, max_facts=120)]
        rng.shuffle(triples)
        rules = random_ruleset(rng, max_rules=10)
        incremental = FactStore(make_test_vocab())
        whole = FactStore(make_test_vocab())
        for batch in random_batches(rng, triples, 12):
            since = incremental.watermark
            for store in (incremental, whole):
                for s, p, o in batch:
                    store.insert(s, p, o, SRC)
            a = run_to_fixpoint(rules, incremental, since=since)
            b = run_to_fixpoint(rules, whole)
            assert (a.epochs, a.derived) == (b.epochs, b.derived), f"seed {seed}"
            assert incremental.dump_lines() == whole.dump_lines(), f"seed {seed}"
        expected = naive_fixpoint(rules.rules, set(triples))
        assert {f.triple for f in incremental} == expected, f"seed {seed}"


def test_incremental_indicators_and_rules_match_whole_store(
    default_vocab, default_rules
):
    for seed in range(12):
        rng = random.Random(seed)
        split = seed % 2 == 0
        hosts = [f"host:10.0.0.{i}" for i in range(3)]
        events = random_events(rng, rng.randrange(40, 120), hosts)
        units = [[t] for t in INTEL] + events
        if split:  # an event's facts may land in different batches
            units = [[t] for facts in units for t in facts]
        rng.shuffle(units)
        incremental = FactStore(default_vocab)
        whole = FactStore(default_vocab)
        state = IndicatorState()
        alerts = {}
        for batch in random_batches(rng, units, 6):
            since = incremental.watermark
            for store in (incremental, whole):
                for unit in batch:
                    store.insert_all(unit, SRC)
            assert step(incremental, default_rules, since, state) == step(
                whole, default_rules, 0
            ), f"seed {seed}"
            assert incremental.dump_lines() == whole.dump_lines(), f"seed {seed}"
            if not split:  # alerts change only with evidence when events stay whole
                for alert in assemble_alerts(incremental, since=since):
                    alerts[alert.host] = alert
                assert [alerts[h] for h in sorted(alerts)] == assemble_alerts(whole)


def synthetic_stream(tmp_path, n_hosts, events_per_host=10):
    """One event per timestamp, so one batch per event; every host sees the
    same mix, so a batch's own work does not depend on the host count."""
    lines = []
    t = 0
    for k in range(events_per_host):
        for h in range(n_hosts):
            t += 7
            ts = T0 + timedelta(seconds=t)
            iso = ts.strftime("%Y-%m-%dT%H:%M:%SZ")
            ip = f"10.1.{h // 200}.{h % 200 + 10}"
            if k % 3 == 0:
                sid = (1000001, 1000004, 9999999)[k % 9 // 3]
                stamp = ts.strftime("%m/%d-%H:%M:%S.000000")
                lines.append(
                    f"{iso} snort {stamp}  [**] [1:{sid}:1] MSG [**] "
                    f"[Classification: Misc activity] [Priority: 3] {{TCP}} "
                    f"10.9.9.9:4000 -> {ip}:445"
                )
            else:
                kind, attrs = (
                    ("proc.stat", '{"cpuPercent": 20.0}')
                    if k % 3 == 1
                    else ("file.modified", '{"sensitive": false}')
                )
                lines.append(
                    f'{iso} host {{"agent": "process", "ts": "{iso}", '
                    f'"host": "host:{ip}", "type": "{kind}", "attrs": {attrs}}}'
                )
    path = tmp_path / f"stream{n_hosts}.scn"
    path.write_text("\n".join(lines) + "\n")
    return load_scenario(path)


def test_query_calls_per_batch_do_not_grow_with_the_store(
    tmp_path, engine_config, monkeypatch
):
    calls = [0]
    query = FactStore.query

    def counted(self, pattern):
        calls[0] += 1
        return query(self, pattern)

    monkeypatch.setattr(FactStore, "query", counted)
    per_batch = []
    for n_hosts in (10, 40):
        scenario = synthetic_stream(tmp_path, n_hosts)
        calls[0] = 0
        transcript = replay(scenario, engine_config)
        per_batch.append(calls[0] / len(transcript.batches))
    small, large = per_batch
    assert large <= 1.5 * small, per_batch


def test_facts_handed_out_per_batch_do_not_grow_with_history(
    tmp_path, engine_config, monkeypatch
):
    """Counts facts, not calls, so a store-wide scan inside one query shows:
    the same hosts with four times the history cost a batch no more."""
    handed = [0]
    query, facts_since = FactStore.query, FactStore.facts_since

    def counted_query(self, pattern):
        found = query(self, pattern)
        handed[0] += len(found)
        return found

    def counted_facts_since(self, watermark):
        found = facts_since(self, watermark)
        handed[0] += len(found)
        return found

    monkeypatch.setattr(FactStore, "query", counted_query)
    monkeypatch.setattr(FactStore, "facts_since", counted_facts_since)
    per_batch = []
    for events_per_host in (10, 40):
        scenario = synthetic_stream(tmp_path, 10, events_per_host)
        handed[0] = 0
        transcript = replay(scenario, engine_config)
        per_batch.append(handed[0] / len(transcript.batches))
    small, large = per_batch
    assert large <= 1.5 * small, per_batch
