"""Incremental replay: each batch's stages against whole-store runs.

Replay calls `run_to_fixpoint` and `assemble_alerts` with `since` set to the
store's watermark at the start of the batch, and `extract_indicators` with
the run's `IndicatorState`.  These tests run the same batches through the
whole-store calls (`since=0`, the whole-history indicator oracle) and
require byte-identical stores after every batch, and they bound the work a
batch costs as the store grows.
"""

import random
from datetime import datetime, timedelta, timezone

import pytest

from kcc import correlator
from kcc import scenario as scenario_module
from kcc.correlator import (
    IndicatorConfig,
    IndicatorState,
    assemble_alerts,
    extract_indicators,
)
from kcc.facts import Asserted, FactStore, Pattern
from kcc.ingest import commit_event, make_event_id, parse_snort_line
from kcc.rules import run_to_fixpoint
from kcc.scenario import load_scenario, replay

from conftest import make_test_vocab
from oracles import naive_fixpoint, whole_history_indicators
from randomgen import random_batches, random_ruleset, random_store
from test_sweep import scenario_files

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


YEAR = 365 * 86400


def random_events(rng, n_events, hosts, far):
    """Event triples, as (units, late units): each unit one event's facts,
    bursts on few hosts so that every indicator and every rule has a chance
    to fire.  Some events come `far` seconds after the others.  A late
    unit holds an event's `sensitive` or `cpuPercent` fact, a second one
    that must not count, or one its kind does not use, for replay after
    the event's other facts; the last late unit is an event before every
    other one."""
    units, late = [], []
    for i in range(n_events):
        e = f"event:r{i}"
        host = rng.choice(hosts)
        offset = rng.choice((0, 30, 60, 90, 600, far, far + 60))
        kind = rng.choice(HOST_KINDS + SNORT_KINDS)
        burst = rng.random()
        if burst < 0.2:  # a burst of blocked connections
            host, offset, kind = hosts[0], rng.choice((600, far)), "inbound_blocked"
        elif burst < 0.3:  # a burst of file modifications
            host, offset, kind = hosts[1], rng.choice((90, far)), "file_modified"
        facts = [(e, "eventTs", T0 + timedelta(seconds=offset + rng.randrange(40)))]
        if kind in HOST_KINDS:
            facts += [(e, "hostKind", kind), (e, "onHost", host)]
            attribute = None
            if kind == "file_modified":
                attribute = ("sensitive", int(rng.random() < 0.8), 1)
            if kind == "proc_stat":
                attribute = ("cpuPercent", float(rng.randrange(50, 100)), 99.0)
            if attribute:
                pred, value, other = attribute
                (late if rng.random() < 0.3 else facts).append((e, pred, value))
                if rng.random() < 0.1:  # a second attribute fact: the first counts
                    late.append((e, pred, other))
        else:
            facts += [
                (e, "snortKind", kind),
                (e, "srcIp", "host:10.0.0.9"),
                (e, "dstIp", host),
            ]
        if rng.random() < 0.1:  # an attribute its kind's check does not read
            late.append(rng.choice([(e, "sensitive", 1), (e, "cpuPercent", 95.0)]))
        if rng.random() < 0.05:  # a second host fact: the first one counts
            facts.append((e, "onHost", rng.choice(hosts)))
        facts.append((host, "observedEvent", e))
        units.append(facts)
    late = [[t] for t in late]
    early = "event:early"
    late.append(
        [
            (early, "eventTs", T0 - timedelta(days=1)),
            (early, "snortKind", "inbound_blocked"),
            (early, "dstIp", hosts[0]),
        ]
    )
    return units, late


def step(store, rules, since, indicators):
    new = indicators(store)
    result = run_to_fixpoint(rules, store, since=since)
    return [f.fact_id for f in new], (result.epochs, result.derived)


def test_incremental_fixpoint_matches_whole_store():
    for seed in range(40):
        rng = random.Random(seed)
        triples = [f[1:4] for f in random_store(rng, max_facts=120).query(Pattern.of())]
        rng.shuffle(triples)
        rules = random_ruleset(rng, max_rules=10)
        incremental = FactStore(make_test_vocab())
        whole = FactStore(make_test_vocab())
        for batch in random_batches(rng, triples, 12):
            since = incremental.watermark
            for store in (incremental, whole):
                store.insert(batch, SRC)
            a = run_to_fixpoint(rules, incremental, since=since)
            b = run_to_fixpoint(rules, whole)
            assert (a.epochs, a.derived) == (b.epochs, b.derived), f"seed {seed}"
            assert incremental.dump_lines() == whole.dump_lines(), f"seed {seed}"
        expected = naive_fixpoint(rules.rules, set(triples))
        assert {f[1:4] for f in incremental.query(Pattern.of())} == expected, f"seed {seed}"


def test_incremental_indicators_and_rules_match_whole_store(
    default_vocab, default_rules
):
    """Three stores take the same batches: one with the run's running
    `IndicatorState`, one with a fresh state per batch (as `kcc ingest`
    calls it), and one with the whole-history oracle and whole-store
    fixpoints.  Their facts, ids and premises must agree after every batch.
    Every third seed spreads the events over a year, with day-long spike
    buckets: the oracle builds every bucket of a host's span."""
    for seed in range(24):
        rng = random.Random(seed)
        split = seed % 2 == 0
        far = YEAR if seed % 3 == 0 else 7200
        config = IndicatorConfig(spike_window=86400.0 if far == YEAR else 60.0)

        def whole(store):
            return whole_history_indicators(store, config)

        hosts = [f"host:10.0.0.{i}" for i in range(3)]
        units, late = random_events(rng, rng.randrange(40, 120), hosts, far)
        units += [[t] for t in INTEL]
        if split:  # an event's facts may land in different batches
            units = [[t] for facts in units for t in facts]
        rng.shuffle(units)
        units += late
        for _ in range(len(units) // 10):  # a unit replayed again changes nothing
            units.insert(rng.randrange(len(units) + 1), rng.choice(units))
        running = FactStore(default_vocab)
        fresh = FactStore(default_vocab)
        oracle = FactStore(default_vocab)
        state = IndicatorState(config)
        alerts = {}
        for batch in random_batches(rng, units, 6):
            since = running.watermark
            for store in (running, fresh, oracle):
                for unit in batch:
                    store.insert(unit, SRC)
            expected = step(oracle, default_rules, 0, whole)
            assert step(
                running,
                default_rules,
                since,
                lambda store: extract_indicators(store, state),
            ) == expected, f"seed {seed}"
            assert step(
                fresh,
                default_rules,
                0,
                lambda store: extract_indicators(store, IndicatorState(config)),
            ) == expected, f"seed {seed}"
            assert running.dump_lines() == oracle.dump_lines(), f"seed {seed}"
            assert fresh.dump_lines() == oracle.dump_lines(), f"seed {seed}"
            if not split:  # alerts change only with evidence when events stay whole
                for alert in assemble_alerts(running, since=since):
                    alerts[alert.host] = alert
                assert [alerts[h] for h in sorted(alerts)] == assemble_alerts(oracle)


def synthetic_stream(tmp_path, n_hosts, events_per_host=10, events_per_batch=1):
    """`events_per_batch` events per timestamp, so per batch; every host
    sees the same mix, so a batch's own work does not depend on the host
    count."""
    lines = []
    t = 0
    for k in range(events_per_host):
        for h in range(n_hosts):
            if (k * n_hosts + h) % events_per_batch == 0:
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
    """Every `lookup` counts too: the rule engine's, and the one inside a
    query with a predicate."""
    calls = [0]
    query, lookup = FactStore.query, FactStore.lookup

    def counted(self, pattern):
        calls[0] += 1
        return query(self, pattern)

    def counted_lookup(self, subject, predicate):
        calls[0] += 1
        return lookup(self, subject, predicate)

    monkeypatch.setattr(FactStore, "query", counted)
    monkeypatch.setattr(FactStore, "lookup", counted_lookup)
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
    """Counts facts, not calls, so a store-wide scan inside one query,
    index lookup or batch read shows (a query with a predicate hands its
    facts out twice, from its `lookup` and from itself): the same hosts
    with four times the history cost a batch no more."""
    handed = [0]
    query, lookup = FactStore.query, FactStore.lookup
    new_facts = FactStore.new_facts

    def counted_query(self, pattern):
        found = query(self, pattern)
        handed[0] += len(found)
        return found

    def counted_lookup(self, subject, predicate):
        found = lookup(self, subject, predicate)
        handed[0] += len(found)
        return found

    def counted_new_facts(self, watermark, predicates):
        found = new_facts(self, watermark, predicates)
        handed[0] += sum(map(len, found.values()))
        return found

    monkeypatch.setattr(FactStore, "query", counted_query)
    monkeypatch.setattr(FactStore, "lookup", counted_lookup)
    monkeypatch.setattr(FactStore, "new_facts", counted_new_facts)
    # batches of one event take each predicate's last fact alone, batches
    # of two bisect the predicate index
    for events_per_batch in (1, 2):
        per_batch = []
        for events_per_host in (10, 40):
            scenario = synthetic_stream(tmp_path, 10, events_per_host, events_per_batch)
            handed[0] = 0
            transcript = replay(scenario, engine_config)
            per_batch.append(handed[0] / len(transcript.batches))
        small, large = per_batch
        assert large <= 1.5 * small, (events_per_batch, per_batch)


def test_spike_work_per_batch_does_not_grow_with_the_time_span(
    default_vocab, monkeypatch
):
    """Counts the records the checks visit (each time difference they
    compute), not wall time: blocked connections a year apart cost a batch
    what connections a minute apart cost, though a year holds 525,600
    spike buckets, and a four times longer history costs a batch no more
    than a few probes more."""
    visits = [0]
    seconds = correlator._seconds

    def counted(later, earlier):
        visits[0] += 1
        return seconds(later, earlier)

    monkeypatch.setattr(correlator, "_seconds", counted)

    def per_batch(gap, n):
        store = FactStore(default_vocab)
        state = IndicatorState()
        costs = []
        for i in range(n):
            e = f"event:b{i}"
            store.insert(
                [
                    (e, "snortKind", "inbound_blocked"),
                    (e, "dstIp", "host:victim"),
                    (e, "eventTs", T0 + i * gap),
                ],
                SRC,
            )
            visits[0] = 0
            assert extract_indicators(store, state=state) == []
            costs.append(visits[0])
        return costs

    minute = per_batch(timedelta(minutes=1), 40)
    assert per_batch(timedelta(days=365), 40) == minute
    longer = per_batch(timedelta(days=365), 160)
    assert max(longer) == max(minute), (max(longer), max(minute))
    assert longer[-1] <= 1.5 * minute[-1], (longer[-1], minute[-1])


def test_fired_indicator_is_not_tested_again(default_vocab, monkeypatch):
    """Once the store holds a host's indicator, by this state's doing or
    not, its check visits none of the host's records."""
    visits = [0]
    seconds = correlator._seconds

    def counted(later, earlier):
        visits[0] += 1
        return seconds(later, earlier)

    monkeypatch.setattr(correlator, "_seconds", counted)
    store = FactStore(default_vocab)

    def blocked(i, ts):
        e = f"event:b{i}"
        store.insert(
            [(e, "snortKind", "inbound_blocked"), (e, "dstIp", "host:victim"), (e, "eventTs", ts)],
            SRC,
        )

    blocked(0, T0)
    for i in range(12):
        blocked(1 + i, T0 + timedelta(seconds=60 + i))
    state = IndicatorState()
    (fact,) = extract_indicators(store, state=state)
    for later in (state, IndicatorState()):
        blocked(100 + len(store), T0 + timedelta(seconds=61))
        visits[0] = 0
        assert extract_indicators(store, state=later) == []
        assert visits[0] == 0


@pytest.mark.parametrize("late", ["eventTs", "host", "both"])
@pytest.mark.parametrize(
    "kind_pred, host_pred, older, newer, attributes",
    [
        ("snortKind", "dstIp", "suspicious_download", "inbound_blocked", []),
        ("hostKind", "onHost", "proc_stat", "file_modified", [("cpuPercent", 95.0)]),
    ],
    ids=["download", "high-cpu"],
)
def test_older_kind_fact_is_due_with_a_newer_one(
    default_vocab, late, kind_pred, host_pred, older, newer, attributes
):
    """An event's older kind fact gets its record in the batch that brings
    the event's time or host, also when that batch brings a second, new kind
    fact under the same predicate: both records are due then.  The older
    kind's indicator fires only if its record is made."""
    host = "host:10.0.0.1"
    batches = [[], []]
    for i in range(2):  # two events: high CPU needs two hot samples
        e = f"event:k{i}"
        batches[0] += [(e, kind_pred, older)] + [(e, p, v) for p, v in attributes]
        batches[late != "host"].append((e, "eventTs", T0 + timedelta(seconds=i)))
        batches[late != "eventTs"].append((e, host_pred, host))
        batches[1] += [(e, kind_pred, newer)]
    running, oracle = FactStore(default_vocab), FactStore(default_vocab)
    state = IndicatorState()
    for batch in batches:
        for store in (running, oracle):
            store.insert(batch, SRC)
        assert [f.fact_id for f in extract_indicators(running, state)] == [
            f.fact_id for f in whole_history_indicators(oracle, state.config)
        ]
        assert running.dump_lines() == oracle.dump_lines()
    assert running.query(Pattern.of(host, "hasIndicator"))


def count_reads(monkeypatch, module, name):
    """Counts of the `FactStore.lookup` and `FactStore.first` calls made
    inside `module.name`, which this patches."""
    reads = {"lookup": 0, "first": 0}
    inside = [False]
    lookup, first, stage = FactStore.lookup, FactStore.first, getattr(module, name)

    def counted_lookup(self, subject, predicate):
        reads["lookup"] += inside[0]
        return lookup(self, subject, predicate)

    def counted_first(self, subject, predicate):
        reads["first"] += inside[0]
        return first(self, subject, predicate)

    def counted_stage(*args, **kwargs):
        inside[0] = True
        try:
            return stage(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(FactStore, "lookup", counted_lookup)
    monkeypatch.setattr(FactStore, "first", counted_first)
    monkeypatch.setattr(module, name, counted_stage)
    return reads


def test_unclassified_snort_batch_reads_nothing_for_the_checks(
    default_vocab, sidmap, monkeypatch
):
    """A batch that holds only an `unclassified` Snort event makes no
    `FactStore.lookup` or `first` call inside `extract_indicators`: no check
    reads its kind, so its kind fact makes no record, and its `dstIp` and
    `eventTs` facts wake no due kind fact, though one is due (a blocked
    connection whose time has not come)."""
    store, state = FactStore(default_vocab), IndicatorState()
    store.insert(
        [("event:late", "snortKind", "inbound_blocked"), ("event:late", "dstIp", "host:10.0.0.1")],
        SRC,
    )
    assert extract_indicators(store, state) == []
    assert "event:late" in state.due
    line = (
        "08/15-14:31:00.000000  [**] [1:9999999:1] MSG [**] [Classification: Misc activity] "
        "[Priority: 3] {TCP} 10.9.9.9:4000 -> 10.0.0.2:445"
    )
    event = parse_snort_line(line, sidmap, year=2017)
    assert event.kind.token == "unclassified"
    assert commit_event(store, event, make_event_id("snort", line, 0))
    reads = count_reads(monkeypatch, correlator, "extract_indicators")
    assert correlator.extract_indicators(store, state) == []
    assert reads == {"lookup": 0, "first": 0}
    assert "event:late" in state.due


def test_stream_replay_files_indicator_records_by_kind_key(tmp_path, engine_config, monkeypatch):
    """On the seed-1 `stream_detect` replay, the indicator stage makes no
    `FactStore.lookup` call and fewer than 500 `first` calls (it makes 473).
    Records are built from the batch's new kind facts, filed under their
    check keys; when every event a batch touched had both its kind
    predicates looked up, the stage made 794 lookups and 741 `first`
    calls."""
    reads = count_reads(monkeypatch, scenario_module, "extract_indicators")
    name, path = next(scenario_files(tmp_path))
    assert name == "stream_detect-1"
    replay(load_scenario(path), engine_config)
    assert reads["lookup"] == 0
    assert 0 < reads["first"] < 500
