import random
from datetime import datetime, timedelta, timezone

import pytest

from kcc import correlator
from kcc.correlator import (
    IndicatorConfig,
    IndicatorState,
    assemble_alerts,
    extract_indicators,
    render_report,
)
from kcc.facts import Asserted, Derived, FactStore, Pattern
from kcc.ingest import commit_intel, extract_intel_from_text
from kcc.rules import run_to_fixpoint
from kcc.vocab import IndicatorKind, KillChainPhase

from oracles import brute_force_first_spike, brute_force_sliding_hit

T0 = datetime(2017, 8, 15, 14, 0, 0, tzinfo=timezone.utc)


def add_file_mod(store, n, ts, host="host:victim", sensitive=True):
    e = f"event:fm{n}"
    store.insert(
        [(e, "hostKind", "file_modified"), (e, "onHost", host), (e, "eventTs", ts),
         (e, "sensitive", 1 if sensitive else 0)],
        Asserted("file-agent"),
    )


def add_proc_stat(store, n, ts, cpu, host="host:victim"):
    e = f"event:ps{n}"
    store.insert(
        [(e, "hostKind", "proc_stat"), (e, "onHost", host), (e, "eventTs", ts),
         (e, "cpuPercent", cpu)],
        Asserted("process-agent"),
    )


def add_blocked(store, n, ts, host="host:victim"):
    e = f"event:bl{n}"
    store.insert(
        [(e, "snortKind", "inbound_blocked"), (e, "srcIp", "host:10.0.0.9"),
         (e, "dstIp", host), (e, "eventTs", ts)],
        Asserted("snort"),
    )


def indicator_hosts(store, kind):
    return {
        f.subject
        for f in store.query(Pattern.of(None, "hasIndicator", kind.entity_id))
    }


# each setting and its default, whose type is the setting's
SETTINGS = vars(IndicatorConfig())


class TestIndicatorConfig:
    def test_defaults_valid(self):
        IndicatorConfig().validate()

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            IndicatorConfig(mass_file_mod_threshold=0).validate()

    def test_spike_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            IndicatorConfig(spike_factor=1.0).validate()

    def test_from_mapping_coerces_types(self):
        config = IndicatorConfig.from_mapping(
            {"high_cpu_threshold": "70", "mass_file_mod_threshold": "3"}
        )
        assert config.high_cpu_threshold == 70.0
        assert config.mass_file_mod_threshold == 3

    @pytest.mark.parametrize("key", ["validate", "bogus"])
    def test_from_mapping_takes_only_fields(self, key):
        with pytest.raises(ValueError, match=f"unknown indicator setting '{key}'"):
            IndicatorConfig.from_mapping({key: "1"})

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [k for k, v in SETTINGS.items() if type(v) is float])
    def test_decimal_setting_must_be_finite(self, key, raw):
        with pytest.raises(ValueError, match=f"'{key}'"):
            IndicatorConfig.from_mapping({key: raw})
        with pytest.raises(ValueError, match=f"'{key}'"):
            IndicatorConfig(**{key: float(raw)}).validate()
        IndicatorConfig(**{key: 2}).validate()  # an int is a decimal too

    @pytest.mark.parametrize("key", SETTINGS)
    def test_int_beyond_float_range_is_not_finite(self, key):
        # math.isfinite raised OverflowError for such an int
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            IndicatorConfig(**{key: 10**400}).validate()
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            IndicatorConfig.from_mapping({key: "9" * 400})

    @pytest.mark.parametrize("raw", ["5.5", "nan", "inf"])
    @pytest.mark.parametrize("key", [k for k, v in SETTINGS.items() if type(v) is int])
    def test_int_setting_must_be_an_int(self, key, raw):
        with pytest.raises(ValueError, match=f"'{key}'"):
            IndicatorConfig.from_mapping({key: raw})
        for value in (float(raw), True):  # built in Python, not read from text
            with pytest.raises(ValueError, match=f"'{key}'"):
                IndicatorConfig(**{key: value}).validate()


class TestMassFileModification:
    def test_six_mods_in_two_minutes(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(seconds=20 * i))
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.MASS_FILE_MODIFICATION) == {
            "host:victim"
        }

    def test_four_mods_below_threshold(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(4):
            add_file_mod(store, i, T0 + timedelta(seconds=20 * i))
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.MASS_FILE_MODIFICATION) == set()

    def test_insensitive_mods_do_not_count(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(seconds=20 * i), sensitive=False)
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.MASS_FILE_MODIFICATION) == set()

    def test_spread_out_mods_do_not_count(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(seconds=400 * i))
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.MASS_FILE_MODIFICATION) == set()


class TestHighCpu:
    def test_two_hot_samples(self, default_vocab):
        store = FactStore(default_vocab)
        add_proc_stat(store, 0, T0, 93.5)
        add_proc_stat(store, 1, T0 + timedelta(seconds=30), 91.0)
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.HIGH_CPU_USAGE) == {"host:victim"}

    def test_one_hot_sample_not_enough(self, default_vocab):
        store = FactStore(default_vocab)
        add_proc_stat(store, 0, T0, 93.5)
        add_proc_stat(store, 1, T0 + timedelta(seconds=30), 40.0)
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.HIGH_CPU_USAGE) == set()


class TestInboundSpike:
    def test_spike_after_quiet_baseline(self, default_vocab):
        store = FactStore(default_vocab)
        # one blocked connection per window for 5 windows, then a burst of 12
        for i in range(5):
            add_blocked(store, i, T0 + timedelta(seconds=60 * i))
        for j in range(12):
            add_blocked(store, 100 + j, T0 + timedelta(seconds=60 * 5 + j))
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.INBOUND_ACCESS_SPIKE) == {
            "host:victim"
        }

    def test_steady_rate_is_not_a_spike(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(60):
            add_blocked(store, i, T0 + timedelta(seconds=5 * i))
        extract_indicators(store, IndicatorState())
        assert indicator_hosts(store, IndicatorKind.INBOUND_ACCESS_SPIKE) == set()

    def test_spike_matches_brute_force(self, default_vocab):
        rng = random.Random(71)
        config = IndicatorConfig()
        for trial in range(60):
            stamps = []
            for k in range(rng.randrange(1, 12)):
                n = rng.choice([0, 1, 2, 3, 10, 12, 20, 40])
                stamps += [60 * k + rng.uniform(0, 59) for _ in range(n)]
            stamps = sorted(T0 + timedelta(seconds=t) for t in stamps)
            store = FactStore(default_vocab)
            for i, ts in enumerate(stamps):
                add_blocked(store, i, ts)
            facts = extract_indicators(store, IndicatorState(config))
            k = brute_force_first_spike(
                stamps, config.spike_window, config.spike_factor, config.spike_min_count
            )
            if k is None:
                assert facts == [], f"trial {trial}"
                continue
            (fact,) = facts
            t0 = stamps[0]
            in_window = {
                i
                for i, ts in enumerate(stamps)
                if int((ts - t0).total_seconds() // config.spike_window) == k
            }
            subjects = {store.get(p).subject for p in fact.provenance.premises}
            assert subjects == {f"event:bl{i}" for i in in_window}, f"trial {trial}"


def random_batches(rng, ops):
    while ops:
        n = rng.randrange(1, 6)
        yield ops[:n]
        ops = ops[n:]


class TestRunningWindows:
    """The running checks of one `IndicatorState`, fed in random batches
    and out of time order, against the brute-force window oracles after
    every batch."""

    def test_mass_modification_matches_sliding_oracle_in_batches(
        self, default_vocab
    ):
        rng = random.Random(13)
        config = IndicatorConfig()
        window, threshold = config.mass_file_mod_window, config.mass_file_mod_threshold
        hits = 0
        for trial in range(60):
            n = rng.randrange(0, 60)
            span = rng.choice([600, 3600])
            stamps = [T0 + timedelta(seconds=rng.uniform(0, span)) for _ in range(n)]
            values = [int(rng.random() < 0.8) for _ in range(n)]
            # ("event", i) inserts event i; ("sensitive", i) its late sensitive fact
            ops = [("event", i) for i in range(n)]
            rng.shuffle(ops)
            for i in range(n):
                if rng.random() < 0.3:
                    after = ops.index(("event", i)) + 1
                    ops.insert(rng.randrange(after, len(ops) + 1), ("sensitive", i))
            late = {i for op, i in ops if op == "sensitive"}
            store = FactStore(default_vocab)
            state = IndicatorState(config)
            placed, marked, fired = set(), set(), False
            for batch in random_batches(rng, ops):
                for op, i in batch:
                    e = f"event:fm{i}"
                    triples = []
                    if op == "event":
                        triples += [(e, "hostKind", "file_modified"), (e, "onHost", "host:victim"),
                                    (e, "eventTs", stamps[i])]
                        placed.add(i)
                    if op == "sensitive" or i not in late:
                        triples.append((e, "sensitive", values[i]))
                        marked.add(i)
                    store.insert(triples, Asserted("file-agent"))
                facts = extract_indicators(store, state)
                if fired:
                    assert facts == [], f"trial {trial}"
                    continue
                mods = sorted((stamps[i], i) for i in placed & marked if values[i] == 1)
                hit = brute_force_sliding_hit([t for t, _ in mods], window, threshold)
                assert bool(facts) == hit, f"trial {trial}"
                if not hit:
                    continue
                # the earliest window [t, t + window] holding threshold mods
                windows = (
                    {i for u, i in mods if 0 <= (u - t).total_seconds() <= window}
                    for t, _ in mods
                )
                expected = next(w for w in windows if len(w) >= threshold)
                (fact,) = facts
                subjects = {store.get(p).subject for p in fact.provenance.premises}
                assert subjects == {f"event:fm{i}" for i in expected}, f"trial {trial}"
                fired = True
                hits += 1
        assert hits >= 10, hits

    def test_spike_matches_tumbling_oracle_in_batches(self, default_vocab):
        rng = random.Random(29)
        config = IndicatorConfig()
        hits = 0
        for trial in range(60):
            stamps = []
            for k in range(rng.randrange(1, 12)):
                n = rng.choice([0, 1, 2, 3, 10, 12, 20])
                stamps += [T0 + timedelta(seconds=60 * k + rng.uniform(0, 59)) for _ in range(n)]
            order = list(range(len(stamps)))
            rng.shuffle(order)
            store = FactStore(default_vocab)
            state = IndicatorState(config)
            seen, fired = [], False
            for batch in random_batches(rng, order):
                for i in batch:
                    add_blocked(store, i, stamps[i])
                    seen.append(i)
                facts = extract_indicators(store, state)
                if fired:
                    assert facts == [], f"trial {trial}"
                    continue
                now = sorted(stamps[i] for i in seen)
                k = brute_force_first_spike(
                    now, config.spike_window, config.spike_factor, config.spike_min_count
                )
                assert bool(facts) == (k is not None), f"trial {trial}"
                if k is None:
                    continue
                t0 = now[0]
                in_window = {
                    i
                    for i in seen
                    if int((stamps[i] - t0).total_seconds() // config.spike_window) == k
                }
                (fact,) = facts
                subjects = {store.get(p).subject for p in fact.provenance.premises}
                assert subjects == {f"event:bl{i}" for i in in_window}, f"trial {trial}"
                fired = True
                hits += 1
        assert hits >= 10, hits

    def test_record_before_origin_realigns_buckets(self, default_vocab):
        # 6 + 6 blocked connections in two buckets, then one before the
        # first timestamp moves the origin so that all 12 share a bucket
        store = FactStore(default_vocab)
        state = IndicatorState()
        add_blocked(store, 0, T0)
        for i in range(12):
            add_blocked(store, 1 + i, T0 + timedelta(seconds=90 + 5 * i))
        assert extract_indicators(store, state=state) == []
        add_blocked(store, 99, T0 - timedelta(seconds=30))
        (fact,) = extract_indicators(store, state=state)
        subjects = {store.get(p).subject for p in fact.provenance.premises}
        assert subjects == {f"event:bl{1 + i}" for i in range(12)}

    def test_late_sensitive_fact_counts(self, default_vocab):
        store = FactStore(default_vocab)
        state = IndicatorState()
        for i in range(5):
            e = f"event:fm{i}"
            store.insert(
                [(e, "hostKind", "file_modified"), (e, "onHost", "host:victim"),
                 (e, "eventTs", T0 + timedelta(seconds=20 * i))],
                Asserted("file-agent"),
            )
        assert extract_indicators(store, state=state) == []
        for i in range(5):
            store.insert([(f"event:fm{i}", "sensitive", 1)], Asserted("file-agent"))
        (fact,) = extract_indicators(store, state=state)
        assert fact.obj == IndicatorKind.MASS_FILE_MODIFICATION.entity_id

    def test_state_validates_its_thresholds(self):
        with pytest.raises(ValueError, match="'spike_factor'"):
            IndicatorState(IndicatorConfig(spike_factor=1))


class TestIdempotency:
    def test_extract_twice_equals_once(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(seconds=20 * i))
        add_proc_stat(store, 0, T0, 95.0)
        add_proc_stat(store, 1, T0 + timedelta(seconds=30), 90.0)
        first = extract_indicators(store, IndicatorState())
        assert first
        size = len(store)
        second = extract_indicators(store, IndicatorState())
        assert second == []
        assert len(store) == size

    @pytest.mark.parametrize("provenance", ["asserted", "derived"])
    @pytest.mark.parametrize("running", [True, False])
    def test_indicator_fact_in_the_store_stops_its_check(self, default_vocab, provenance, running):
        """A host's indicator fact the checks did not assert (inserted
        directly, or derived by a rule) keeps its check from running: no
        hasIndicator insert is even tried, whether the state saw the fact
        arrive or starts fresh."""
        store = FactStore(default_vocab)
        state = IndicatorState()
        add_proc_stat(store, 0, T0, 95.0)
        assert extract_indicators(store, state=state) == []
        source = Asserted("analyst")
        if provenance == "derived":
            source = Derived("R99", (store.watermark,))
        store.insert([("host:victim", "hasIndicator", IndicatorKind.HIGH_CPU_USAGE.entity_id)], source)
        add_proc_stat(store, 1, T0 + timedelta(seconds=30), 90.0)
        inserts = []
        insert = store.insert
        store.insert = lambda *args: inserts.append(args) or insert(*args)
        assert extract_indicators(store, state=state if running else IndicatorState()) == []
        assert inserts == []

    def test_indicator_provenance_leaves_are_sensor_facts(self, default_vocab):
        store = FactStore(default_vocab)
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(seconds=20 * i))
        (fact,) = extract_indicators(store, IndicatorState())
        leaves = store.explain(fact.fact_id).leaves()
        assert all(leaf.predicate == "hostKind" for leaf in leaves)


class TestAlerts:
    def _evidence_store(self, default_vocab, default_rules, with_intel=True):
        store = FactStore(default_vocab)
        if with_intel:
            # techniques table comes from the session fixture at call sites;
            # insert the intel facts directly to keep this local
            store.insert(
                [("malware:wannacry", "usesTechnique", "technique:malformed_smb_exploit"),
                 ("malware:wannacry", "isClass", "class:ransomware")],
                Asserted("intel"),
            )
        store.insert(
            [("event:scan", "snortKind", "portscan"), ("event:scan", "dstIp", "host:victim"),
             ("event:scan", "eventTs", T0)],
            Asserted("snort"),
        )
        store.insert(
            [("event:smb", "snortKind", "malformed_smb"), ("event:smb", "dstIp", "host:victim"),
             ("event:smb", "eventTs", T0 + timedelta(minutes=1))],
            Asserted("snort"),
        )
        for i in range(6):
            add_file_mod(store, i, T0 + timedelta(minutes=2, seconds=20 * i))
        extract_indicators(store, IndicatorState())
        run_to_fixpoint(default_rules, store)
        return store

    def test_confirmed_alert(self, default_vocab, default_rules):
        store = self._evidence_store(default_vocab, default_rules)
        alerts = assemble_alerts(store)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.tier == "Confirmed"
        assert alert.host == "host:victim"
        assert alert.malware == "malware:wannacry"
        assert set(alert.phases) >= {
            KillChainPhase.RECONNAISSANCE,
            KillChainPhase.EXPLOITATION,
            KillChainPhase.ACTIONS_ON_OBJECTIVES,
        }
        assert alert.first_seen == T0
        attack = store.query(Pattern.of("host:victim", "attackDetected"))[0]
        leaves = store.explain(attack.fact_id).leaves()
        assert "intel" in {leaf.provenance.source for leaf in leaves}

    def test_intel_withheld_downgrades_to_suspicion(
        self, default_vocab, default_rules
    ):
        store = self._evidence_store(default_vocab, default_rules, with_intel=False)
        alerts = assemble_alerts(store)
        assert [a.tier for a in alerts] == ["Suspicion"]
        assert alerts[0].malware is None

    def test_single_phase_no_alert(self, default_vocab, default_rules):
        store = FactStore(default_vocab)
        store.insert(
            [("event:scan", "snortKind", "portscan"), ("event:scan", "dstIp", "host:victim"),
             ("event:scan", "eventTs", T0)],
            Asserted("snort"),
        )
        extract_indicators(store, IndicatorState())
        run_to_fixpoint(default_rules, store)
        assert assemble_alerts(store) == []

    def test_tier_monotone_under_added_facts(self, default_vocab, default_rules):
        store = self._evidence_store(default_vocab, default_rules)
        assert assemble_alerts(store)[0].tier == "Confirmed"
        add_proc_stat(store, 50, T0 + timedelta(minutes=5), 95.0)
        add_proc_stat(store, 51, T0 + timedelta(minutes=5, seconds=30), 92.0)
        extract_indicators(store, IndicatorState())
        run_to_fixpoint(default_rules, store)
        assert assemble_alerts(store)[0].tier == "Confirmed"

    def test_jsonl_and_report_rendering(self, default_vocab, default_rules):
        import json

        store = self._evidence_store(default_vocab, default_rules)
        alerts = assemble_alerts(store)
        for alert in alerts:
            doc = json.loads(json.dumps(alert.to_json_dict(), sort_keys=True))
            assert set(doc) == {
                "host",
                "tier",
                "malware",
                "phases",
                "first_seen",
                "last_seen",
                "evidence_fact_ids",
            }
        report = render_report(alerts)
        assert "host: host:victim" in report
        assert render_report([]) == "No alerts.\n"

    def test_phase_table_reads_what_parse_reads(self):
        """The table alert assembly reads phases from takes the text after
        an object's first colon, or the whole text, exactly as a phase's
        name is spelled, and gives the phase with its index in kill-chain
        order."""
        for i, phase in enumerate(KillChainPhase):
            for text in (f"phase:{phase.value}", phase.value, f"other:{phase.value}"):
                assert correlator._PHASES.get(text.split(":", 1)[-1]) == (i, phase), text
        for text in ("phase:bogus", "phase:reconnaissance", ""):
            assert correlator._PHASES.get(text.split(":", 1)[-1]) is None, text

    def test_phases_come_in_kill_chain_order(self, default_vocab):
        """Evidence objects count as the phase table reads them, the first
        fact of a phase being its evidence, and the phases sort in
        kill-chain order."""
        store = FactStore(default_vocab)
        objs = ("other:Exploitation", "phase:bogus", "Reconnaissance", "phase:Exploitation")
        store.insert([("host:victim", "hasPhaseEvidence", obj) for obj in objs], Asserted("test"))
        ids = [f.fact_id for f in store.lookup("host:victim", "hasPhaseEvidence")]
        (alert,) = assemble_alerts(store)
        assert alert.tier == "Suspicion"
        assert alert.phases == [KillChainPhase.RECONNAISSANCE, KillChainPhase.EXPLOITATION]
        assert alert.evidence_fact_ids == [ids[0], ids[2]]


class TestEvidenceWalk:
    def test_shared_premises_are_visited_once(self, default_vocab, monkeypatch):
        # two phase-evidence facts on an 18-level DAG where every fact rests
        # on both facts of the level below: 2**19 leaves when expanded as a
        # tree, 40 facts when each is visited once
        store = FactStore(default_vocab)
        t1 = T0 + timedelta(seconds=1)
        a, b = store.insert(
            [("event:a", "eventTs", T0), ("event:b", "eventTs", t1)], Asserted("snort")
        )
        for level in range(1, 19):
            a, b = store.insert(
                [(f"node:a{level}", "hasIndicator", "indicator:x"),
                 (f"node:b{level}", "hasIndicator", "indicator:x")],
                Derived("R0", (a, b)),
            )
        phases = ("phase:Reconnaissance", "phase:Exploitation")
        evidence = [("host:victim", "hasPhaseEvidence", phase) for phase in phases]
        store.insert(evidence, Derived("R1", (a, b)))
        visited = [0]
        get, query = FactStore.get, FactStore.query

        def counted_get(self, fact_id):
            visited[0] += 1
            return get(self, fact_id)

        def counted_query(self, pattern):
            found = query(self, pattern)
            visited[0] += len(found)
            return found

        monkeypatch.setattr(FactStore, "get", counted_get)
        monkeypatch.setattr(FactStore, "query", counted_query)
        (alert,) = assemble_alerts(store)
        assert (alert.tier, alert.first_seen, alert.last_seen) == ("Suspicion", T0, t1)
        assert visited[0] <= 2 * len(store), visited[0]
