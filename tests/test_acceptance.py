"""Acceptance criteria, one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (count equality / set equality) except the
golden-scenario runtime bound of 1 second.
"""

import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from kcc.cli import main
from kcc.correlator import IndicatorConfig, IndicatorState, extract_indicators
from kcc.facts import Asserted, FactStore, Pattern
from kcc.ingest import MalformedLine, make_event_id, parse_host_event, parse_snort_line, commit_event
from kcc.rules import RuleSet, run_to_fixpoint
from kcc.scenario import Scenario, load_scenario, replay
from kcc.vocab import IndicatorKind, KillChainPhase

from conftest import FIXTURES, render_snort_line, without_intel
from oracles import brute_force_sliding_hit, naive_fixpoint
from randomgen import random_ruleset, random_store

T0 = datetime(2017, 8, 15, 12, 0, 0, tzinfo=timezone.utc)


def _pass(n, text):
    print(f"PASS criterion {n}: {text}")


def alert_keys(alerts):
    return {(a.host, a.tier, a.malware, tuple(a.phases)) for a in alerts}


def triple_set(store):
    return {(f.subject, f.predicate, str(f.obj)) for f in store.query(Pattern.of())}


def test_criterion_1_golden_scenario_detection(golden_path, engine_config):
    scenario = load_scenario(golden_path)
    start = time.perf_counter()
    transcript = replay(scenario, engine_config)
    elapsed = time.perf_counter() - start
    confirmed = [a for a in transcript.alerts if a.tier == "Confirmed"]
    assert len(confirmed) == 1
    alert = confirmed[0]
    assert alert.host == "host:192.168.56.102"
    assert alert.malware == "malware:wannacry"
    assert set(alert.phases) >= {
        KillChainPhase.RECONNAISSANCE,
        KillChainPhase.EXPLOITATION,
        KillChainPhase.DELIVERY,
        KillChainPhase.ACTIONS_ON_OBJECTIVES,
    }
    assert elapsed < 1.0
    _pass(1, f"golden scenario -> 1 Confirmed alert in {elapsed * 1000:.0f} ms")


def test_criterion_2_jigsaw_ablation(golden_path, engine_config):
    scenario = load_scenario(golden_path)
    ablated = replay(without_intel(scenario), engine_config)
    assert len(ablated.alerts) == 1
    assert ablated.alerts[0].tier == "Suspicion"
    assert not any(a.tier == "Confirmed" for a in ablated.alerts)
    restored = replay(scenario, engine_config)
    assert [a.tier for a in restored.alerts] == ["Confirmed"]
    _pass(2, "intel withheld -> exactly 1 Suspicion, 0 Confirmed; restoring intel restores Confirmed")


def test_criterion_3_benign_scenario(benign_path, engine_config):
    transcript = replay(load_scenario(benign_path), engine_config)
    assert transcript.alerts == []
    _pass(3, "benign scenario -> 0 alerts")


def test_criterion_4_rule_engine_oracle_equivalence():
    cases = 0
    for seed in range(120):
        rng = random.Random(seed)
        store = random_store(rng, max_facts=200)
        rules = random_ruleset(rng, max_rules=20)
        expected = naive_fixpoint(rules.rules, {f[1:4] for f in store.query(Pattern.of())})
        run_to_fixpoint(rules, store)
        assert {f[1:4] for f in store.query(Pattern.of())} == expected, f"seed {seed}"
        cases += 1
    assert cases >= 100
    _pass(4, f"semi-naive fixpoint = naive oracle on {cases} randomized cases")


def test_criterion_5_order_invariance(golden_path, engine_config):
    scenario = load_scenario(golden_path)
    reference = replay(scenario, engine_config)
    ref_facts = triple_set(reference.store)
    ref_alerts = alert_keys(reference.alerts)
    for seed in range(4):
        rng = random.Random(seed)
        lines = []
        for ts, batch in scenario.batches():
            batch = list(batch)
            rng.shuffle(batch)
            lines.extend(batch)
        permuted_rules = list(engine_config.rules.rules)
        rng.shuffle(permuted_rules)
        config = engine_config
        config.rules = RuleSet(permuted_rules)
        permuted = Scenario("golden-permuted", lines, scenario.base_dir)
        # re-sort happens in replay batching only for equal timestamps
        transcript = replay(permuted, config)
        assert triple_set(transcript.store) == ref_facts, f"seed {seed}"
        assert alert_keys(transcript.alerts) == ref_alerts, f"seed {seed}"
    _pass(5, "same-timestamp event and rule permutations leave fact and alert sets identical")


def test_criterion_6_parser_conformance(sidmap, default_vocab):
    lines = (FIXTURES / "snort_fast.log").read_text().splitlines()
    assert len(lines) >= 10
    for line in lines:
        event = parse_snort_line(line, sidmap, 2017)
        again = parse_snort_line(render_snort_line(event), sidmap, 2017)
        for field in (
            "ts", "signature", "src_ip", "dst_ip", "src_port", "dst_port", "proto",
        ):
            assert getattr(again, field) == getattr(event, field)
    for bad in ("garbage", "08/15-14:31:07.123456 nope", ""):
        with pytest.raises(MalformedLine) as err:
            parse_snort_line(bad, sidmap, 2017)
        assert err.value.column >= 1
    store = FactStore(default_vocab)
    host_lines = (FIXTURES / "host_events.jsonl").read_text().splitlines()
    for i, line in enumerate(host_lines):
        # raises VocabularyError if unregistered
        commit_event(store, parse_host_event(line), make_event_id("host", line, i))
    _pass(6, f"{len(lines)} snort lines round-trip; malformed lines positioned; "
             f"{len(host_lines)} host events use only registered predicates")


def test_criterion_7_indicator_window_oracle(default_vocab):
    rng = random.Random(1234)
    config = IndicatorConfig()
    for trial in range(8):
        n = rng.randrange(0, 1001)
        stamps = sorted(
            T0 + timedelta(seconds=rng.uniform(0, 7200)) for _ in range(n)
        )
        store = FactStore(default_vocab)
        for i, ts in enumerate(stamps):
            e = f"event:m{i}"
            store.insert(
                [(e, "hostKind", "file_modified"), (e, "onHost", "host:victim"),
                 (e, "eventTs", ts), (e, "sensitive", 1)],
                Asserted("file-agent"),
            )
        extract_indicators(store, IndicatorState(config))
        got = bool(
            store.query(
                Pattern.of(
                    "host:victim",
                    "hasIndicator",
                    IndicatorKind.MASS_FILE_MODIFICATION.entity_id,
                )
            )
        )
        expected = brute_force_sliding_hit(
            stamps, config.mass_file_mod_window, config.mass_file_mod_threshold
        )
        assert got == expected, f"trial {trial} with {n} events"
    _pass(7, "sliding-window extraction matches O(n^2) oracle on fixtures up to 1000 events")


def test_criterion_8_run_determinism(golden_path, tmp_path, capsys):
    outputs = []
    for n in (1, 2):
        out = tmp_path / f"transcript{n}.json"
        dump = tmp_path / f"store{n}.dump"
        code = main(
            ["run", str(golden_path), "--output", str(out), "--dump", str(dump)]
        )
        capsys.readouterr()
        assert code == 2
        outputs.append((out.read_bytes(), dump.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    _pass(8, "two cmd_run executions produce byte-identical transcripts and dumps")
