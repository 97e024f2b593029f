import json
from pathlib import Path

import pytest

from kcc.facts import Asserted, FactStore
from kcc.ingest import commit_event, parse_host_event
from kcc.scenario import (
    MalformedScenario,
    Scenario,
    load_scenario,
    replay,
    validate_scenario,
)
from kcc.vocab import KillChainPhase, VocabularyViolation, parse_timestamp

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    """A snapshot made by the replay this engine must keep reproducing."""
    return (FIXTURES / name).read_text(encoding="utf-8")

TIER_RANK = {"Suspicion": 1, "Confirmed": 2}


def scenario_prefix(scenario, n_batches):
    lines = [l for ts, batch in scenario.batches()[:n_batches] for l in batch]
    return Scenario(f"{scenario.name}-prefix{n_batches}", lines, scenario.base_dir)


class TestLoadScenario:
    def test_golden_shape(self, golden_path):
        scenario = load_scenario(golden_path)
        events = [l for l in scenario.lines if l.tag in ("snort", "host")]
        intel = scenario.intel_lines
        assert len(events) >= 12
        assert len(intel) == 2
        stamps = [l.ts for l in scenario.lines]
        assert stamps == sorted(stamps)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.scn"
        path.write_text("")
        scenario = load_scenario(path)
        assert scenario.lines == []

    def test_unparseable_snort_line_rejected(self, tmp_path, engine_config):
        path = tmp_path / "bad.scn"
        path.write_text("2017-08-15T14:31:00Z snort this is not snort\n")
        scenario = load_scenario(path)
        with pytest.raises(MalformedScenario, match="line 1"):
            validate_scenario(scenario, engine_config)

    def test_unregistered_attribute_rejected_with_position(
        self, tmp_path, engine_config
    ):
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            '"host": "host:a", "type": "proc.stat", "attrs": {"pid": 4}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*pid"):
            replay(load_scenario(path), engine_config)
        store = FactStore(engine_config.vocab)
        parsed = parse_host_event(event)
        parsed.event_id = "event:e1"
        with pytest.raises(VocabularyViolation):
            commit_event(store, parsed)
        assert len(store) == 0

    def test_whitespace_in_host_rejected_with_position(self, tmp_path, engine_config):
        event = (
            '{"agent": "process", "ts": "2017-08-15T14:31:00Z", '
            '"host": "my box", "type": "proc.stat", "attrs": {}}'
        )
        path = tmp_path / "bad.scn"
        path.write_text(f"2017-08-15T14:31:00Z host {event}\n")
        with pytest.raises(MalformedScenario, match="line 1: .*my box"):
            replay(load_scenario(path), engine_config)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("2017-08-15T14:31:00Z pcap whatever\n")
        with pytest.raises(MalformedScenario):
            load_scenario(path)

    def test_same_timestamp_ties_broken_by_file_order(self, golden_path):
        scenario = load_scenario(golden_path)
        for ts, batch in scenario.batches():
            linenos = [l.lineno for l in batch]
            assert linenos == sorted(linenos)


class TestGoldenReplay:
    @pytest.fixture()
    def transcript(self, golden_path, engine_config):
        return replay(load_scenario(golden_path), engine_config)

    def test_exactly_one_confirmed_alert(self, transcript):
        confirmed = [a for a in transcript.alerts if a.tier == "Confirmed"]
        assert len(confirmed) == 1 and len(transcript.alerts) == 1
        alert = confirmed[0]
        assert alert.host == "host:192.168.56.102"
        assert alert.malware == "malware:wannacry"
        assert set(alert.phases) >= {
            KillChainPhase.RECONNAISSANCE,
            KillChainPhase.EXPLOITATION,
            KillChainPhase.DELIVERY,
            KillChainPhase.ACTIONS_ON_OBJECTIVES,
        }

    def test_confirmed_no_later_than_last_batch_and_not_before_aoo(
        self, transcript
    ):
        first_confirmed = next(
            e["first_ts"] for e in transcript.alert_timeline if e["tier"] == "Confirmed"
        )
        last_batch_ts = transcript.batches[-1]["ts"]
        assert parse_timestamp(first_confirmed) <= parse_timestamp(last_batch_ts)
        # no Confirmed alert in any batch that precedes actions-on-objectives
        # evidence; at first appearance the alert already carries that phase
        for batch in transcript.batches:
            for alert in batch["alerts"]:
                if alert["tier"] == "Confirmed":
                    assert "ActionsOnObjectives" in alert["phases"]

    def test_matches_snapshots(self, golden_path, benign_path, engine_config):
        golden = replay(load_scenario(golden_path), engine_config)
        benign = replay(load_scenario(benign_path), engine_config)
        assert golden.to_json() + "\n" == fixture("golden_transcript.json")
        assert benign.to_json() + "\n" == fixture("benign_transcript.json")
        dump = "".join(line + "\n" for line in golden.store.dump_lines())
        assert dump == fixture("golden_store.dump")

    def test_asserted_provenance_shared_per_source(
        self, golden_path, engine_config, tmp_path
    ):
        store = replay(load_scenario(golden_path), engine_config).store
        path = tmp_path / "golden.dump"
        store.dump(path)
        for facts in (store, FactStore.load(path, engine_config.vocab)):
            asserted = [f.provenance for f in facts if isinstance(f.provenance, Asserted)]
            assert len({id(p) for p in asserted}) == len({p.source for p in asserted}) > 1

    def test_replay_determinism(self, golden_path, engine_config):
        a = replay(load_scenario(golden_path), engine_config)
        b = replay(load_scenario(golden_path), engine_config)
        assert a.to_json() == b.to_json()
        assert a.store.dump_lines() == b.store.dump_lines()

    def test_prefix_monotonicity(self, golden_path, engine_config):
        scenario = load_scenario(golden_path)
        full = replay(scenario, engine_config)
        final = {a.host: TIER_RANK[a.tier] for a in full.alerts}
        n = len(scenario.batches())
        for k in range(1, n + 1):
            partial = replay(scenario_prefix(scenario, k), engine_config)
            for alert in partial.alerts:
                assert alert.host in final
                assert TIER_RANK[alert.tier] <= final[alert.host]

    def test_covers_observable_ransomware_actions(self, golden_path):
        scenario = load_scenario(golden_path)
        payloads = [l.payload for l in scenario.lines]
        downloads = [p for p in payloads if "file.net_created" in p]
        sensitive_mods = [
            p for p in payloads if "file.modified" in p and '"sensitive":true' in p
        ]
        hot_cpu = [
            p
            for p in payloads
            if "proc.stat" in p and json.loads(p)["attrs"]["cpuPercent"] > 80
        ]
        smb = [p for p in payloads if "1000002" in p]
        scans = [p for p in payloads if "1000001" in p]
        pulls = [p for p in payloads if "1000003" in p]
        assert len(downloads) >= 2  # encryptor binary + public key
        assert len(sensitive_mods) >= 5  # enumeration/encryption burst
        assert len(hot_cpu) >= 2  # encryption load
        assert smb and scans and pulls


class TestAblationAndBenign:
    def test_intel_withheld_yields_one_suspicion(self, golden_path, engine_config):
        scenario = load_scenario(golden_path).without_intel()
        transcript = replay(scenario, engine_config)
        assert [a.tier for a in transcript.alerts] == ["Suspicion"]
        assert transcript.alerts[0].malware is None

    def test_benign_scenario_zero_alerts(self, benign_path, engine_config):
        transcript = replay(load_scenario(benign_path), engine_config)
        assert transcript.alerts == []
        for batch in transcript.batches:
            assert batch["alerts"] == []
