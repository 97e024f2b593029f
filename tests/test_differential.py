"""Scenario-level differential test: `stream_detect` inputs of seeds no
other test or CI run replays, built from `kccbench/gen.py`, replayed batch
by batch and compared with `kccbench/reference.py`, which computes the
alerts from the generated events alone, without kcc's store, rule engine
or correlator.  A check that misses a record of an earlier batch, or a
window or bucket it should have tested, shows as a wrong alert here."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from kcc.scenario import load_scenario, replay

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(100, 120)


def _load(name):
    """A `kccbench` module, loaded as the benchmark loads it: under its own
    name, which `reference.py` imports `gen` by."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "kccbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def kccbench():
    return _load("gen"), _load("reference")


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_alerts_match_the_reference(tmp_path, engine_config, kccbench, seed):
    gen, reference = kccbench
    events = gen.stream(random.Random(seed))
    path = tmp_path / "stream.scn"
    gen.write_scenario(path, events)
    snapshots, timeline = reference.stream_expectations(events)
    transcript = replay(load_scenario(path), engine_config)
    got = [
        [(a["host"], a["tier"], a["malware"], tuple(a["phases"])) for a in batch["alerts"]]
        for batch in transcript.batches
    ]
    assert len(got) == len(snapshots)
    assert [i for i, (g, w) in enumerate(zip(got, snapshots)) if g != w] == []
    assert [(e["host"], e["tier"], e["first_ts"]) for e in transcript.alert_timeline] == timeline
    again = replay(load_scenario(path), engine_config)
    assert again.to_json() == transcript.to_json()
    transcript.store.dump(tmp_path / "first.dump")
    again.store.dump(tmp_path / "again.dump")
    assert (tmp_path / "again.dump").read_bytes() == (tmp_path / "first.dump").read_bytes()
