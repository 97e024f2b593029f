import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kcc.cli import _data_path
from kcc.correlator import IndicatorConfig
from kcc.ingest import SidMap, TechniqueTable
from kcc.rules import load_ruleset
from kcc.scenario import EngineConfig, Scenario
from kcc.vocab import Vocabulary, load_vocabulary

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def default_vocab():
    return load_vocabulary(_data_path("vocab.kcv"))


@pytest.fixture(scope="session")
def default_rules(default_vocab):
    return load_ruleset(_data_path("rules/default.kcr"), default_vocab)


@pytest.fixture(scope="session")
def sidmap():
    return SidMap.load(_data_path("sidmap.kcm"))


@pytest.fixture(scope="session")
def techniques():
    return TechniqueTable.load(_data_path("techniques.kct"))


@pytest.fixture()
def engine_config(default_vocab, default_rules, sidmap, techniques):
    return EngineConfig(
        vocab=default_vocab,
        rules=default_rules,
        sidmap=sidmap,
        techniques=techniques,
        indicators=IndicatorConfig(),
    )


@pytest.fixture(scope="session")
def golden_path():
    return _data_path("scenarios/golden.scn")


@pytest.fixture(scope="session")
def benign_path():
    return _data_path("scenarios/benign.scn")


def make_test_vocab():
    """Small synthetic vocabulary for engine property tests."""
    vocab = Vocabulary()
    for name in ("p0", "p1", "p2", "p3"):
        vocab.register_predicate(name, "entity")
    for name in ("q0", "q1"):
        vocab.register_predicate(name, "integer")
    return vocab


def without_intel(scenario):
    """Ablated copy of a scenario with all intel inputs withheld."""
    kept = [l for l in scenario.lines if not l[1].startswith("intel")]
    return Scenario(f"{scenario.name}-no-intel", kept, scenario.base_dir)


def render_snort_line(event):
    """Reconstruct the fast-alert line of a Snort-derived event."""
    ts = event.ts
    gid, sid, rev = event.signature or (0, 0, 0)
    src = event.src_ip + (f":{event.src_port}" if event.src_port is not None else "")
    dst = event.dst_ip + (f":{event.dst_port}" if event.dst_port is not None else "")
    return (
        f"{ts.month:02d}/{ts.day:02d}-{ts.hour:02d}:{ts.minute:02d}:"
        f"{ts.second:02d}.{ts.microsecond:06d}  [**] [{gid}:{sid}:{rev}] "
        f"{event.message} [**] [Classification: {event.classification}] "
        f"[Priority: {event.priority}] {{{event.proto}}} {src} -> {dst}"
    )
