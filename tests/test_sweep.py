"""Byte-equality sweep: the transcript and the dump of every `stream_detect`
replay (seeds 1-6) and `archive_ingest` archive (seeds 1-3) of the
benchmark, built from `kccbench/gen.py`, digested and compared with
`fixtures/sweep.sha256`.  A change that renumbers, reorders or drops one
fact or alert changes a digest; the failing case is named.

A change to `kccbench/gen.py` moves the digests.  Print new ones with
`PYTHONPATH=src python tests/test_sweep.py > tests/fixtures/sweep.sha256`.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

from kcc.facts import FactStore
from kcc.ingest import SidMap, TechniqueTable
from kcc.rules import load_ruleset
from kcc.scenario import EngineConfig, load_scenario, replay
from kcc.vocab import load_vocabulary

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).parent / "fixtures" / "sweep.sha256"


def _load_gen():
    spec = importlib.util.spec_from_file_location("kccbench_gen", ROOT / "kccbench" / "gen.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_files(workdir: Path):
    """(case name, path) of every input, written as the benchmark writes
    them: a stream as a whole, an archive as one batch."""
    gen = _load_gen()
    for seed in range(1, 7):
        path = workdir / f"stream_detect-{seed}.scn"
        gen.write_scenario(path, gen.stream(random.Random(seed)))
        yield path.stem, path
    for seed in range(1, 4):
        rng = random.Random(seed)
        # the archive sizes of kccbench/workloads.py's ArchiveIngest
        kinds = [(200 + 400 * i // 47, i % 2 == 0) for i in range(48)]
        rng.shuffle(kinds)
        for i, (n_events, intel) in enumerate(kinds):
            start = 3600 * i
            events = [gen.retime(ev, ev.t + start) for ev in gen.archive(rng, n_events, intel)]
            path = workdir / f"archive_ingest-{seed}-{i:02d}.scn"
            gen.write_scenario(path, events, at=start + 3600)
            yield path.stem, path


def sweep(workdir: Path, config: EngineConfig):
    """(case name, sha256 of its transcript and dump, whether the dump loads
    back to the same lines) of every input."""
    for name, path in scenario_files(workdir):
        transcript = replay(load_scenario(path), config)
        lines = transcript.store.dump_lines()
        text = transcript.to_json() + "\n" + "".join(line + "\n" for line in lines)
        reloaded = FactStore.load_lines(lines, config.vocab).dump_lines()
        yield name, hashlib.sha256(text.encode("utf-8")).hexdigest(), reloaded == lines


def test_transcripts_and_dumps_match_their_digests(tmp_path, engine_config):
    want = dict(line.split() for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    got = {}
    for name, digest, loads_back in sweep(tmp_path, engine_config):
        assert loads_back, f"{name}: its dump does not load back to the same lines"
        got[name] = digest
    assert got.keys() == want.keys()
    assert [name for name in got if got[name] != want[name]] == []


if __name__ == "__main__":
    import tempfile

    from kcc.cli import _data_path

    vocab = load_vocabulary(_data_path("vocab.kcv"))
    config = EngineConfig(
        vocab=vocab,
        rules=load_ruleset(_data_path("rules/default.kcr"), vocab),
        sidmap=SidMap.load(_data_path("sidmap.kcm")),
        techniques=TechniqueTable.load(_data_path("techniques.kct")),
    )
    with tempfile.TemporaryDirectory() as workdir:
        for name, digest, _ in sweep(Path(workdir), config):
            print(name, digest)
