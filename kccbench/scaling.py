#!/usr/bin/env python3
"""Per-event replay cost of the stream_detect input at several sizes.

Run from the root of a kcc checkout:

    python3 kccbench/scaling.py

Each size is the stream_detect generator with that many events (same 30
hosts, same three-hour span, same planted chains), replayed three times;
the fastest replay is reported.  A per-event cost that rises with
the size means replay is super-linear in the stream length.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
from run import use_kcc_from  # noqa: E402

SIZES = (100, 200, 400, 800)
SEED = 1


def main() -> int:
    root = Path.cwd()
    if use_kcc_from(root) is None:
        return 2
    import gen
    from workloads import kscenario, load_config

    config = load_config()
    (root / ".kccbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".kccbench") as workdir:
        print("events batches replay_s per_event_ms")
        for n in SIZES:
            path = Path(workdir) / f"stream{n}.scn"
            gen.write_scenario(path, gen.stream(random.Random(SEED), n_events=n))
            scenario = kscenario.load_scenario(path)
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                transcript = kscenario.replay(scenario, config)
                best = min(best, perf_counter() - start)
            print(f"{n} {len(transcript.batches)} {best:.3f} {best / n * 1e3:.2f}")
    if not any((root / ".kccbench").iterdir()):
        (root / ".kccbench").rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
