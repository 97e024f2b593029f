#!/usr/bin/env python3
"""kcc benchmark: seeded synthetic workloads through kcc's public Python API.

Run from the root of a kcc checkout (the directory that holds `src/kcc`):

    python3 kccbench/run.py --workload stream_detect --seed 1 --seconds 30 --trace 0
    python3 kccbench/run.py --workload all --seed 1 --seconds 30

With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-module metrics of a separate traced run.  `--workload all` runs every
workload, each in its own process.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
NAMES = ("stream_detect", "archive_ingest", "host_forensics")


def use_kcc_from(root: Path):
    """Import kcc from `root/src`, never from an installed copy.  Returns
    the source directory, or None after reporting why it cannot."""
    src = root / "src"
    if not (src / "kcc" / "__init__.py").is_file():
        print(f"error: no kcc sources at {src / 'kcc'}; run from the root of a kcc checkout", file=sys.stderr)
        return None
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE), str(src)]
    import kcc
    import kcc.cli  # noqa: F401  (loads every kcc module before tracing)

    if Path(kcc.__file__).resolve().parent != (src / "kcc").resolve():
        print(f"error: imported kcc from {kcc.__file__}, not from {src}", file=sys.stderr)
        return None
    return src


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def tail(latencies):
    """The highest order statistic with ten samples beyond it."""
    return sorted(latencies)[-11]


def per_op_medians(samples):
    """Each operation's median latency over the rounds."""
    return [statistics.median(op) for op in zip(*samples)]


def timed_run(wl, workdir: Path, seconds: float):
    """Set-ups and rounds, interleaved, for `seconds`.  Every round repeats
    the same operations; each operation's latency is its median over the
    rounds, and p50, tail and run_s (their sum) are taken over operations.
    setup_s is the median set-up.  All are at reference CPU speed."""
    from workloads import reference_scenarios, speed

    setups, samples = [], []
    state = None
    attempted = failed = 0
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        if len(samples) % wl.rounds_per_setup == 0:
            state = None
            scale = speed()
            t0 = perf_counter()
            state = wl.setup()
            setups.append((perf_counter() - t0) * scale)
        latencies, outcome = wl.round(state)
        attempted += len(latencies)
        failed += wl.check(outcome)
        samples.append(latencies)
    for a, f in (wl.checks(state), reference_scenarios(state[0], workdir)):
        attempted += a
        failed += f
    ops = per_op_medians(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (sum(ops), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail(ops) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"rounds": len(samples), "ops_per_round": len(ops), "setups": len(setups)}
    return attempted, failed, metrics, info


def traced_run(wl, workdir: Path, seconds: float):
    """Passes of set-up, one round and the fixed checks, with every kcc
    module traced and every time taken on the tracer's reference-speed
    clock.  Reports per-pass means of the spans and counts over whole
    passes, and prints each phase's self times, which with the phase's
    unattributed remainder add up to its trace.<phase>_s."""
    import workloads
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    speed = workloads.speed = tracer.probe(workloads.speed)
    phases = ("setup", "run", "checks")
    clock = dict.fromkeys(phases, 0.0)
    spent = {phase: defaultdict(float) for phase in phases}

    def timed(phase, work):
        speed()
        before = dict(tracer.self_s)
        start = tracer.now()
        result = work()
        clock[phase] += tracer.now() - start
        for span, total in tracer.self_s.items():
            spent[phase][span] += total - before.get(span, 0.0)
        return result

    attempted = failed = passes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        state = None
        state = timed("setup", wl.setup)
        latencies, outcome = timed("run", lambda: wl.round(state))
        attempted += len(latencies)
        failed += wl.check(outcome)
        for a, f in timed("checks", lambda: (wl.checks(state), workloads.reference_scenarios(state[0], workdir))):
            attempted += a
            failed += f
        passes += 1
    metrics = {}
    for name, value in tracer.metrics(passes).items():
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit)
    for phase in phases:
        metrics[f"trace.{phase}_s"] = (clock[phase] / passes, "s")
        for span, total in sorted(spent[phase].items()):
            if total:
                print(f"phase {phase} {span}_s {total / passes} s")
        print(f"phase {phase} unattributed_s {(clock[phase] - sum(spent[phase].values())) / passes} s")
    pass_s = sum(clock.values()) / passes
    metrics["trace.pass_s"] = (pass_s, "s")
    metrics["trace.unattributed_s"] = (pass_s - tracer.self_total() / passes, "s")
    return attempted, failed, metrics, {"passes": passes}


def run_one(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import workloads

    work = root / ".kccbench"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        attempted, failed, metrics, info = (traced_run if trace else timed_run)(wl, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()
    print(f"info: workload={name} seed={seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {'absent' if value is None else value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items() if v is not None},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = use_kcc_from(root)
    if src is None:
        return 2
    print(f"info: src_lines={src_lines(src)} (ROADMAP aim 2; not a metric)")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
