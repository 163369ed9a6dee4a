"""Benchmark entry point for hkannuli.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics of one
workload for ``--seconds`` seconds; with ``--trace 1`` it runs a fixed
slice of the same workload once untraced and once traced, reports the
per-layer metrics, writes the spans under ``.bench_work/trace/`` and re-runs
the single-call probes in probe.py.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

``--record-digests`` re-runs every CLI pool invocation and rewrites
cli_digests.json; do that only when a change of CLI output is intended.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# Standard percentiles in tenths of a percent; the tail is the highest
# with ten samples beyond it.  p99.9 is left out: on a shared two-core
# machine it measured scheduler stalls, not the program.
TAIL_LADDER = (990, 900, 750, 500)
WARMUP_OPS = {"census": 8, "words-long": 4, "words-short": 256, "cli": 2}
# The traced slice: one round of words-long and cli, fewer census ops
# because each makes some 10^4 spans.
TRACE_OPS = {"census": 30, "words-long": 56, "words-short": 2048, "cli": 34}
END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("census", "words-long", "words-short", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing hkannuli.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: subprocess would poll for the exit in 50 ms steps
        subprocess.run([sys.executable, "-c", "import hkannuli.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def execute(op) -> tuple:
    """Run one operation; returns (nanoseconds, passed)."""
    t0 = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception as exc:  # an operation that raises counts as failed
        elapsed = time.perf_counter_ns() - t0
        sys.stderr.write(f"{op.kind} {op.inputs!r:.300}: raised {exc!r}\n")
        return elapsed, False
    elapsed = time.perf_counter_ns() - t0
    try:
        passed = bool(op.check(result))
    except Exception as exc:  # a malformed answer counts as failed
        sys.stderr.write(f"{op.kind} {op.inputs!r:.300}: check raised {exc!r}\n")
        passed = False
    if not passed:
        sys.stderr.write(f"{op.kind} {op.inputs!r:.300}: wrong answer\n")
    return elapsed, passed


def tail(samples: list) -> tuple:
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it, by the nearest-rank rule."""
    ordered = sorted(samples)
    n = len(ordered)
    for tenths in TAIL_LADDER:
        rank = -(-n * tenths // 1000)  # ceil
        if n - rank >= 10:
            return tenths / 10, ordered[rank - 1]
    return 0.0, ordered[-1]


def timed_run(name: str, seed: int, seconds: float, workloads) -> tuple:
    """End-to-end metrics of one closed-loop run, tracing off."""
    rounds = workloads.WORKLOADS[name](seed, SRC)
    attempted = failed = 0
    for op in next(rounds)[:WARMUP_OPS[name]]:
        attempted += 1
        failed += not execute(op)[1]
    latencies, rates = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        ops = next(rounds)
        busy = 0
        for op in ops:
            if time.perf_counter() - started >= seconds:
                break
            elapsed, passed = execute(op)
            attempted += 1
            failed += not passed
            latencies.append(elapsed / 1e6)
            busy += elapsed
        else:
            rates.append(len(ops) / (busy / 1e9))
    if not rates:  # no whole round fitted: fall back to the partial one
        rates.append(len(latencies) / (sum(latencies) / 1e3))
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    pct, tail_ms = tail(latencies)
    metrics = {
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    info = (f"{name} seed={seed}: {len(latencies)} timed ops in {len(rates)} whole rounds; "
            f"latency_tail_ms is p{pct:g} of {len(latencies)} samples")
    return metrics, attempted, failed, info


def traced_run(name: str, seed: int, workloads, tracing, probe) -> tuple:
    """Per-layer metrics from a fixed slice of the workload, run untraced
    and then traced; the CLI slice calls cli.run in-process."""
    rounds = workloads.WORKLOADS[name](seed, None if name == "cli" else SRC)
    ops = list(itertools.islice(itertools.chain.from_iterable(rounds), TRACE_OPS[name]))
    attempted = failed = 0
    walls = []
    tracer = tracing.Tracer()
    for traced in (False, True):
        tracing.clear_caches()
        if traced:
            tracer.install()
        total = 0
        try:
            for i, op in enumerate(ops):
                tracer.op_id = i
                if name == "cli":
                    tracing.clear_caches()  # each CLI call is a fresh process
                elapsed, passed = execute(op)
                total += elapsed
                attempted += 1
                failed += not passed
        finally:
            if traced:
                tracer.remove()
        walls.append(total)
    metrics = tracer.metrics([op.scale for op in ops])
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    metrics["trace.ops"] = len(ops)
    metrics["run.failed_ratio"] = failed / attempted
    metrics.update(probe.measure(workloads, SRC))
    out = workloads.WORK_DIR / "trace" / f"{name}-seed{seed}.tsv"
    tracer.write(out)
    info = f"{name} seed={seed}: traced {len(ops)} ops, {metrics['trace.spans']} spans -> {out}"
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hkannuli" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hkannuli sources under {SRC}; run from a source checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import probe
    import tracing
    import workloads

    if args.record_digests:
        table = workloads.record_digests(SRC)
        workloads.DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(table)} digests in {workloads.DIGEST_FILE}")
        return 0

    if args.trace:
        metrics, attempted, failed, info = traced_run(args.workload, args.seed,
                                                      workloads, tracing, probe)
        units = {name: unit for name, unit, _ in tracing.layer_metric_names()}
        units.update(probe.UNITS)
    else:
        env = workloads.child_env(SRC)
        setup = setup_seconds(env)
        metrics, attempted, failed, info = timed_run(args.workload, args.seed,
                                                     args.seconds, workloads)
        metrics["setup_s"] = setup
        units = END_TO_END
    print(info)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
