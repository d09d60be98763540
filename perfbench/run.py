"""The transferlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (perfbench/worker.py), one after another, never two at once.
With --trace 0 the run measures set-up several times, then repeats passes
while another one still fits in S seconds (at least one), and reports the
end-to-end metrics (times scaled to a reference CPU speed, see speed.py;
raw times are printed beside them); with --trace 1 it runs one untraced
and one traced pass and reports the per-layer metrics.  Every output is checked; a
mismatch counts as a failed operation and never stops the run.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import metric_names, metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus_scan", "structure_queries", "transfer_eval")
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 7
# A run must end within this many seconds.
RUN_DEADLINE_S = 170
# op_tail_ms is read at the highest percentile with this many operations beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", workload, "--seed", str(seed), *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(flags)} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.

    Operation latencies come in clusters (one per group, or per pair), and
    a single order statistic jumps between clusters when a seed moves a few
    operations across one; this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule on each 1/n slice of the Beta density
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
            for u in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setups: list[dict], passes: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a run, and a line of detail for each."""
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for op, ms in p["op_ms"].items():
            per_op.setdefault(op, []).append(ms)
    op_ms = [statistics.median(v) for v in per_op.values()]
    n, k = len(op_ms), len(passes)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} operations are too few for a tail percentile")
    tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    raw_wall = statistics.median(p["wall_raw_s"] for p in passes)
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   f"median of {k} passes; raw {raw_wall:.6g} s"),
        "op_p50_ms": (quantile(op_ms, 0.5), "ms",
                      f"Harrell-Davis p50 over {n} operations, each the median of {k} passes"),
        "op_tail_ms": (quantile(op_ms, tail_pct / 100), "ms",
                       f"Harrell-Davis p{tail_pct:.1f} over {n} operations ({TAIL_BEYOND} beyond it)"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s",
                    f"median of {len(setups)} fresh-interpreter set-ups; raw {raw_setup:.6g} s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                        f"median ru_maxrss of {k} pass processes"),
    }
    lines = [f"{name} = {v:.6g} {unit}  ({how})" for name, (v, unit, how) in metrics.items()]
    return {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()}, lines


def measure(workload: str, seed: int, seconds: int, start: float) -> tuple[list[dict], dict]:
    deadline = start + RUN_DEADLINE_S
    worker(workload, seed, deadline, "--setup-only")  # warm-up: byte-compiles src
    setups = [worker(workload, seed, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(worker(workload, seed, deadline))
        took = time.monotonic() - t
        if time.monotonic() - t0 + took > seconds:
            break
    metrics, lines = end_to_end(setups + passes, passes)
    for line in lines:
        print(line)
    return passes, metrics


def measure_traced(workload: str, seed: int, start: float) -> tuple[list[dict], dict]:
    deadline = start + RUN_DEADLINE_S
    untraced = worker(workload, seed, deadline)
    traced = worker(workload, seed, deadline, "--trace")
    layers = dict(traced["layers"], **{"trace.overhead": traced["wall_s"] / untraced["wall_s"] - 1})
    for name in metric_names():
        print(f"{name} = {layers[name]:.6g} {metric_unit(name)}")
    metrics = {name: {"value": layers[name], "unit": metric_unit(name)} for name in metric_names()}
    return [untraced, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "transferlab", "__init__.py")):
            raise BenchError(f"no transferlab sources under {ROOT}/src")
        if args.trace:
            passes, metrics = measure_traced(args.workload, args.seed, start)
        else:
            passes, metrics = measure(args.workload, args.seed, args.seconds, start)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED {f}")
    attempted = sum(p["attempted"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {len(failures)} failed")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
