"""Tests of the benchmark itself: failure counting, metric names, tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from transferlab import checkers, group, perm  # noqa: E402
from transferlab.catalog import default_corpus, save_catalog  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_flipped_scan_record_fails_one_operation(tmp_path):
    scan = workloads.CorpusScan(1, str(tmp_path))
    records = workloads.load_golden("scan_records.jsonl")
    assert scan.check((0, records)) == []
    lines = records.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"verdict": "implication_ok"' in line)
    lines[i] = lines[i].replace('"implication_ok"', '"VIOLATION"')
    failures = scan.check((0, "".join(lines)))
    assert len(failures) == 1
    assert failures[0].startswith(json.loads(lines[i])["group_label"])


def test_scan_catalog_order_depends_on_seed_but_pairs_do_not(tmp_path):
    orders, op_ids = [], []
    for seed in (1, 2):
        scan = workloads.CorpusScan(seed, str(tmp_path))
        with open(scan.catalog_path) as fh:
            orders.append([json.loads(line)["label"] for line in fh])
        op_ids.append(scan.op_ids)
        scan.cleanup()
    assert sorted(orders[0]) == sorted(orders[1]) and orders[0] != orders[1]
    assert op_ids[0] == op_ids[1] and len(op_ids[0]) == 68


def test_golden_outputs_are_consistent():
    records = workloads.load_golden("scan_records.jsonl")
    scan = workloads.load_golden("scan.json")
    by_pair, verdicts = workloads.parse_records(records)
    assert hashlib.sha256(records.encode()).hexdigest() == scan["sha256"]
    assert len(records.splitlines()) == scan["lines"] == 1417 and len(by_pair) == 68
    assert {k: verdicts.get(k, 0) for k in scan["summary"]} == scan["summary"] == {
        "implication_ok": 987, "vacuous": 430, "VIOLATION": 0, "skipped:cap": 0,
    }
    assert len(workloads.load_golden("analyze.json")) == 68
    assert workloads.load_golden("witness.txt").count(": pass\n") == 10


def test_wrong_transfer_value_fails_one_operation(tmp_path):
    te = workloads.TransferEval(5, str(tmp_path))
    te.op_ids = [op for op in te.op_ids if op.split()[0] in ("S4-p2", "D12-p3")]
    outputs, intervals = te.run()
    assert set(intervals) == set(te.op_ids) and len(te.op_ids) == 2 * workloads.TRANSFER_ELEMENTS_PER_PAIR
    assert te.check(outputs) == []
    op = next(op for op in te.op_ids if op.startswith("S4-p2"))
    result = outputs[op]
    derived = group.derived_subgroup(result.target)
    outside = next(g for g in result.target.gens if not derived.contains(g))
    outputs[op] = type(result)(result.target, result.modulus, result.value * outside)
    failures = te.check(outputs)
    assert len(failures) == 1 and failures[0].startswith(op)


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == declared


def test_end_to_end_metric_names_match_benchmark_json():
    setups = [{"setup_s": 0.1 + i / 100, "setup_raw_s": 0.1} for i in range(3)]
    passes = [
        {"wall_s": 1.0 + k, "wall_raw_s": 1.0, "peak_rss_mb": 30.0,
         "op_ms": {f"op{i}": float(i + k) for i in range(20)}}
        for k in range(2)
    ]
    metrics, lines = run.end_to_end(setups, passes)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    # Op medians are 0.5, 1.5, ..., 19.5; the tail is read at p50 (10 beyond).
    assert abs(metrics["op_p50_ms"]["value"] - 10.0) < 1e-9
    assert abs(metrics["op_tail_ms"]["value"] - 10.0) < 1e-9
    assert len(lines) == len(declared)


def test_quantile_moves_smoothly_when_a_cluster_straddles_it():
    def sample(cheap):
        return [10.0] * 176 + [129.0] * cheap + [174.0] * (8 - cheap) + [300.0] * 176

    plain = [statistics.median(sample(c)) for c in (3, 4, 5)]
    smooth = [run.quantile(sample(c), 0.5) for c in (3, 4, 5)]
    assert plain == [174.0, 151.5, 129.0]
    assert max(smooth) - min(smooth) < (max(plain) - min(plain)) / 4
    assert abs(run.quantile([float(i) for i in range(101)], 0.9) - 90.0) < 0.5


def test_per_layer_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {n: tracer.metric_unit(n) for n in tracer.metric_names()} == declared


def test_speed_probe_scales_out_a_slow_machine_and_its_own_time():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    # Probes at 0, 1 and 2 s, each taking twice the reference time: half speed.
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [s + 2 * ref for s in probe.starts]
    probe._index()
    assert abs(probe.probe_time(0.0, 3.0) - 6 * ref) < 1e-12
    assert abs(probe.scaled(0.5, 2.5) - (2.0 - 2 * 2 * ref) / 2) < 1e-12
    assert abs(probe.scaled(3.0, 5.0) - 1.0) < 1e-12


def test_speed_probe_runs_during_a_pass():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * speed.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert len(probe.starts) >= 4  # entry, exit and the timer's
    assert 0 < probe.scaled(t0, t1) < 10 * (t1 - t0)


def _small_catalog(tmp_path) -> str:
    keep = {"S4", "Q8", "SL(2,3)", "D12"}
    path = str(tmp_path / "small.jsonl")
    save_catalog([e for e in default_corpus() if e.label in keep], path)
    return path


def test_tracing_leaves_records_unchanged_and_restores_originals(tmp_path):
    argv = ["scan", "--format", "records", "--catalog", _small_catalog(tmp_path)]
    originals = (checkers.run_checker, perm.Perm.__mul__, group.PermGroup.__dict__["chain"])
    untraced = workloads.call_cli(argv)

    t = tracer.Tracer()
    with t:
        t0 = time.perf_counter()
        traced = workloads.call_cli(argv)
        wall_s = time.perf_counter() - t0
    assert traced == untraced
    assert (checkers.run_checker, perm.Perm.__mul__, group.PermGroup.__dict__["chain"]) == originals

    layers = t.metrics(wall_s)
    assert set(layers) | {"trace.overhead"} == set(tracer.metric_names())
    assert layers["trace.coverage"] >= 0.9
    assert layers["checkers.burnside.s"] > 0
    assert layers["group.chain_builds"] > 0 and layers["perm.mul_calls"] > 0
    t.write(str(tmp_path / "spans.tsv"))
    with open(tmp_path / "spans.tsv") as fh:
        assert sum(1 for _ in fh) == len(t.span_start) + 1


def test_run_refuses_a_tree_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
