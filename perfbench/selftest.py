"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

They run short closed loops in-process: the minimum op count of each
workload, with the same checks as a full run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

ROOT = worker.ROOT
ISINGFIT = worker.import_program()


def short_run(tmp_path: Path, name: str, trace: bool, seed: int = 7) -> dict:
    """Warm-up op plus the workload's minimum op count, in this process."""
    wl = workloads.WORKLOADS[name]
    workdir = tmp_path / f"{name}-{int(trace)}-{time.monotonic_ns()}"
    workdir.mkdir()
    session = worker.Session(ISINGFIT, wl, workdir, trace)
    try:
        wl.prepare(workdir, ISINGFIT.cli.main)
        _, _, problems = session.run_op(wl.warmup_op(), -1)
        assert problems == []
        return worker.measure(session, seed, 0.0)
    finally:
        session.inst.remove()


def test_benchmark_json_names_the_metrics_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_every_pool_op_has_reference_values():
    reference = workloads.load_reference()
    for wl in workloads.WORKLOADS.values():
        for op in wl.all_ops():
            assert reference[wl.name][op.variant][str(op.index)], (wl.name, op)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_short_run_passes_every_check(tmp_path, name):
    r = short_run(tmp_path, name, trace=False)
    assert r["ops"] == workloads.WORKLOADS[name].min_ops
    assert r["failed"] == 0


def test_exact_counts_repeat_for_a_fixed_seed(tmp_path):
    first = short_run(tmp_path, "constrained_n8", trace=True)["per_layer"]
    second = short_run(tmp_path, "constrained_n8", trace=True)["per_layer"]
    for key in spans.EXACT_COUNTS + spans.COMPUTED_COUNTS:
        assert first[key] == second[key], key
    assert first["projections.calls"] > 0 and first["exact.distribution_calls"] > 0


def test_self_times_account_for_op_time(tmp_path):
    layer = short_run(tmp_path, "exact_n20", trace=True)["per_layer"]
    assert sum(layer[f"share.{x}"] for x in spans.LAYERS) == pytest.approx(1.0, abs=1e-9)
    assert max(spans.LAYERS, key=lambda x: layer[f"share.{x}"]) == "exact"


def layer_s(result: dict, layer: str) -> float:
    """Self time of a layer per op."""
    mean_op = sum(result["latencies"]) / len(result["latencies"])
    return result["per_layer"][f"share.{layer}"] * mean_op


def test_added_delay_lands_in_that_layer_only(tmp_path):
    delay = 0.25
    module = ISINGFIT.ensembles
    original = module.generate

    def slow_generate(spec):
        # Spin rather than sleep, so the core stays busy as in real work.
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return original(spec)

    base = short_run(tmp_path, "constrained_n8", trace=True)
    module.generate = slow_generate
    try:
        slow = short_run(tmp_path, "constrained_n8", trace=True)
    finally:
        module.generate = original
    # generate runs once per op, so each op gains one delay in ensembles.
    moved = slow["per_layer"]["ensembles.generate_s"] - base["per_layer"]["ensembles.generate_s"]
    assert moved == pytest.approx(delay, rel=0.2)
    for x in spans.LAYERS:
        if x != "ensembles":
            assert abs(layer_s(slow, x) - layer_s(base, x)) < 0.3 * delay, x
    assert slow["ops_per_s"] < base["ops_per_s"]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert worker.tail_latency([1.0] * 19) == (None, None)
    pct, value = worker.tail_latency([float(i) for i in range(30)])
    assert pct == pytest.approx(100 * 20 / 30)
    assert value == 19.0  # ten ops (20..29) lie beyond it


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnose_n16", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constrained_n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
