"""End-to-end benchmark of the isingfit estimation pipeline.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload constrained_n8 --seed 1 --seconds 18 --trace 0

Each workload is a closed loop with one client: ops run one after another
through ``isingfit.cli.main`` in one process, and every op's output is
checked. ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
public functions of each module and reports per-layer metrics instead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Set-up time is measured in SETUPS fresh processes (each imports the program,
writes the workload's input files and runs one untimed warm-up op) and
reported as their median; the last of them goes on to the timed loop.

Run every workload, untraced and traced, and write ``perfbench/baseline.json``
(machine block, every metric, tracing overhead, count repeatability):

    python3 perfbench/run.py --workload all --seed 1 --seconds 18
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("constrained_n8", "glauber_n30", "exact_n20", "diagnose_n16")
SETUPS = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0

# The end-to-end metrics in the result line; the rest are printed alongside.
# op_s_p50 is not among them: on the multi-variant workloads the median falls
# in the gap between two variants' latency clusters and swings with the
# slowest op of one and the fastest of the other (see README.md).
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # Compile from source on every run, so no run depends on an earlier one.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # numpy asks for transparent huge pages on large arrays, and whether the
    # host grants them depends on its memory state; do without them.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], deadline: float) -> dict[str, dict]:
    """Run worker.py to completion; return its PERFBENCH messages by kind."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t-spawn", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    messages = {}
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH "):
            _, kind, doc = line.split(" ", 2)
            messages[kind] = json.loads(doc)
    return messages


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups, warmup_problems = [], []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        messages = spawn(base if last else base + ["--setup-only"], deadline)
        if "READY" not in messages or (last and "RESULT" not in messages):
            raise BenchError("worker ended without reporting")
        setups.append(messages["READY"]["setup_s"])
        warmup_problems += messages["READY"]["warmup_problems"]
    result = messages["RESULT"]
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["warmup_problems"] = warmup_problems
    return result


def fmt(value, unit: str) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def print_table(workload: str, r: dict) -> None:
    tail = (f"{fmt(r['op_s_tail'], 's')} (p{r['tail_pct']:.1f} of {r['ops']} ops)"
            if r["op_s_tail"] is not None else f"n/a (needs 20 ops, ran {r['ops']})")
    rows = [
        ("ops_per_s", fmt(r["ops_per_s"], "ops/s")),
        ("op_s_p50", fmt(r["op_s_p50"], "s")),
        ("op_s_tail", tail),
        ("fail_frac", f"{r['fail_frac']:.6g} ratio ({r['failed']} of {r['ops']} ops)"),
        ("frob_err_p50", fmt(r["frob_err_p50"], "") if r["frob_err_p50"] is not None
         else "not defined (no fits)"),
        ("setup_s", fmt(r["setup_s"], "s") + f" (median of {len(r['setup_samples'])})"),
        ("peak_rss_mb", fmt(r["peak_rss_mb"], "MB")),
    ]
    print(f"workload {workload}")
    for name, text in rows:
        print(f"  {name:<14} {text}")


def result_line(r: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": r["per_layer"][name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": r["failed"] == 0 and not r["warmup_problems"],
        "attempted": r["ops"],
        "failed": r["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# All workloads: the baseline file.
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_block() -> dict:
    import importlib.metadata

    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None

    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
    }


def run_all(seed: int, seconds: float) -> int:
    repeat_keys = spans.EXACT_COUNTS + spans.COMPUTED_COUNTS
    span_cost = spans.span_cost_s()
    doc = {"machine": machine_block(), "seed": seed, "run_seconds": seconds,
           "setups_per_run": SETUPS, "span_cost_s": span_cost, "labels": {
               **{k: "exact" for k in spans.EXACT_COUNTS},
               **{k: "computed" for k in spans.COMPUTED_COUNTS}},
           "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = [run_workload(workload, seed, seconds, trace, time.monotonic() + 600)
                for trace in (0, 1, 1)]
        plain, traced, again = runs
        for r in runs:
            r.pop("latencies")
        print_table(workload, plain)
        repeats = all(traced["per_layer"][k] == again["per_layer"][k] for k in repeat_keys)
        overhead = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        # The two runs differ by machine drift too; spans x cost bounds the part
        # the wrappers add.
        computed = traced["per_layer"]["trace.spans"] * span_cost * traced["ops_per_s"]
        print(f"  tracing overhead {overhead:.2%} of ops_per_s measured, "
              f"{computed:.2%} computed; counts repeat exactly: {str(repeats).lower()}")
        ok = ok and repeats and plain["failed"] == 0 and traced["failed"] == 0
        doc["workloads"][workload] = {
            "end_to_end": {k: plain[k] for k in (
                "ops_per_s", "op_s_p50", "op_s_tail", "tail_pct", "ops", "failed", "fail_frac",
                "frob_err_p50", "setup_s", "setup_samples", "peak_rss_mb")},
            "per_layer": traced["per_layer"],
            "tracing_overhead": overhead,
            "tracing_overhead_computed": computed,
            "counts_repeat": repeats,
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        r = run_workload(args.workload, args.seed, args.seconds, args.trace,
                         time.monotonic() + TIME_LIMIT_S)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for problem in r["warmup_problems"]:
        print(f"warm-up op failed: {problem}", file=sys.stderr)
    print_table(args.workload, r)
    print(json.dumps(result_line(r, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
