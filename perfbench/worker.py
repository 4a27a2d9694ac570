"""One benchmark process: set up a workload, warm up, then run the closed loop.

Started by ``run.py``; not meant to be run by hand. It talks to its parent
through lines on stdout that start with ``PERFBENCH``: ``READY`` once set-up
(imports, input files, one untimed warm-up op) is done, then ``RESULT`` with
every measured number. With ``--setup-only`` it stops after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
import workloads  # noqa: E402

# Print at most this many failing ops to stderr.
MAX_REPORTED_FAILURES = 5


def emit(kind: str, doc: dict) -> None:
    print(f"PERFBENCH {kind} {json.dumps(doc)}", flush=True)


def tail_latency(latencies: list[float]) -> tuple[float | None, float | None]:
    """(percentile, latency) of the highest percentile with ten ops beyond it.

    Undefined below 20 ops, where that percentile would not be above the median.
    """
    n = len(latencies)
    if n < 20:
        return None, None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def import_program():
    """Import ``isingfit`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import isingfit

    if Path(isingfit.__file__).resolve().parent != (src / "isingfit").resolve():
        raise ImportError(f"isingfit imported from {isingfit.__file__}, not from {src}")
    return isingfit


class Session:
    """The state of one workload run in this process."""

    def __init__(self, isingfit, workload, workdir: Path, trace: bool) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tracer = spans.Tracer() if trace else None
        self.inst = spans.Instrumentation(isingfit, self.tracer)
        self.main = self.tracer.wrap("cli.main", isingfit.cli.main) if trace else isingfit.cli.main
        self.membership = isingfit.projections.membership
        self.reference = workloads.load_reference()

    def run_op(self, op, op_id: int):
        """Run and check one op: (latency, outcome, problems)."""
        if self.tracer is not None:
            self.tracer.op = op_id
        t0 = time.perf_counter()
        with self.tracer.span("op") if self.tracer is not None else nullcontext():
            out = self.workload.run(op, self.workdir, self.main)
        latency = time.perf_counter() - t0
        out.fits = self.inst.take_fits()
        problems = workloads.check(self.workload, op, out, self.reference, self.membership)
        return latency, out, problems


def measure(session: Session, seed: int, seconds: float) -> dict:
    wl = session.workload
    latencies, frobs, failed, n_warnings, member_tol = [], [], 0, 0, 0.0
    ops = wl.sequence(seed)
    t_start = time.perf_counter()
    while True:
        i = len(latencies)
        op = next(ops)
        latency, out, problems = session.run_op(op, i)
        latencies.append(latency)
        n_warnings += len(out.warnings)
        member_tol = max([member_tol, *out.membership_tols])
        if "frob_err" in out.values:
            frobs.append(out.values["frob_err"])
        if problems:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"op {i} {op.variant}/{op.index} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        # Stop only after whole cycles of the variants, so every run has the same mix.
        done = len(latencies)
        if (time.perf_counter() - t_start >= seconds and done >= wl.min_ops
                and done % len(wl.variants) == 0):
            break
    wall = time.perf_counter() - t_start
    tail_pct, tail = tail_latency(latencies)
    result = {
        "ops": len(latencies),
        "failed": failed,
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail,
        "tail_pct": tail_pct,
        "fail_frac": failed / len(latencies),
        "frob_err_p50": statistics.median(frobs) if frobs else None,
        "projection_warnings": n_warnings,
        "latencies": latencies,
    }
    if session.tracer is not None:
        layer = spans.summarize(session.tracer, len(latencies), wl.min_ops)
        layer["projections.warnings"] = n_warnings / len(latencies)
        layer["projections.membership_tol_max"] = member_tol
        layer.update({
            "trace.ops_per_s": result["ops_per_s"],
            "trace.op_s_p50": result["op_s_p50"],
            "trace.op_s_tail": tail if tail is not None else 0.0,
            "trace.tail_pct": tail_pct if tail_pct is not None else 0.0,
            "trace.ops": float(len(latencies)),
            "trace.fail_frac": result["fail_frac"],
            "quality.frob_err_p50": result["frob_err_p50"] or 0.0,
        })
        result["per_layer"] = layer
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    isingfit = import_program()
    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        session = Session(isingfit, wl, workdir, bool(args.trace))
        wl.prepare(workdir, isingfit.cli.main)
        warm = wl.warmup_op()
        _, _, problems = session.run_op(warm, -1)
        emit("READY", {"setup_s": time.monotonic() - args.t_spawn, "warmup_problems": problems})
        if args.setup_only:
            return 0
        result = measure(session, args.seed, args.seconds)
        result["warmup_problems"] = problems
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if session.tracer is not None:
            session.tracer.write(workdir.parent / f"spans-{args.workload}.jsonl")
        emit("RESULT", result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
