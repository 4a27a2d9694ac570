"""Record the reference outputs of every op in every workload's pool.

The per-op check compares each op's outputs with these values, within the
tolerances in ``workloads.TOLERANCE``. They were recorded at the seed commit;
re-record only when a change is meant to alter the estimates (for example, a
new sampler stream), and say so with the change.

    python3 perfbench/record_reference.py                 # every workload
    python3 perfbench/record_reference.py exact_n20 ...   # some; merged in
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads
import worker


def record(isingfit, wl) -> tuple[dict, list[str]]:
    workdir = worker.ROOT / ".perfbench-work" / f"reference-{wl.name}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    session = worker.Session(isingfit, wl, workdir, trace=False)
    session.reference = None
    values, problems = {}, []
    try:
        wl.prepare(workdir, isingfit.cli.main)
        for op in wl.all_ops():
            _, out, found = session.run_op(op, 0)
            problems += [f"{wl.name} {op.variant}/{op.index}: {p}" for p in found]
            values.setdefault(op.variant, {})[str(op.index)] = {
                k: v for k, v in out.values.items() if k in workloads.TOLERANCE}
            print(f"{wl.name} {op.variant}/{op.index} {values[op.variant][str(op.index)]}",
                  flush=True)
    finally:
        session.inst.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    return values, problems


def main(names: list[str]) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in benchmark runs; before numpy loads
    isingfit = worker.import_program()
    recorded, problems = {}, []
    for name in names or list(workloads.WORKLOADS):
        recorded[name], found = record(isingfit, workloads.WORKLOADS[name])
        problems += found
    reference = {**workloads.load_reference(), **recorded}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
