"""The four benchmark workloads: their op sequences, inputs and per-op checks.

Every op is one or more ``isingfit`` CLI commands run in-process through
``isingfit.cli.main``. An op is named by a variant (constraint family, model
or probe) and a pool index. As in one ``sweep`` config, each variant has one
true model (ensemble seed ENSEMBLE_SEED) and the pool index is the cell,
sample or probe seed. So a workload has a finite set of distinct ops, and
reference outputs for each one were recorded at the seed commit
(``reference.json``, written by ``record_reference.py``). The workload seed
picks the order in which a run walks each variant's pool.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
ENSEMBLE_SEED = 0

# Membership tolerance of the estimate in its constraint set: the one the
# acceptance suite (A9) holds projections to. Dykstra stops on a Frobenius
# gap of 1e-8, which lets a WidthBall row l1 norm exceed m by up to
# sqrt(n) * 1e-8; at the seed, 6 of the 32 WidthBall pool estimates exceed it
# by 1.0e-8 to 1.2e-8. The tolerance each estimate needs is reported as
# projections.membership_tol_max, so a tighter projection shows.
MEMBERSHIP_TOL = 1e-7
MEMBERSHIP_GRID = tuple(10.0 ** (k / 2) for k in range(-24, -7))  # 1e-12 .. 1e-4

# Output tolerances against the seed-commit reference: (relative, absolute).
# Fit outputs come from a convex problem solved to a gradient-mapping
# tolerance. Stopping at a 10x tighter tolerance moves frob_err, tv_exact and
# kl_exact by at most 2e-5 and op_norm_err by 6e-5 (relative), about a tenth of
# these bounds; stopping at a 100x looser one moves them by up to 6e-3. The fit
# report's final objective is held to the 1e-9 the ROADMAP asks of faster
# solvers. Probe outputs are deterministic functions of exact tables and move
# only by rounding.
TOLERANCE = {
    "frob_err": (2e-4, 1e-7),
    "tv_exact": (2e-4, 1e-7),
    "kl_exact": (2e-4, 1e-7),
    "op_norm_err": (5e-4, 1e-7),
    "objective_last": (1e-9, 0.0),
    "mean": (1e-6, 1e-9),
    "std": (1e-6, 1e-9),
    "exceed1": (0.0, 1e-12),
    "exceed2": (0.0, 1e-12),
    "exceed4": (0.0, 1e-12),
    "directions": (0.0, 0.0),
    "excluded": (0.0, 0.0),
    "max_ratio": (1e-6, 1e-9),
}

FIT_METRICS = ["frobenius", "tv_exact", "kl_exact", "op_norm_err"]
EXACT_METRICS = ["frobenius", "tv_exact", "kl_exact"]


@dataclass(frozen=True)
class Op:
    variant: str
    index: int


@dataclass
class OpOutcome:
    """What one op produced, as seen from outside the program."""

    codes: list[int] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    fits: list[tuple] = field(default_factory=list)  # (constraint, FitReport)
    warnings: list[str] = field(default_factory=list)
    error: str | None = None
    membership_tols: list[float] = field(default_factory=list)  # filled in by check()


class Workload:
    """Base class: a named set of variants, each with a pool of ops."""

    name = ""
    variants: tuple[str, ...] = ()
    pool = 0
    min_ops = 1  # a run completes at least this many timed ops; a whole number of cycles
    fits_per_op = 1

    def sequence(self, seed: int):
        """Infinite op sequence: variants round-robin, each pool shuffled by seed."""
        perms = {}
        for v in self.variants:
            perm = list(range(self.pool))
            random.Random(f"{self.name}:{seed}:{v}").shuffle(perm)
            perms[v] = perm
        i = 0
        while True:
            v = self.variants[i % len(self.variants)]
            k = i // len(self.variants)
            yield Op(v, perms[v][k % self.pool])
            i += 1

    def warmup_op(self) -> Op:
        """The untimed op every run starts with; fixed, so set-up is comparable."""
        return Op(self.variants[0], 0)

    def all_ops(self):
        return [Op(v, j) for v in self.variants for j in range(self.pool)]

    def prepare(self, workdir: Path, main) -> None:
        """Write every input file the pool needs (part of set-up)."""

    def execute(self, op: Op, workdir: Path, main, out: OpOutcome) -> None:
        raise NotImplementedError

    def run(self, op: Op, workdir: Path, main) -> OpOutcome:
        """Run one op, capturing projection warnings from the caller's side."""
        out = OpOutcome()
        opdir = workdir / f"op-{op.variant}-{op.index}"
        opdir.mkdir()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self.execute(op, opdir, main, out)
            out.warnings = [
                str(w.message) for w in caught
                if type(w.message).__name__ == "ProjectionConvergenceWarning"
            ]
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            out.error = f"{type(e).__name__}: {e}"
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        return out


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _call(main, out: OpOutcome, argv: list[str]) -> bool:
    code = main(argv)
    out.codes.append(code)
    return code == 0


class _SweepWorkload(Workload):
    """One single-cell ``sweep`` per op; the pool index is the cell seed."""

    configs: dict[str, tuple[dict, dict]] = {}
    l = 0
    metrics: list[str] = []

    def _config_path(self, workdir: Path, op: Op) -> Path:
        return workdir / f"sweep-{op.variant}-{op.index}.json"

    def prepare(self, workdir: Path, main) -> None:
        for op in self.all_ops():
            ensemble, constraint = self.configs[op.variant]
            _write_json(self._config_path(workdir, op), {
                "ensemble": dict(ensemble, seed=ENSEMBLE_SEED),
                "constraint": constraint,
                "sampler": {"method": "exact"},
                "sweep": {"l_values": [self.l], "seeds": [op.index], "metrics": self.metrics},
            })

    def execute(self, op: Op, opdir: Path, main, out: OpOutcome) -> None:
        csv_path = opdir / "cells.csv"
        argv = ["sweep", "--config", str(self._config_path(opdir.parent, op)),
                "--out", str(csv_path), "--jobs", "1"]
        if not _call(main, out, argv):
            return
        (row,) = _read_csv(csv_path)
        for key in ("frob_err", "tv_exact", "kl_exact", "op_norm_err"):
            if row.get(key):
                out.values[key] = float(row[key])


class ConstrainedN8(_SweepWorkload):
    name = "constrained_n8"
    configs = {
        "SpectralSpread": ({"kind": "SK", "n": 8, "beta": 0.5},
                           {"kind": "SpectralSpread", "s": 0.9}),
        "OpNormBall": ({"kind": "SK", "n": 8, "beta": 0.5},
                       {"kind": "OpNormBall", "lam": 0.5}),
        "WidthBall": ({"kind": "BoundedWidthRandom", "n": 8, "width": 1.0},
                      {"kind": "WidthBall", "m": 0.8}),
        "AntiferroSpike": ({"kind": "AntiferroExpander", "n": 8, "d": 3, "beta": 0.1},
                           {"kind": "AntiferroSpike", "alpha": 0.4, "c": 1.0}),
    }
    variants = tuple(configs)
    pool = 32
    min_ops = 8
    l = 4000
    metrics = FIT_METRICS


class ExactN20(_SweepWorkload):
    name = "exact_n20"
    configs = {
        "SK": ({"kind": "SK", "n": 20, "beta": 0.5}, {"kind": "OpNormBall", "lam": 2.0}),
        "CurieWeiss": ({"kind": "CurieWeiss", "n": 20, "beta": 0.8},
                       {"kind": "OpNormBall", "lam": 1.0}),
    }
    variants = tuple(configs)
    pool = 16
    min_ops = 2
    l = 1000
    metrics = EXACT_METRICS


class GlauberN30(Workload):
    """generate -> sample (Glauber) -> fit -> evaluate through files."""

    name = "glauber_n30"
    variants = ("SK",)
    pool = 24
    min_ops = 2
    constraint = {"kind": "OpNormBall", "lam": 2.0}

    def prepare(self, workdir: Path, main) -> None:
        _write_json(workdir / "ensemble.json",
                    {"ensemble": {"kind": "SK", "n": 30, "beta": 0.5, "seed": ENSEMBLE_SEED}})

    def execute(self, op: Op, opdir: Path, main, out: OpOutcome) -> None:
        model, samples = opdir / "truth.json", opdir / "samples.csv"
        est, report, metrics = opdir / "est.json", opdir / "report.json", opdir / "eval.csv"
        steps = [
            ["generate", "--config", str(opdir.parent / "ensemble.json"),
             "--out", str(model)],
            ["sample", "--model", str(model), "--method", "glauber", "--l", "2000",
             "--seed", str(op.index), "--out", str(samples)],
            ["fit", "--samples", str(samples), "--constraint", json.dumps(self.constraint),
             "--out", str(est), "--report", str(report)],
            ["evaluate", "--model-a", str(model), "--model-b", str(est),
             "--metrics", "frobenius,op_norm_err", "--out", str(metrics)],
        ]
        for argv in steps:
            if not _call(main, out, argv):
                return
        values = {row["metric"]: float(row["value"]) for row in _read_csv(metrics)}
        out.values["frob_err"] = values["frobenius"]
        out.values["op_norm_err"] = values["op_norm_err"]
        doc = json.loads(report.read_text())
        out.values["objective_last"] = float(doc["objective_last"])
        out.values["grad_map_last"] = float(doc["grad_map_last"])


class DiagnoseN16(Workload):
    """One ``diagnose`` probe per op on an n=16 SK model generated at set-up."""

    name = "diagnose_n16"
    variants = ("gradconc", "regularity")
    pool = 16
    min_ops = 2
    fits_per_op = 0
    probes = {
        "gradconc": ["--probe", "gradconc", "--l", "1000", "--batches", "50"],
        "regularity": ["--probe", "regularity", "--gamma", "0.05", "--num", "25"],
    }
    fields = {
        "gradconc": ("mean", "std", "exceed1", "exceed2", "exceed4"),
        "regularity": ("directions", "excluded", "max_ratio"),
    }

    def warmup_op(self) -> Op:
        return Op("regularity", 0)

    def prepare(self, workdir: Path, main) -> None:
        cfg = _write_json(workdir / "ensemble.json",
                          {"ensemble": {"kind": "SK", "n": 16, "beta": 0.5, "seed": ENSEMBLE_SEED}})
        if main(["generate", "--config", cfg, "--out", str(workdir / "model.json")]):
            raise RuntimeError("generate failed for the n=16 model")

    def execute(self, op: Op, opdir: Path, main, out: OpOutcome) -> None:
        csv_path = opdir / "probe.csv"
        argv = ["diagnose", "--model", str(opdir.parent / "model.json"),
                *self.probes[op.variant], "--seed", str(op.index), "--out", str(csv_path)]
        if not _call(main, out, argv):
            return
        (row,) = _read_csv(csv_path)
        for key in self.fields[op.variant]:
            out.values[key] = float(row[key])


WORKLOADS = {w.name: w for w in (ConstrainedN8(), GlauberN30(), ExactN20(), DiagnoseN16())}


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def check(workload: Workload, op: Op, out: OpOutcome, reference: dict | None,
          membership) -> list[str]:
    """Every reason this op failed; an empty list means it passed.

    With ``reference`` None (while recording references) outputs are not
    compared with references.
    """
    problems = []
    if out.error is not None:
        problems.append(f"raised {out.error}")
    if any(code != 0 for code in out.codes):
        problems.append(f"exit codes {out.codes}")
    if problems:
        return problems
    if len(out.fits) != workload.fits_per_op:
        problems.append(f"{len(out.fits)} fits recorded, expected {workload.fits_per_op}")
    for constraint, report in out.fits:
        if not report.converged:
            problems.append(f"fit did not converge after {report.iterations} iterations")
        needed = next((t for t in MEMBERSHIP_GRID if membership(constraint, report.estimate, tol=t)),
                      1.0)
        out.membership_tols.append(needed)
        if needed > MEMBERSHIP_TOL:
            problems.append(f"estimate outside {constraint.describe()} at tol {MEMBERSHIP_TOL}")
    if out.warnings:
        problems.append(f"{len(out.warnings)} projection warnings: {out.warnings[0]}")
    for key, value in out.values.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite ({value})")
    if reference is None:
        return problems
    ref = reference.get(workload.name, {}).get(op.variant, {}).get(str(op.index))
    if ref is None:
        problems.append("no reference values recorded for this op")
        return problems
    for key, ref_value in ref.items():
        if key not in out.values:
            problems.append(f"{key} missing from the output")
            continue
        rel, abs_tol = TOLERANCE[key]
        if abs(out.values[key] - ref_value) > rel * abs(ref_value) + abs_tol:
            problems.append(f"{key}={out.values[key]!r} differs from reference {ref_value!r}")
    return problems
