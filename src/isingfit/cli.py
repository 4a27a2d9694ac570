"""Command-line front end: generate, sample, fit, evaluate, sweep, diagnose.

Configuration lives in a single JSON document with blocks {ensemble,
constraint, optimizer, sampler, sweep}; command-line flags override file
values. Exit codes: 0 success, 1 runtime failure, 2 configuration error
(message names the offending field or output path), 3 capability error (enumeration cap).

Sweep results are one CSV row per distinct (l, seed) cell. Cells are pure
functions of the configuration and the cell seed, so a row can be reproduced
by re-running its cell alone; cells run and rows are written in cell-key order,
which makes serial and parallel runs produce identically ordered files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import diagnostics, ensembles, exact, optimizer, projections, sampler
from .core import (
    CapabilityError,
    CouplingMatrix,
    IsingModel,
    ParameterError,
    ParseError,
    is_int,
    is_real,
    load_model,
    load_samples,
    save_model,
    save_samples,
    stream,
)

SWEEP_COLUMNS = (
    "ensemble",
    "n",
    "beta",
    "d",
    "l",
    "seed",
    "constraint",
    "frob_err",
    "tv_exact",
    "kl_exact",
    "iters",
    "wall_time",
    "op_norm_err",
)


class ConfigError(ParameterError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config: cannot read {path}: {getattr(e, 'strerror', None) or e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    return doc


def _check_writable(*paths) -> None:
    """Raise ConfigError ``<path>: cannot write: <reason>`` where open(path, "w") would fail."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        reason = ("Is a directory" if os.path.isdir(path)
                  else "No such file or directory" if not os.path.isdir(parent)
                  else None if os.access(path if os.path.exists(path) else parent, os.W_OK)
                  else "Permission denied")
        if reason:
            raise ConfigError(f"{path}: cannot write: {reason}")


def _from_block(cls, block, ctx: str):
    """Build dataclass ``cls`` from config block ``block``; errors name ``ctx``."""
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    for key in block:
        if key not in fields:
            raise ConfigError(f"{ctx}.{key}: unknown field")
    for name, f in fields.items():
        if name not in block and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{ctx}.{name}: missing required field")
    try:
        return cls(**block)
    except ConfigError:
        raise  # already names its field
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"{ctx}: {e}")


def _constraint(block) -> projections.ConstraintSet:
    """The constraint block as an instance of the family its ``kind`` names."""
    kind = block.get("kind") if isinstance(block, dict) else None
    if not isinstance(kind, str) or kind not in projections.FAMILIES:
        raise ConfigError(f"constraint.kind: must be one of {', '.join(projections.FAMILIES)}")
    params = {k: v for k, v in block.items() if k != "kind"}
    return _from_block(projections.FAMILIES[kind], params, "constraint")


def _glauber_config(block, method: str = "glauber") -> sampler.GlauberConfig:
    """The sampler block (or command-line flags) as a Glauber config; a ``None`` value
    means the default, and under ``method`` exact a Glauber field that is set is an error."""
    if isinstance(block, dict):
        block = {k: v for k, v in block.items() if v is not None and k != "method"}
        for key in block if method == "exact" else ():
            if key in ("burn_in_sweeps", "thinning_sweeps", "chains", "alpha_hint"):
                raise ConfigError(f"sampler.{key}: applies to method glauber only")
        if "alpha_hint" in block and "burn_in_sweeps" in block:
            raise ConfigError("sampler.alpha_hint: sets burn_in_sweeps, so not both can be set")
        try:
            base = sampler.default_config(block.pop("alpha_hint", None))
        except ParameterError as e:
            raise ConfigError(f"sampler: {e}")
        block.setdefault("burn_in_sweeps", base.burn_in_sweeps)
    return _from_block(sampler.GlauberConfig, block, "sampler")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    if "ensemble" not in cfg:
        raise ConfigError("ensemble: missing block in config")
    spec = _from_block(ensembles.EnsembleSpec, cfg["ensemble"], "ensemble")
    model = ensembles.generate(spec)
    save_model(model, args.out)
    return 0


def _write_report(path: str, doc: dict) -> None:
    """``doc`` as a JSON file; a non-finite real, which JSON cannot hold, is written null."""
    doc = {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in doc.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _cell(v) -> str:
    """One CSV cell: text as is, None empty, bools lower case, integers in full, reals at .12g."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return format(float(v), ".12g")


def _csv_text(rows: list[dict], header: bool = True) -> str:
    """``rows`` as CSV lines, led by the first row's keys when ``header``."""
    lines = [",".join(rows[0])] if header else []
    lines += [",".join(map(_cell, row.values())) for row in rows]
    return "".join(line + "\n" for line in lines)


def _write_csv(path: str | None, rows: list[dict]) -> None:
    """Write ``rows`` as CSV to ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(_csv_text(rows))
        return
    with open(path, "w") as fh:
        fh.write(_csv_text(rows))


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.l < 1:
        raise ConfigError("l: must be >= 1")
    if args.method == "exact":
        for flag in ("burn_in", "thinning", "chains", "alpha_hint"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag.replace('_', '-')}: applies to --method glauber only")
        start = time.perf_counter()
        batch = sampler.exact_sample(model, args.l, seed=args.seed)
    else:
        block = {"alpha_hint": args.alpha_hint, "burn_in_sweeps": args.burn_in,
                 "thinning_sweeps": args.thinning, "chains": args.chains}
        cfg = _glauber_config(block)
        start = time.perf_counter()
        batch = sampler.glauber_sample(model, args.l, cfg, seed=args.seed)
    sample_time = time.perf_counter() - start
    save_samples(batch, args.out)
    if args.report:
        doc = {"method": args.method, "l": args.l, "chains": None, "processes": None,
               "burn_in_sweeps": None, "thinning_sweeps": None, "site_updates": None,
               "sample_time": sample_time}
        if args.method == "glauber":
            doc.update(chains=min(cfg.chains, args.l),
                       processes=sampler.chain_processes(model.n, args.l, cfg),
                       burn_in_sweeps=cfg.burn_in_sweeps,
                       thinning_sweeps=cfg.thinning_sweeps,
                       site_updates=sampler.site_updates(model.n, args.l, cfg),
                       **sampler.mixing(model, batch, cfg))
        _write_report(args.report, doc)
    return 0


def _parse_field(arg: str, n: int) -> np.ndarray:
    if arg == "zero":
        return np.zeros(n)
    try:
        with open(arg) as fh:
            raw = json.load(fh)
        h = np.asarray(raw, dtype=np.float64)
    except (OSError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"h: expected 'zero' or a JSON vector file ({e})")
    if h.shape != (n,):
        raise ConfigError(f"h: length {h.shape} does not match n={n}")
    if not (all(is_real(v) for v in raw) and np.isfinite(h).all()):
        raise ConfigError("h: entries must be finite numbers")
    return h


def _cmd_fit(args) -> int:
    batch = load_samples(args.samples)
    cfg = _load_config(args.config)
    if args.constraint is not None:
        try:
            block = json.loads(args.constraint)
        except json.JSONDecodeError as e:
            raise ConfigError(f"constraint: invalid inline JSON: {e.msg}")
    elif "constraint" in cfg:
        block = cfg["constraint"]
    else:
        raise ConfigError("constraint: give --constraint or a config block")
    constraint = _constraint(block)
    fit_cfg = _from_block(optimizer.FitConfig, cfg.get("optimizer"), "optimizer")
    h = _parse_field(args.h, batch.n)
    report = optimizer.fit_mple(batch, h, constraint, fit_cfg)
    save_model(IsingModel(report.estimate, h), args.out)
    if args.report:
        doc = {
            "iterations": report.iterations,
            "converged": report.converged,
            "objective_first": report.objective_trace[0],
            "objective_last": report.objective_trace[-1],
            "grad_map_last": report.grad_map_trace[-1] if report.grad_map_trace else None,
            "wall_time": report.wall_time,
            "stop_reason": report.stop_reason,
            "projections": report.projections,
            "projection_residual_max": report.projection_residual_max,
        }
        _write_report(args.report, doc)
    return 0


def _model_b(args, n: int) -> IsingModel:
    """The ``--model-b`` file, which must have the first model's dimension ``n``."""
    other = load_model(args.model_b)
    if other.n != n:
        raise ConfigError(f"model-b: dimension {other.n} does not match the first model's {n}")
    return other


def _cmd_evaluate(args) -> int:
    truth = load_model(args.model_a)
    est = _model_b(args, truth.n)
    metrics = list(dict.fromkeys(m.strip() for m in args.metrics.split(",") if m.strip()))
    if not metrics:
        raise ConfigError("metrics: no metric given")
    values = diagnostics.pair_metrics(truth, est, metrics)
    _write_csv(args.out, [{"metric": m, "value": values[m]} for m in metrics])
    return 0


# ---------------------------------------------------------------------------
# Sweep.
# ---------------------------------------------------------------------------

def _run_sweep_cell(spec, constraint, fit_cfg, glauber, metrics, key) -> dict:
    """One (l, seed) cell; ``glauber`` is None for exact sampling."""
    l, seed = key
    model = ensembles.generate(spec)
    p_true = exact.distribution(model) if glauber is None else None  # sampled from, then reused
    if glauber is None:
        batch = sampler.exact_sample(p_true, l, seed=seed)
    else:
        batch = sampler.glauber_sample(model, l, glauber, seed=seed)

    report = optimizer.fit_mple(batch, np.zeros(spec.n), constraint, fit_cfg)
    est = IsingModel.zero_field(report.estimate)
    values = diagnostics.pair_metrics(model, est, metrics, p_true)

    # Keys in SWEEP_COLUMNS order; beta and wall_time keep their own precision.
    return {"ensemble": spec.kind, "n": spec.n, "beta": format(spec.beta, ".6g"), "d": spec.d,
            "l": l, "seed": seed, "constraint": constraint.describe(),
            "frob_err": values.get("frobenius"), "tv_exact": values.get("tv_exact"),
            "kl_exact": values.get("kl_exact"), "iters": report.iterations,
            "wall_time": format(report.wall_time, ".6f"), "op_norm_err": values.get("op_norm_err")}


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """The sweep block: the (l, seed) cells and the metrics every row reports."""

    l_values: list
    seeds: list
    metrics: list = dataclasses.field(default_factory=lambda: ["frobenius"])

    def __post_init__(self):
        for name in ("l_values", "seeds"):
            values = getattr(self, name)
            if not isinstance(values, list) or not values or not all(is_int(v) for v in values):
                raise ConfigError(f"sweep.{name}: must be a non-empty list of integers")
        if min(self.l_values) < 1:
            raise ConfigError("sweep.l_values: every sample count must be >= 1")
        if not isinstance(self.metrics, list) or not self.metrics:
            raise ConfigError("sweep.metrics: must be a non-empty list of metric names")
        try:
            diagnostics.check_metrics(self.metrics)
        except ParameterError as e:
            raise ConfigError(f"sweep.{e}") from None


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("jobs: must be >= 1")
    cfg = _load_config(args.config)
    for block in ("ensemble", "constraint", "sweep"):
        if block not in cfg:
            raise ConfigError(f"{block}: missing block in config")
    grid = _from_block(SweepGrid, cfg["sweep"], "sweep")
    spec = _from_block(ensembles.EnsembleSpec, cfg["ensemble"], "ensemble")
    if spec.n > exact.DEFAULT_ENUM_CAP and {"tv_exact", "kl_exact"} & set(grid.metrics):
        raise CapabilityError(
            f"tv_exact/kl_exact need n <= enumeration cap {exact.DEFAULT_ENUM_CAP}, got n={spec.n}"
        )
    # Every block is checked once here, before any cell starts.
    constraint = _constraint(cfg["constraint"])
    fit_cfg = _from_block(optimizer.FitConfig, cfg.get("optimizer"), "optimizer")
    block = cfg.get("sampler")
    method = block.get("method") if isinstance(block, dict) else None
    if method is None:  # absent or null: exact up to the enumeration cap
        method = "exact" if spec.n <= exact.DEFAULT_ENUM_CAP else "glauber"
    glauber = _glauber_config(block, method)  # a block that is not an object fails here
    if method not in ("exact", "glauber"):
        raise ConfigError(f"sampler.method: unknown method {method!r}")
    if os.path.isfile(args.out) and os.path.getsize(args.out):
        with open(args.out) as fh:
            if fh.readline().rstrip("\r\n") != ",".join(SWEEP_COLUMNS):
                raise ConfigError(f"out: {args.out} does not start with the sweep header")

    cell = functools.partial(_run_sweep_cell, spec, constraint, fit_cfg,
                             glauber if method == "glauber" else None, grid.metrics)
    # Distinct cells run once each, in key order; other columns are fixed per sweep.
    keys = [(l, seed) for l in sorted(set(grid.l_values)) for seed in sorted(set(grid.seeds))]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(cell, keys))
    else:
        rows = [cell(key) for key in keys]
    with open(args.out, "a") as fh:  # append mode opens at the end: a header only if empty
        fh.write(_csv_text(rows, header=fh.tell() == 0))
    return 0


# ---------------------------------------------------------------------------
# Diagnose.
# ---------------------------------------------------------------------------

def _subset_row(args, model) -> dict:
    # subset_decomposition certifies what it returns and raises otherwise
    dec = diagnostics.subset_decomposition(model.coupling, args.m, args.eta, seed=args.seed)
    return {"r": dec.r, "membership_count": dec.membership_count, "eta": dec.eta,
            "certified": True}


def _regularity_row(args, model) -> dict:
    rep = diagnostics.regularity_probe(model, args.gamma, num_perturbations=args.num,
                                       seed=args.seed)
    return {"gamma": rep.gamma_probe, "directions": len(rep.ratios), "excluded": rep.excluded,
            "max_ratio": rep.max_ratio}


def _metric_row(args, model) -> dict:
    cmp = diagnostics.metric_comparison(model, _model_b(args, model.n).coupling)
    return {"e_jstar": cmp.e_jstar, "frob_sq": cmp.frob_sq, "ratio": cmp.ratio,
            "degenerate": cmp.degenerate}


def _tvfrob_row(args, model) -> dict:
    rep = diagnostics.tv_frobenius_check(model, _model_b(args, model.n))
    return {"tv": rep.tv, "frob": rep.frob, "bound_ok": rep.bound_ok, "kl": rep.kl,
            "pinsker_ok": rep.pinsker_ok}


def _gradconc_row(args, model) -> dict:
    raw = np.triu(stream(args.seed, 0xD1).normal(size=(model.n, model.n)), k=1)
    rep = diagnostics.gradient_concentration_probe(model, CouplingMatrix(raw + raw.T), l=args.l,
                                                   batches=args.batches, seed=args.seed)
    exceed = rep.exceed_fraction
    return {"l": args.l, "batches": args.batches, "mean": rep.mean, "std": rep.std,
            "exceed1": exceed[1.0], "exceed2": exceed[2.0], "exceed4": exceed[4.0]}


PROBES = {  # name: (function giving the row's columns after probe,n; flags the probe needs)
    "subset": (_subset_row, ("--m", "--eta")),
    "regularity": (_regularity_row, ("--gamma",)),
    "metric": (_metric_row, ("--model-b",)),
    "tvfrob": (_tvfrob_row, ("--model-b",)),
    "gradconc": (_gradconc_row, ("--l",)),
}


def _cmd_diagnose(args) -> int:
    model = load_model(args.model)
    row, flags = PROBES[args.probe]
    if any(getattr(args, flag[2:].replace("-", "_")) is None for flag in flags):
        raise ConfigError(f"diagnose: {args.probe} probe needs {' and '.join(flags)}")
    _write_csv(args.out, [{"probe": args.probe, "n": model.n, **row(args, model)}])
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isingfit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw an interaction matrix from an ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="draw spin configurations from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--method", choices=("glauber", "exact"), default="glauber")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thinning", type=int, default=None)
    p.add_argument("--chains", type=int, default=None)
    p.add_argument("--alpha-hint", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="JSON file for run facts and split-R-hat")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="constrained pseudolikelihood fit from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--h", default="zero")
    p.add_argument("--constraint", default=None, help="inline JSON constraint block")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="error metrics between two model files")
    p.add_argument("--model-a", required=True, help="reference model")
    p.add_argument("--model-b", required=True, help="estimate")
    p.add_argument("--metrics", default="frobenius")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="generate/sample/fit/evaluate over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("diagnose", help="run a named structural probe")
    p.add_argument("--probe", required=True, choices=tuple(PROBES))
    p.add_argument("--model", required=True)
    p.add_argument("--model-b", default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--num", type=int, default=100)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--batches", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args.out, getattr(args, "report", None))
        return args.func(args)
    except (ParameterError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
