"""Command-line front end: generate, sample, fit, evaluate, sweep, diagnose.

Configuration lives in a single JSON document with blocks {ensemble,
constraint, optimizer, sampler, sweep}; command-line flags override file
values. Exit codes: 0 success, 1 runtime failure, 2 configuration error
(message names the offending field), 3 capability error (enumeration cap).

Sweep results are one CSV row per (l, seed) cell. Cells are pure functions of
the configuration and the cell seed, so a row can be reproduced by re-running
its cell alone; rows are sorted by their cell key before writing, which makes
serial and parallel runs produce identically ordered files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import sys

import numpy as np

from . import diagnostics, ensembles, exact, optimizer, projections, sampler
from .core import (
    CapabilityError,
    CouplingMatrix,
    IsingModel,
    ParameterError,
    ParseError,
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

SWEEP_METRICS = ("frobenius", "tv_exact", "kl_exact", "op_norm_err")


class ConfigError(ParameterError):
    pass


def _fmt_metric(v: float) -> str:
    return format(float(v), ".12g")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    return doc


def _require(block: dict, field: str, context: str):
    if field not in block:
        raise ConfigError(f"{context}.{field}: missing required field")
    return block[field]


def _ensemble_from_config(block) -> ensembles.EnsembleSpec:
    if not isinstance(block, dict):
        raise ConfigError("ensemble: must be an object")
    kind = _require(block, "kind", "ensemble")
    n = _require(block, "n", "ensemble")
    try:
        return ensembles.EnsembleSpec(
            kind=kind,
            n=int(n),
            beta=float(block.get("beta", 0.0)),
            d=int(block["d"]) if block.get("d") is not None else None,
            width=float(block["width"]) if block.get("width") is not None else None,
            seed=int(block.get("seed", 0)),
        )
    except (ParameterError, TypeError, ValueError) as e:
        raise ConfigError(f"ensemble: {e}")


def _constraint_from_config(block) -> projections.ConstraintSet:
    if not isinstance(block, dict):
        raise ConfigError("constraint: must be an object")
    kind = _require(block, "kind", "constraint")
    params = {k: v for k, v in block.items() if k != "kind"}
    try:
        return projections.ConstraintSet(kind=kind, **params)
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"constraint: {e}")


def _fit_config_from_config(block) -> optimizer.FitConfig:
    if block is None:
        return optimizer.FitConfig()
    if not isinstance(block, dict):
        raise ConfigError("optimizer: must be an object")
    allowed = {f.name for f in dataclasses.fields(optimizer.FitConfig)} - {"init"}
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"optimizer.{sorted(unknown)[0]}: unknown field")
    try:
        return optimizer.FitConfig(**block)
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"optimizer: {e}")


def _glauber_config(block, seed: int) -> sampler.GlauberConfig:
    block = {k: v for k, v in (block or {}).items() if v is not None}
    alpha = block.pop("alpha_hint", None)
    base = sampler.default_config(seed=seed, alpha=alpha)
    try:
        return sampler.GlauberConfig(
            burn_in_sweeps=int(block.get("burn_in_sweeps", base.burn_in_sweeps)),
            thinning_sweeps=int(block.get("thinning_sweeps", base.thinning_sweeps)),
            seed=seed,
            chains=int(block.get("chains", base.chains)),
        )
    except (ParameterError, TypeError, ValueError) as e:
        raise ConfigError(f"sampler: {e}")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    if "ensemble" not in cfg:
        raise ConfigError("ensemble: missing block in config")
    spec = _ensemble_from_config(cfg["ensemble"])
    model = ensembles.generate(spec)
    save_model(model, args.out)
    return 0


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.l < 1:
        raise ConfigError("l: must be >= 1")
    if args.method == "exact":
        batch = sampler.exact_sample(model, args.l, seed=args.seed)
    else:
        block = {"alpha_hint": args.alpha_hint, "burn_in_sweeps": args.burn_in,
                 "thinning_sweeps": args.thinning, "chains": args.chains}
        batch = sampler.glauber_sample(model, args.l, _glauber_config(block, args.seed))
    save_samples(batch, args.out)
    return 0


def _parse_field(arg: str, n: int) -> np.ndarray:
    if arg == "zero":
        return np.zeros(n)
    try:
        with open(arg) as fh:
            h = np.asarray(json.load(fh), dtype=np.float64)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        raise ConfigError(f"h: expected 'zero' or a JSON vector file ({e})")
    if h.shape != (n,):
        raise ConfigError(f"h: length {h.shape} does not match n={n}")
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
    constraint = _constraint_from_config(block)
    fit_cfg = _fit_config_from_config(cfg.get("optimizer"))
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
        }
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


def _pair_metrics(truth: IsingModel, est: IsingModel, metrics: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    delta = est.coupling.entries - truth.coupling.entries
    if "frobenius" in metrics:
        out["frobenius"] = float(np.linalg.norm(delta))
    if "op_norm_err" in metrics:
        out["op_norm_err"] = float(np.abs(np.linalg.eigvalsh(delta)).max())
    if "tv_exact" in metrics or "kl_exact" in metrics:
        p_est = exact.distribution(est)
        p_true = exact.distribution(truth)
        if "tv_exact" in metrics:
            out["tv_exact"] = exact.tv_distance(p_est, p_true)
        if "kl_exact" in metrics:
            out["kl_exact"] = exact.kl_divergence(p_est, p_true)
    return out


def _cmd_evaluate(args) -> int:
    truth = load_model(args.model_a)
    est = load_model(args.model_b)
    if truth.n != est.n:
        raise ConfigError(f"model-b: dimension {est.n} does not match model-a {truth.n}")
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for m in metrics:
        if m not in SWEEP_METRICS:
            raise ConfigError(f"metrics: unknown metric {m!r}")
    values = _pair_metrics(truth, est, metrics)
    lines = ["metric,value"] + [f"{m},{_fmt_metric(values[m])}" for m in metrics]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Sweep.
# ---------------------------------------------------------------------------

def _run_sweep_cell(payload: dict) -> dict:
    spec = _ensemble_from_config(payload["ensemble"])
    constraint = _constraint_from_config(payload["constraint"])
    fit_cfg = _fit_config_from_config(payload.get("optimizer"))
    l, seed = payload["l"], payload["seed"]
    model = ensembles.generate(spec)

    method = (payload.get("sampler") or {}).get(
        "method", "exact" if spec.n <= exact.DEFAULT_ENUM_CAP else "glauber"
    )
    if method == "exact":
        batch = sampler.exact_sample(model, l, seed=seed)
    elif method == "glauber":
        batch = sampler.glauber_sample(model, l, _glauber_config(payload.get("sampler"), seed))
    else:
        raise ConfigError(f"sampler.method: unknown method {method!r}")

    report = optimizer.fit_mple(batch, np.zeros(spec.n), constraint, fit_cfg)
    est = IsingModel.zero_field(report.estimate)
    values = _pair_metrics(model, est, payload["metrics"])

    row = {
        "ensemble": spec.kind,
        "n": str(spec.n),
        "beta": format(spec.beta, ".6g"),
        "d": str(spec.d) if spec.d is not None else "",
        "l": str(l),
        "seed": str(seed),
        "constraint": constraint.describe(),
        "iters": str(report.iterations),
        "wall_time": format(report.wall_time, ".6f"),
    }
    for metric in SWEEP_METRICS:
        column = "frob_err" if metric == "frobenius" else metric
        row[column] = _fmt_metric(values[metric]) if metric in values else ""
    return row


def _int_list(block: dict, field: str) -> list[int]:
    values = _require(block, field, "sweep")
    if isinstance(values, list):
        try:
            return [int(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"sweep.{field}: must be a list of integers")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    for block in ("ensemble", "constraint", "sweep"):
        if block not in cfg:
            raise ConfigError(f"{block}: missing block in config")
    if not isinstance(cfg.get("sampler", {}), (dict, type(None))):
        raise ConfigError("sampler: must be an object")
    sweep = cfg["sweep"]
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: must be an object")
    l_values = _int_list(sweep, "l_values")
    seeds = _int_list(sweep, "seeds")
    metrics = sweep.get("metrics", ["frobenius"])
    if not isinstance(metrics, list):
        raise ConfigError("sweep.metrics: must be a list of metric names")
    for m in metrics:
        if m not in SWEEP_METRICS:
            raise ConfigError(f"sweep.metrics: unknown metric {m!r}")
    spec = _ensemble_from_config(cfg["ensemble"])
    if ("tv_exact" in metrics or "kl_exact" in metrics) and spec.n > exact.DEFAULT_ENUM_CAP:
        raise CapabilityError(
            f"tv_exact/kl_exact need n <= enumeration cap {exact.DEFAULT_ENUM_CAP}, got n={spec.n}"
        )
    _constraint_from_config(cfg["constraint"])  # validate before launching cells

    payloads = [
        {
            "ensemble": cfg["ensemble"],
            "constraint": cfg["constraint"],
            "optimizer": cfg.get("optimizer"),
            "sampler": cfg.get("sampler"),
            "metrics": list(metrics),
            "l": l,
            "seed": seed,
        }
        for l in l_values
        for seed in seeds
    ]

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_run_sweep_cell, payloads))
    else:
        rows = [_run_sweep_cell(p) for p in payloads]

    # A cell is keyed by (l, seed); every other column is fixed within a sweep.
    rows.sort(key=lambda row: (int(row["l"]), int(row["seed"])))
    with open(args.out, "a") as fh:
        if fh.tell() == 0:  # append mode opens at the end: empty or new file
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in SWEEP_COLUMNS) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Diagnose.
# ---------------------------------------------------------------------------

def _write_row(out_path, header: list[str], row: list[str]) -> None:
    text = ",".join(header) + "\n" + ",".join(row) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_diagnose(args) -> int:
    model = load_model(args.model)
    if args.probe == "subset":
        if args.m is None or args.eta is None:
            raise ConfigError("diagnose: subset probe needs --m and --eta")
        dec = diagnostics.subset_decomposition(model.coupling, args.m, args.eta, seed=args.seed)
        problems = diagnostics.check_subset_decomposition(model.coupling, dec)
        _write_row(
            args.out,
            ["probe", "n", "r", "membership_count", "eta", "certified"],
            ["subset", str(model.n), str(dec.r), str(dec.membership_count),
             _fmt_metric(dec.eta), str(not problems).lower()],
        )
    elif args.probe == "regularity":
        if args.gamma is None:
            raise ConfigError("diagnose: regularity probe needs --gamma")
        rep = diagnostics.regularity_probe(
            model, args.gamma, num_perturbations=args.num, seed=args.seed
        )
        _write_row(
            args.out,
            ["probe", "n", "gamma", "directions", "excluded", "max_ratio"],
            ["regularity", str(model.n), _fmt_metric(rep.gamma_probe),
             str(len(rep.ratios)), str(rep.excluded), _fmt_metric(rep.max_ratio)],
        )
    elif args.probe == "metric":
        other = load_model(args.model_b)
        cmp = diagnostics.metric_comparison(model, other.coupling)
        _write_row(
            args.out,
            ["probe", "n", "e_jstar", "frob_sq", "ratio", "degenerate"],
            ["metric", str(model.n), _fmt_metric(cmp.e_jstar), _fmt_metric(cmp.frob_sq),
             "nan" if cmp.degenerate else _fmt_metric(cmp.ratio), str(cmp.degenerate).lower()],
        )
    elif args.probe == "tvfrob":
        other = load_model(args.model_b)
        rep = diagnostics.tv_frobenius_check(model, other)
        _write_row(
            args.out,
            ["probe", "n", "tv", "frob", "bound_ok", "kl", "pinsker_ok"],
            ["tvfrob", str(model.n), _fmt_metric(rep.tv), _fmt_metric(rep.frob),
             str(rep.bound_ok).lower(), _fmt_metric(rep.kl), str(rep.pinsker_ok).lower()],
        )
    else:  # gradconc
        if args.l is None:
            raise ConfigError("diagnose: gradconc probe needs --l")
        raw = np.triu(stream(args.seed, 0xD1).normal(size=(model.n, model.n)), k=1)
        direction = CouplingMatrix(raw + raw.T)
        rep = diagnostics.gradient_concentration_probe(
            model, direction, l=args.l, batches=args.batches, seed=args.seed
        )
        _write_row(
            args.out,
            ["probe", "n", "l", "batches", "mean", "std", "exceed1", "exceed2", "exceed4"],
            ["gradconc", str(model.n), str(args.l), str(args.batches),
             _fmt_metric(rep.mean), _fmt_metric(rep.std),
             _fmt_metric(rep.exceed_fraction[1.0]), _fmt_metric(rep.exceed_fraction[2.0]),
             _fmt_metric(rep.exceed_fraction[4.0])],
        )
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

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
    p.add_argument("--probe", required=True,
                   choices=("subset", "regularity", "metric", "tvfrob", "gradconc"))
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
        return args.func(args)
    except (ConfigError, ParameterError, ParseError) as e:
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
