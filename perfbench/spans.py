"""Benchmark-side instrumentation of the ``isingfit`` modules.

Nothing in the program changes. :class:`Instrumentation` replaces module
attributes with wrappers: the attribute a caller looks up at call time, so a call made
through the module (``mple.objective``, ``exact.distribution``) goes through
the wrapper. ``cli`` binds the file functions by name at import, so those are
wrapped as ``isingfit.cli.<name>``. Calls a module makes to its own functions
by name (``partition_function`` inside ``distribution``) stay invisible.

Two things can be installed:

- the fit recorder, always: it keeps each ``FitReport`` and the constraint it
  was fitted under, so the per-op check can read ``converged`` and test
  membership;
- the tracer, in traced runs only: one span per wrapped call, with name,
  start, end, parent span and op id, kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

# (module, attribute, span name). Order does not matter; nesting comes from
# the call stack at run time.
TRACED = [
    ("ensembles", "generate", "ensembles.generate"),
    ("sampler", "glauber_sample", "sampler.glauber"),
    ("sampler", "exact_sample", "sampler.exact"),
    ("exact", "distribution", "exact.distribution"),
    ("mple", "objective", "mple.objective"),
    ("mple", "objective_and_gradient", "mple.objective_and_gradient"),
    ("mple", "directional_derivatives", "mple.directional"),
    ("projections", "project_array", "projections"),
    ("optimizer", "fit_mple", "optimizer.fit"),
    ("diagnostics", "gradient_concentration_probe", "diagnostics.gradconc"),
    ("diagnostics", "regularity_probe", "diagnostics.regularity"),
    ("cli", "load_model", "core.load"),
    ("cli", "save_model", "core.save"),
    ("cli", "load_samples", "core.load"),
    ("cli", "save_samples", "core.save"),
]


def _attrs(name: str, args, result):
    """Cheap facts about a call, taken after its span has closed.

    Returns plain numbers, except for samplers, whose batch is kept so the
    distinct-row count can be taken after the run instead of inside an op.
    """
    if name == "projections":
        return {"kind": args[0].kind}
    if name.startswith("mple."):
        ctx = args[-1]  # every kernel takes the context last
        return {"l": ctx.l, "n": ctx.n}
    if name == "exact.distribution":
        return {"n": args[0].n}
    if name == "sampler.glauber":
        m, l, cfg = args
        chains = min(cfg.chains, l)
        rows = sum((l - c + chains - 1) // chains for c in range(chains))
        updates = m.n * (chains * cfg.burn_in_sweeps + rows * cfg.thinning_sweeps)
        return {"site_updates": updates, "batch": result}
    if name == "sampler.exact":
        return {"batch": result}
    if name == "optimizer.fit":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "core.load":
        return {"bytes": os.path.getsize(args[0])}
    if name == "core.save":
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
    index of the enclosing span or -1. ``op`` is the op id set by the caller
    (-1 for set-up and warm-up).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec[5] = _attrs(name, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                plain = {k: v for k, v in (attrs or {}).items() if k != "batch"}
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **plain}) + "\n")


class Instrumentation:
    """Installed wrappers and what they recorded; :meth:`remove` restores all."""

    def __init__(self, isingfit, tracer: Tracer | None) -> None:
        self.fits: list[tuple] = []
        self._saved: list[tuple] = []
        if tracer is not None:
            for mod_name, attr, span_name in TRACED:
                self._replace(getattr(isingfit, mod_name), attr,
                              lambda fn, s=span_name: tracer.wrap(s, fn))
        self._replace(isingfit.optimizer, "fit_mple", self._recorder)

    def _replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _recorder(self, fit_mple):
        fits = self.fits

        def recorded(samples, h, constraint, cfg=None):
            report = fit_mple(samples, h, constraint, cfg)
            fits.append((constraint, report))
            return report

        return recorded

    def take_fits(self) -> list[tuple]:
        fits = list(self.fits)
        self.fits.clear()
        return fits

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced run.
# ---------------------------------------------------------------------------

LAYERS = ("bench", "cli", "core", "ensembles", "sampler", "exact", "mple",
          "projections", "optimizer", "diagnostics")
FAMILIES = ("OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike")

# name -> (unit, better). Times ending in _s are per op; counts marked
# "exact" or "computed" in the doc are per op over the counted prefix.
PER_LAYER = {
    "projections.calls": ("count", "lower"),
    "projections.s": ("s", "lower"),
    **{f"projections.{f}.s_per_call": ("s", "lower") for f in FAMILIES},
    "projections.fit_share": ("ratio", "lower"),
    "projections.warnings": ("count", "lower"),
    "projections.membership_tol_max": ("1", "lower"),
    "mple.objective_calls": ("count", "lower"),
    "mple.objective_and_gradient_calls": ("count", "lower"),
    "mple.directional_calls": ("count", "lower"),
    "mple.objective_s": ("s", "lower"),
    "mple.objective_and_gradient_s": ("s", "lower"),
    "mple.directional_s": ("s", "lower"),
    "mple.flops": ("flop", "lower"),
    "mple.gflops_per_s": ("GFLOP/s", "higher"),
    "optimizer.fit_s": ("s", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.projections_per_iter": ("ratio", "lower"),
    "optimizer.objective_evals_per_iter": ("ratio", "lower"),
    "optimizer.converged_frac": ("ratio", "higher"),
    "sampler.glauber_s": ("s", "lower"),
    "sampler.site_updates": ("count", "lower"),
    "sampler.site_updates_per_s": ("updates/s", "higher"),
    "sampler.exact_s": ("s", "lower"),
    "sampler.distinct_row_frac": ("ratio", "lower"),
    "exact.distribution_calls": ("count", "lower"),
    "exact.distribution_s": ("s", "lower"),
    "exact.states": ("count", "lower"),
    "exact.states_per_s": ("states/s", "higher"),
    "diagnostics.gradconc_s": ("s", "lower"),
    "diagnostics.regularity_s": ("s", "lower"),
    "diagnostics.self_s": ("s", "lower"),
    "core.io_s": ("s", "lower"),
    "core.io_bytes": ("bytes", "lower"),
    "ensembles.generate_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    **{f"share.{layer}": ("ratio", "lower") for layer in LAYERS},
    "trace.ops_per_s": ("ops/s", "higher"),
    "trace.op_s_p50": ("s", "lower"),
    "trace.op_s_tail": ("s", "lower"),
    "trace.tail_pct": ("%", "higher"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.fail_frac": ("ratio", "lower"),
    "quality.frob_err_p50": ("1", "lower"),
}

# Counts that must repeat exactly for a fixed seed; the computed ones follow.
EXACT_COUNTS = ("optimizer.iterations", "projections.calls", "mple.objective_calls",
                "mple.objective_and_gradient_calls", "mple.directional_calls",
                "exact.distribution_calls", "trace.spans")
COMPUTED_COUNTS = ("mple.flops", "exact.states", "sampler.site_updates", "core.io_bytes")

# Nominal floating-point work of one call, in units of l * n^2: the matrix
# products each kernel performs, counted as if the J X cache never hit.
_FLOPS_PER_LN2 = {"mple.objective": 2, "mple.objective_and_gradient": 4,
                  "mple.directional": 4}


def layer_of(name: str) -> str:
    return {"op": "bench", "cli.main": "cli"}.get(name, name.split(".")[0])


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def summarize(tracer: Tracer, n_ops: int, counted: int) -> dict[str, float]:
    """Layer metrics over ops 0..n_ops-1; counts over ops 0..counted-1."""
    import numpy as np

    total: dict[str, float] = {}  # over all timed ops
    prefix: dict[str, float] = {}  # over the counted prefix

    def add(d, key, v):
        d[key] = d.get(key, 0.0) + v

    distinct = rows = 0
    fits = converged = 0
    for (name, start, end, _, op, attrs), self_t in zip(tracer.spans, tracer.self_times()):
        if op < 0:
            continue
        dur = end - start
        add(total, "layer:" + layer_of(name), self_t)
        add(total, "self:" + name, self_t)
        add(total, "dur:" + name, dur)
        if name == "projections":
            add(total, "dur:projections." + attrs["kind"], dur)
            add(total, "calls:projections." + attrs["kind"], 1)
        if name == "optimizer.fit":
            fits += 1
            converged += bool(attrs["converged"])
        if op >= counted:
            continue
        add(prefix, "spans", 1)
        add(prefix, "calls:" + name, 1)
        add(prefix, "dur:" + name, dur)
        if name in _FLOPS_PER_LN2:
            add(prefix, "flops", _FLOPS_PER_LN2[name] * attrs["l"] * attrs["n"] ** 2)
        elif name == "exact.distribution":
            add(prefix, "states", 2 ** attrs["n"])
        elif name == "sampler.glauber":
            add(prefix, "site_updates", attrs["site_updates"])
        elif name == "optimizer.fit":
            add(prefix, "iterations", attrs["iterations"])
        elif name.startswith("core."):
            add(prefix, "io_bytes", attrs["bytes"])
        if name.startswith("sampler."):
            spins = attrs["batch"].spins
            rows += spins.shape[0]
            distinct += np.unique(spins, axis=0).shape[0]

    def per_op(key):
        return total.get(key, 0.0) / n_ops

    def count(key):
        return prefix.get(key, 0.0) / counted

    op_time = total.get("dur:op", 0.0)
    mple_names = tuple(_FLOPS_PER_LN2)
    iterations = prefix.get("iterations", 0.0)
    m = {
        "projections.calls": count("calls:projections"),
        "projections.s": per_op("dur:projections"),
        **{f"projections.{f}.s_per_call": _div(total.get(f"dur:projections.{f}", 0.0),
                                               total.get(f"calls:projections.{f}", 0.0))
           for f in FAMILIES},
        "projections.fit_share": _div(total.get("dur:projections", 0.0),
                                      total.get("dur:optimizer.fit", 0.0)),
        "mple.objective_calls": count("calls:mple.objective"),
        "mple.objective_and_gradient_calls": count("calls:mple.objective_and_gradient"),
        "mple.directional_calls": count("calls:mple.directional"),
        "mple.objective_s": per_op("dur:mple.objective"),
        "mple.objective_and_gradient_s": per_op("dur:mple.objective_and_gradient"),
        "mple.directional_s": per_op("dur:mple.directional"),
        "mple.flops": count("flops"),
        "mple.gflops_per_s": _div(prefix.get("flops", 0.0),
                                  sum(prefix.get("dur:" + k, 0.0) for k in mple_names)) / 1e9,
        "optimizer.fit_s": per_op("dur:optimizer.fit"),
        "optimizer.self_s": per_op("self:optimizer.fit"),
        "optimizer.iterations": count("iterations"),
        "optimizer.projections_per_iter": _div(prefix.get("calls:projections", 0.0), iterations),
        "optimizer.objective_evals_per_iter": _div(
            prefix.get("calls:mple.objective", 0.0)
            + prefix.get("calls:mple.objective_and_gradient", 0.0), iterations),
        "optimizer.converged_frac": _div(converged, fits),
        "sampler.glauber_s": per_op("self:sampler.glauber"),
        "sampler.site_updates": count("site_updates"),
        "sampler.site_updates_per_s": _div(prefix.get("site_updates", 0.0),
                                           prefix.get("dur:sampler.glauber", 0.0)),
        "sampler.exact_s": per_op("self:sampler.exact"),
        "sampler.distinct_row_frac": _div(distinct, rows),
        "exact.distribution_calls": count("calls:exact.distribution"),
        "exact.distribution_s": per_op("dur:exact.distribution"),
        "exact.states": count("states"),
        "exact.states_per_s": _div(prefix.get("states", 0.0),
                                   prefix.get("dur:exact.distribution", 0.0)),
        "diagnostics.gradconc_s": per_op("dur:diagnostics.gradconc"),
        "diagnostics.regularity_s": per_op("dur:diagnostics.regularity"),
        "diagnostics.self_s": per_op("layer:diagnostics"),
        "core.io_s": per_op("layer:core"),
        "core.io_bytes": count("io_bytes"),
        "ensembles.generate_s": per_op("dur:ensembles.generate"),
        "cli.self_s": per_op("layer:cli"),
        "bench.self_s": per_op("layer:bench"),
        **{f"share.{layer}": _div(total.get("layer:" + layer, 0.0), op_time) for layer in LAYERS},
        "trace.spans": count("spans"),
    }
    return m


def span_cost_s(calls: int = 100_000) -> float:
    """Time one traced call adds to a plain call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("bench.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls
