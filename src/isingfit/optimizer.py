"""Spectral projected gradient for the constrained pseudolikelihood estimate.

The loop minimizes the objective normalized by n*l (so step sizes and
tolerances are dimension-free), with monotone Armijo backtracking on the
projection arc: J_next = project(J - t * grad). The gradient used here is the
Frobenius-metric gradient, i.e. half the upper-triangle total-derivative
matrix, which makes <grad, J_next - J> the correct first-order model for
symmetric perturbations.

Step: each search starts at the Barzilai-Borwein step <s, s> / <s, y>, with
s = J_k - J_{k-1} and y the change of the gradient (Birgin, Martinez and
Raydan 2000), clamped to [1e-10, 1e10]; it starts at 1 on the first iteration
and whenever <s, y> <= 0. The search halves the step until the Armijo test
holds. Each projected trial point is evaluated once, value and gradient
together, so an accepted trial carries its gradient into the next iteration.

Stopping: the gradient mapping G_t(J) = (J - project(J - t grad)) / t. At an
interior point G_1 is the raw upper-triangle gradient. ||G_t|| is
nonincreasing in t and t ||G_t|| nondecreasing, so the accepted step t gives
||G_1|| <= ||J_next - J||_F / min(t, 1). That bound, reported on the
unnormalized scale (multiplied back by 2*n*l), is what grad_map_trace records
and what is compared with grad_map_tol; the stop certifies the unit-step
gradient mapping whatever the step size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import mple, projections
from .core import CouplingMatrix, ParameterError, SampleBatch, is_int, is_real

__all__ = ["FitConfig", "FitReport", "fit_mple"]

_ARMIJO = 1e-4  # sufficient-decrease constant; each search halves from its start step
_STEP_MIN, _STEP_MAX = 1e-10, 1e10  # clamp of the Barzilai-Borwein start step
_STEP_FLOOR = 1e-18


@dataclass(frozen=True)
class FitConfig:
    max_iters: int = 2000
    grad_map_tol: float | None = None  # default 1e-6 * n * l, set at fit time

    def __post_init__(self):
        if not is_int(self.max_iters) or self.max_iters < 1:
            raise ParameterError("max_iters must be an integer >= 1")
        tol = self.grad_map_tol
        if tol is not None and not (is_real(tol) and 0 < tol < np.inf):
            raise ParameterError("grad_map_tol must be a positive finite number")


@dataclass
class FitReport:
    estimate: CouplingMatrix
    iterations: int
    objective_trace: list[float] = field(default_factory=list)
    grad_map_trace: list[float] = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    stop_reason: str = "max_iters"  # or "grad_map", "step_underflow", "non_finite"
    projections: int = 0  # project_array calls, the initial one included


# An overflow is no error here: a non-finite value fails the Armijo test, or
# at the start point ends the fit with stop reason "non_finite".
@np.errstate(over="ignore", invalid="ignore")
def fit_mple(
    samples: SampleBatch,
    h,
    constraint: projections.ConstraintSet,
    cfg: FitConfig | None = None,
) -> FitReport:
    """Minimize the negative log-pseudolikelihood over the constraint set."""
    if cfg is None:
        cfg = FitConfig()
    t_start = time.perf_counter()
    ctx = mple.PseudolikelihoodContext(samples, h)
    n, l = ctx.n, ctx.l
    scale = float(n * l)
    grad_map_tol = cfg.grad_map_tol if cfg.grad_map_tol is not None else 1e-6 * scale

    def proj(arr: np.ndarray) -> CouplingMatrix:
        report.projections += 1
        return CouplingMatrix(projections.project_array(constraint, arr)[0])

    report = FitReport(estimate=None, iterations=0)
    J = proj(np.zeros((n, n)))

    f_unnorm, g_raw = mple.objective_and_gradient(J, ctx)
    report.objective_trace.append(f_unnorm)
    start_step = 1.0

    for it in range(cfg.max_iters):
        if not np.isfinite(f_unnorm):
            report.stop_reason = "non_finite"
            break
        f = f_unnorm / scale
        g = g_raw / (2.0 * scale)  # Frobenius-metric gradient of the normalized objective

        step = start_step
        while step >= _STEP_FLOOR:
            cand = proj(J.entries - step * g)
            cand_val, cand_g = mple.objective_and_gradient(cand, ctx)
            s = cand.entries - J.entries
            if cand_val / scale <= f + _ARMIJO * float(np.sum(g * s)):
                break
            step *= 0.5
        else:
            # step underflow: projection and gradient disagree, bail out
            report.stop_reason = "step_underflow"
            break

        grad_map = float(np.linalg.norm(s)) / min(step, 1.0)
        report.grad_map_trace.append(grad_map * 2.0 * scale)
        J, f_unnorm, g_raw = cand, cand_val, cand_g
        report.objective_trace.append(f_unnorm)
        report.iterations = it + 1
        if report.grad_map_trace[-1] <= grad_map_tol:
            report.converged = True
            report.stop_reason = "grad_map"
            break
        sy = float(np.sum(s * (g_raw / (2.0 * scale) - g)))
        start_step = min(max(float(np.sum(s * s)) / sy, _STEP_MIN), _STEP_MAX) if sy > 0 else 1.0

    report.estimate = J
    report.wall_time = time.perf_counter() - t_start
    return report
