"""Projected gradient descent for the constrained pseudolikelihood estimate.

The loop minimizes the objective normalized by n*l (so step sizes and
tolerances are dimension-free), with Armijo backtracking on the projection
arc: J_next = project(J - eta * grad). The gradient used here is the
Frobenius-metric gradient, i.e. half the upper-triangle total-derivative
matrix, which makes <grad, J_next - J> the correct first-order model for
symmetric perturbations.

Stopping: the gradient-mapping norm ||J - project(J - eta grad)||_F / eta,
reported on the unnormalized scale (multiplied back by n*l), falls below
grad_map_tol. At interior points the gradient mapping equals the norm of the
raw upper-triangle gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import mple, projections
from .core import CouplingMatrix, ParameterError, SampleBatch, is_int, is_real

__all__ = ["FitConfig", "FitReport", "fit_mple"]

_ARMIJO = 1e-4  # sufficient-decrease constant; the search starts at 1 and halves
_STEP_FLOOR = 1e-18


@dataclass(frozen=True)
class FitConfig:
    max_iters: int = 2000
    grad_map_tol: float | None = None  # default 1e-6 * n * l, set at fit time
    init: CouplingMatrix | None = None  # None means the zero matrix

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
        return CouplingMatrix(projections.project_array(constraint, arr))

    start = cfg.init.entries if cfg.init is not None else np.zeros((n, n))
    J = proj(start)

    f_unnorm, g_raw = mple.objective_and_gradient(J, ctx)
    report = FitReport(estimate=J, iterations=0)
    report.objective_trace.append(f_unnorm)
    best_val, best_J = f_unnorm, J

    for it in range(cfg.max_iters):
        if not np.isfinite(f_unnorm):
            raise ArithmeticError(f"objective became non-finite at iteration {it}")
        f = f_unnorm / scale
        g = g_raw / (2.0 * scale)  # Frobenius-metric gradient of the normalized objective

        step = 1.0
        accepted = None
        while step >= _STEP_FLOOR:
            cand = proj(J.entries - step * g)
            cand_val = mple.objective(cand, ctx)
            decrease = float(np.sum(g * (cand.entries - J.entries)))
            if cand_val / scale <= f + _ARMIJO * decrease:
                accepted = (cand, cand_val)
                break
            step *= 0.5

        if accepted is None:
            # step underflow: projection and gradient disagree, bail out
            report.converged = False
            break

        cand, cand_val = accepted
        grad_map = float(np.linalg.norm(cand.entries - J.entries)) / step
        report.grad_map_trace.append(grad_map * 2.0 * scale)
        J = cand
        report.objective_trace.append(cand_val)
        report.iterations = it + 1
        if cand_val < best_val:
            best_val, best_J = cand_val, J
        f_unnorm, g_raw = mple.objective_and_gradient(J, ctx)
        if report.grad_map_trace[-1] <= grad_map_tol:
            report.converged = True
            break

    report.estimate = best_J
    report.wall_time = time.perf_counter() - t_start
    return report
