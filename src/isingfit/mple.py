"""Negative log-pseudolikelihood: value, gradient, directional derivatives.

For samples X^(1..l) and known field h, the objective is

    phi(J) = sum_k sum_i [ logcosh(J_i X^(k) + h_i)
                           - X_i^(k) (J_i X^(k) + h_i) + log 2 ]

which is convex in J. The free parameters are the n(n-1)/2 upper-triangle
entries; the gradient entry (i, j) is the total derivative of phi with
respect to the single symmetric parameter J_ij = J_ji.

Directional derivatives follow the convention that carries a 1/2 prefactor:

    first(J; A)  = 1/2 sum_k sum_i (A_i X^(k)) (tanh(J_i X^(k) + h_i) - X_i^(k))
    second(J; A) = 1/2 sum_k sum_i (A_i X^(k))^2 sech^2(J_i X^(k) + h_i)

so first is exactly half the plain line derivative d/dt phi(J + tA), and
<grad, A> over the upper triangle equals 2 * first. Both relations are pinned
by tests.

The kernel keeps no cache: each call builds M = X J + h once from its J, and
objective_and_gradient returns the value and the gradient from that one M.
"""

from __future__ import annotations

import numpy as np

from .core import CouplingMatrix, SampleBatch, ValidationError

__all__ = [
    "PseudolikelihoodContext",
    "objective",
    "gradient",
    "directional_derivatives",
    "upper_inner",
]


def _logcosh(u: np.ndarray) -> np.ndarray:
    # logcosh(u) = |u| + log1p(exp(-2|u|)) - log 2, stable for large |u|
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def upper_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product over the strict upper triangle (the free parameters)."""
    iu = np.triu_indices(a.shape[0], k=1)
    return float(a[iu] @ b[iu])


class PseudolikelihoodContext:
    """Samples as a float array plus the known field.

    Holds no state beyond its inputs: every kernel call builds the row-product
    matrix M[k, i] = J_i X^(k) + h_i, which costs O(l n^2), once and derives
    what it returns from it.
    """

    def __init__(self, samples: SampleBatch, field=None) -> None:
        self.samples = samples
        self.x = samples.as_float()
        if field is None:
            field = np.zeros(samples.n)
        self.field = np.asarray(field, dtype=np.float64)
        if self.field.shape != (samples.n,):
            raise ValidationError(
                f"field length mismatch: expected {samples.n}, got {self.field.shape}"
            )

    @property
    def l(self) -> int:
        return self.samples.l

    @property
    def n(self) -> int:
        return self.samples.n

    def fields_matrix(self, J: CouplingMatrix) -> np.ndarray:
        """M with M[k, i] = J_i X^(k) + h_i."""
        if J.n != self.n:
            raise ValidationError(f"dimension mismatch: J is {J.n}, samples are {self.n}")
        return self.x @ J.entries + self.field


def _value(m: np.ndarray, ctx: PseudolikelihoodContext) -> float:
    return float(np.sum(_logcosh(m) - ctx.x * m + np.log(2.0)))


def _raw_gradient(m: np.ndarray, ctx: PseudolikelihoodContext) -> np.ndarray:
    """Gradient entry (i, j):
    sum_k (tanh(J_i X + h_i) - X_i) X_j + (tanh(J_j X + h_j) - X_j) X_i.
    """
    r = np.tanh(m) - ctx.x
    g = r.T @ ctx.x
    g = g + g.T
    np.fill_diagonal(g, 0.0)
    return g


def objective(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> float:
    return _value(ctx.fields_matrix(J), ctx)


def gradient(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> CouplingMatrix:
    """Symmetric zero-diagonal matrix of d phi / d J_ij over the upper triangle."""
    return CouplingMatrix(_raw_gradient(ctx.fields_matrix(J), ctx))


def objective_and_gradient(
    J: CouplingMatrix, ctx: PseudolikelihoodContext
) -> tuple[float, np.ndarray]:
    """Objective and raw gradient array from one M (the optimizer hot path)."""
    m = ctx.fields_matrix(J)
    return _value(m, ctx), _raw_gradient(m, ctx)


def directional_derivatives(
    J: CouplingMatrix, A: CouplingMatrix, ctx: PseudolikelihoodContext
) -> tuple[float, float]:
    """(first, second) derivatives at J in direction A, with the 1/2 prefactor."""
    m = ctx.fields_matrix(J)
    if A.n != ctx.n:
        raise ValidationError(f"dimension mismatch: A is {A.n}, samples are {ctx.n}")
    b = ctx.x @ A.entries
    t = np.tanh(m)
    first = 0.5 * float(np.sum(b * (t - ctx.x)))
    second = 0.5 * float(np.sum(b * b * (1.0 - t * t)))
    return first, second
