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
    """Samples plus field, with a cached J X workspace.

    The row-product matrix M[k, i] = J_i X^(k) + h_i costs O(l n^2) and is
    shared between the objective and the gradient, and the objective value
    is cached with it, so a gradient taken where the value was just computed
    does not recompute it. The cache is keyed on the identity of the
    coupling array, which is safe because CouplingMatrix entries are frozen
    read-only.
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
        self._cached_entries: np.ndarray | None = None
        self._cached_m: np.ndarray | None = None
        self._cached_value: float | None = None

    @property
    def l(self) -> int:
        return self.samples.l

    @property
    def n(self) -> int:
        return self.samples.n

    def _check(self, J: CouplingMatrix) -> np.ndarray:
        if J.n != self.n:
            raise ValidationError(f"dimension mismatch: J is {J.n}, samples are {self.n}")
        return J.entries

    def fields_matrix(self, J: CouplingMatrix) -> np.ndarray:
        """M with M[k, i] = J_i X^(k) + h_i."""
        entries = self._check(J)
        if self._cached_entries is not entries:
            self._cached_m = self.x @ entries + self.field
            self._cached_entries = entries
            self._cached_value = None
        return self._cached_m

    def value(self, J: CouplingMatrix) -> float:
        """phi(J), computed once per cached M."""
        m = self.fields_matrix(J)
        if self._cached_value is None:
            self._cached_value = float(np.sum(_logcosh(m) - self.x * m + np.log(2.0)))
        return self._cached_value


def _raw_gradient(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> np.ndarray:
    """Gradient entry (i, j):
    sum_k (tanh(J_i X + h_i) - X_i) X_j + (tanh(J_j X + h_j) - X_j) X_i.
    """
    r = np.tanh(ctx.fields_matrix(J)) - ctx.x
    g = r.T @ ctx.x
    g = g + g.T
    np.fill_diagonal(g, 0.0)
    return g


def objective(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> float:
    return ctx.value(J)


def gradient(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> CouplingMatrix:
    """Symmetric zero-diagonal matrix of d phi / d J_ij over the upper triangle."""
    return CouplingMatrix(_raw_gradient(J, ctx))


def objective_and_gradient(
    J: CouplingMatrix, ctx: PseudolikelihoodContext
) -> tuple[float, np.ndarray]:
    """Objective and raw gradient array (optimizer hot path); the value is
    reused when ``objective`` was just called at the same J."""
    return ctx.value(J), _raw_gradient(J, ctx)


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
