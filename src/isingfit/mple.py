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

The samples enter only through the distinct rows and their counts, so when
2^n <= l the context folds the batch into distinct rows x with counts w, and
every sum over k is a w-weighted sum over x. The fold rule (_fold) and the
first derivative (_first) are helpers that a caller holding state indices, the
gradconc probe, uses without building a context. The kernel keeps no cache:
each call builds M = x J + h once from its J, and objective_and_gradient
returns the value and the gradient from that one M. Their (rows, n)
temporaries go to one scratch block per context, made at the first value or
gradient call.
"""

from __future__ import annotations

import functools

import numpy as np

from . import exact
from .core import CouplingMatrix, SampleBatch, ValidationError

__all__ = [
    "PseudolikelihoodContext",
    "objective",
    "gradient",
    "directional_derivatives",
    "upper_inner",
]


def _logcosh(u: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # logcosh(u) = |u| + log1p(exp(-2|u|)) - log 2, stable for large |u|, into out
    a = np.abs(u, out=out)
    t = np.log1p(np.exp(np.multiply(-2.0, a, out=tmp), out=tmp), out=tmp)
    return np.subtract(np.add(a, t, out=out), np.log(2.0), out=out)


def upper_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product over the strict upper triangle (the free parameters)."""
    iu = np.triu_indices(a.shape[0], k=1)
    return float(a[iu] @ b[iu])


def _fold(n: int, l: int, indices, rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows x and float weights w that stand for a batch of l samples on n sites.

    When 1 << n <= l the batch folds, by one bincount of its state indices
    ``indices()``, into its distinct states with their counts: at n = 8, l = 4000
    (249 distinct rows) that takes 95 us once and cuts objective_and_gradient
    from 644 to 46 us (2 vCPUs, one BLAS thread). At 2^n > l x is ``rows()``, the
    float rows in draw order, and w = 1: the table would outgrow the sample, and
    np.unique (50-140 us per context at n = 16 to 30) would cost more than it
    saves where rows hardly repeat. Both arguments are callables, so only the
    form the rule picks is built.
    """
    if 1 << n <= l:
        counts = np.bincount(indices(), minlength=1 << n)
        kept = np.flatnonzero(counts)
        return exact.states(kept, n), counts[kept].astype(np.float64)
    return rows(), np.ones(l)


class PseudolikelihoodContext:
    """Rows x and float weights w standing for the samples (see :func:`_fold`),
    wx = x * w, and h. l and n are the sample's."""

    def __init__(self, samples: SampleBatch, field=None) -> None:
        self.samples = samples
        n, l = samples.n, samples.l
        self.x, self.w = _fold(n, l, lambda: exact.encode_spins(samples.spins),
                               samples.as_float)
        # l rows have unit weights, folded or not, so x serves as wx without a copy
        self.wx = self.x if self.w.size == l else self.x * self.w[:, None]
        if field is None:
            field = np.zeros(n)
        self.field = np.asarray(field, dtype=np.float64)
        if self.field.shape != (n,):
            raise ValidationError(f"field length mismatch: expected {n}, got {self.field.shape}")

    @property
    def l(self) -> int:
        return self.samples.l

    @property
    def n(self) -> int:
        return self.samples.n

    def fields_matrix(self, J: CouplingMatrix, out: np.ndarray | None = None) -> np.ndarray:
        """M with M[k, i] = J_i x^(k) + h_i, one row per row of x: a new array the
        caller owns, or ``out`` (shape x.shape) overwritten and returned."""
        if J.n != self.n:
            raise ValidationError(f"dimension mismatch: J is {J.n}, samples are {self.n}")
        return np.add(np.matmul(self.x, J.entries, out=out), self.field, out=out)

    @functools.cached_property
    def _work(self) -> np.ndarray:
        """(3, rows, n) scratch, made at first use, holding no result: one kernel call at a time."""
        return np.empty((3,) + self.x.shape)


def _value(m: np.ndarray, ctx: PseudolikelihoodContext, a: np.ndarray, b: np.ndarray) -> float:
    d = np.subtract(_logcosh(m, a, b), np.multiply(ctx.x, m, out=b), out=a)
    return float((ctx.w @ d).sum()) + ctx.l * ctx.n * np.log(2.0)


def _raw_gradient(m: np.ndarray, ctx: PseudolikelihoodContext, r: np.ndarray) -> np.ndarray:
    """Gradient entry (i, j):
    sum_k (tanh(J_i X + h_i) - X_i) X_j + (tanh(J_j X + h_j) - X_j) X_i.
    """
    r = np.subtract(np.tanh(m, out=r), ctx.x, out=r)
    g = r.T @ ctx.wx
    g = g + g.T
    np.fill_diagonal(g, 0.0)
    return g


def objective(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> float:
    m, a, b = ctx._work
    return _value(ctx.fields_matrix(J, m), ctx, a, b)


def gradient(J: CouplingMatrix, ctx: PseudolikelihoodContext) -> CouplingMatrix:
    """Symmetric zero-diagonal matrix of d phi / d J_ij over the upper triangle."""
    m, r, _ = ctx._work
    return CouplingMatrix(_raw_gradient(ctx.fields_matrix(J, m), ctx, r))


def objective_and_gradient(
    J: CouplingMatrix, ctx: PseudolikelihoodContext
) -> tuple[float, np.ndarray]:
    """Objective and raw gradient array from one M (the optimizer hot path)."""
    m, a, b = ctx._work
    m = ctx.fields_matrix(J, m)
    return _value(m, ctx, a, b), _raw_gradient(m, ctx, a)


def _first(J: np.ndarray, A: np.ndarray, x: np.ndarray, w: np.ndarray,
           field: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """first(J; A) over rows x with weights w, and the b = x A and t = tanh(x J + h)
    it was taken from."""
    b = x @ A
    t = np.matmul(x, J)
    np.tanh(np.add(t, field, out=t), out=t)
    return 0.5 * float((w @ (np.subtract(t, x) * b)).sum()), b, t


def directional_derivatives(
    J: CouplingMatrix, A: CouplingMatrix, ctx: PseudolikelihoodContext
) -> tuple[float, float]:
    """(first, second) derivatives at J in direction A, with the 1/2 prefactor."""
    for name, mat in (("J", J), ("A", A)):
        if mat.n != ctx.n:
            raise ValidationError(f"dimension mismatch: {name} is {mat.n}, samples are {ctx.n}")
    first, b, t = _first(J.entries, A.entries, ctx.x, ctx.w, ctx.field)
    return first, 0.5 * float((ctx.w @ (b * b * (1.0 - t * t))).sum())
