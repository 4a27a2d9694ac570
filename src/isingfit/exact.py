"""Brute-force evaluators over all 2^n spin configurations.

State index convention: state ``s`` encodes the configuration whose site ``i``
carries spin ``+1`` iff bit ``i`` of ``s`` is set (bit 0 = site 0). Log weights
and moment tables come from one kernel, :func:`quadratic_table`, which splits
the sites into a low half (the low bits of ``s``) and a high half, so a table is
a (2^high, 2^low) array whose row-major layout is the state order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CapabilityError,
    CouplingMatrix,
    IsingModel,
    ParameterError,
    ValidationError,
    stream,
)
from .mple import _logcosh

DEFAULT_ENUM_CAP = 20
DEFAULT_CHAIN_CAP = 8  # dense 2^n x 2^n eigenproblem


def _check_cap(n: int, what: str, cap: int = DEFAULT_ENUM_CAP) -> None:
    if n > cap:
        raise CapabilityError(
            f"{what} needs full enumeration of 2^{n} states, above the "
            f"enumeration cap {cap}"
        )


def states(idx, n: int) -> np.ndarray:
    """Float +-1 configurations of the given state indices, one row each."""
    bits = (np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return 2.0 * bits - 1.0


def all_states(n: int) -> np.ndarray:
    """(2^n, n) array of spin configurations, row s = configuration s."""
    return states(np.arange(1 << n), n)


def encode_spins(spins) -> np.ndarray:
    """Map rows of a {-1,+1} array to their state indices."""
    s = np.asarray(spins)
    bits = (s > 0).astype(np.int64)
    return bits @ (1 << np.arange(s.shape[1], dtype=np.int64))


def quadratic_table(Q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """x^T Q x / 2 + h . x for every state x, in state-index order (Q symmetric).

    With a the low half of the sites and b the high half, the table is the cross
    term x_b^T Q_ba x_a, one (2^|b|, |a|) x (|a|, 2^|a|) product, plus each
    half's own table broadcast along its axis.
    """
    k = h.size // 2
    Sa, Sb = all_states(k), all_states(h.size - k)
    table = (Sb @ Q[k:, :k]) @ Sa.T
    table += (0.5 * ((Sb @ Q[k:, k:]) * Sb).sum(axis=1) + Sb @ h[k:])[:, None]
    table += (0.5 * ((Sa @ Q[:k, :k]) * Sa).sum(axis=1) + Sa @ h[:k])[None, :]
    return table.reshape(-1)


def normalize(log_weights: np.ndarray) -> float:
    """Turn a table of log weights into probabilities in place; returns log Z."""
    top = float(log_weights.max())
    np.exp(np.subtract(log_weights, top, out=log_weights), out=log_weights)
    total = float(log_weights.sum())
    log_weights /= total
    return top + float(np.log(total))


@dataclass(frozen=True)
class DistributionTable:
    """Probability table over all 2^n states, indexed as in :func:`all_states`."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (1 << self.n,):
            raise ValidationError("probability table has wrong length")
        if np.any(self.probs < 0):
            raise ValidationError("negative probability entry")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValidationError("probability table does not sum to 1")


def draw(table: DistributionTable, u) -> np.ndarray:
    """State index for each uniform in ``u``, by inverse CDF over ``table``."""
    idx = np.searchsorted(np.cumsum(table.probs), u, side="right")
    return np.minimum(idx, table.probs.size - 1)  # cumsum rounding can end below 1


def partition_function(m: IsingModel) -> float:
    """log Z, from the table that :func:`distribution` also builds."""
    _check_cap(m.n, "partition function")
    return normalize(quadratic_table(m.coupling.entries, m.field))


def distribution(m: IsingModel) -> DistributionTable:
    _check_cap(m.n, "distribution table")
    table = quadratic_table(m.coupling.entries, m.field)
    normalize(table)
    return DistributionTable(n=m.n, probs=table)


def tv_distance(p: DistributionTable, q: DistributionTable) -> float:
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    diff = np.subtract(p.probs, q.probs)
    return 0.5 * float(np.abs(diff, out=diff).sum())


def kl_divergence(p: DistributionTable, q: DistributionTable) -> float:
    """sum p log(p/q) with the 0 log 0 = 0 convention."""
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    support = p.probs > 0
    log_q = q.probs[support]
    if np.any(log_q == 0):
        raise ValidationError("q vanishes on the support of p")
    terms = np.log(p.probs[support])  # in place, so at most three 2^n arrays are alive
    terms -= np.log(log_q, out=log_q)
    terms *= p.probs[support]
    return max(float(terms.sum()), 0.0)


@dataclass(frozen=True)
class MomentSummary:
    mean_vec: np.ndarray  # E[A X]
    second: float  # E[||A X||^2]
    quad_mean: float  # E[x^T A x]
    quad_var: float  # Var(x^T A x)


def moments(m: IsingModel, A: CouplingMatrix) -> MomentSummary:
    """Exact expectations of AX statistics under the model distribution."""
    if A.n != m.n:
        raise ValidationError(f"dimension mismatch: {A.n} vs {m.n}")
    a = A.entries
    p = distribution(m).probs
    # E[X] from the marginals of the two halves; rows of p2 index the high half
    p2 = p.reshape(1 << (m.n - m.n // 2), -1)
    mean_x = np.r_[all_states(m.n // 2).T @ p2.sum(axis=0),
                   all_states(m.n - m.n // 2).T @ p2.sum(axis=1)]
    quad = quadratic_table(2.0 * a, np.zeros(m.n))  # x^T A x
    quad_mean = float(p @ quad)
    quad_sq = float(p @ np.square(quad, out=quad))
    return MomentSummary(
        mean_vec=a @ mean_x,
        second=float(p @ quadratic_table(2.0 * (a @ a), np.zeros(m.n))),  # ||A x||^2
        quad_mean=quad_mean,
        quad_var=max(quad_sq - quad_mean**2, 0.0),
    )


# ---------------------------------------------------------------------------
# Single-site heat-bath chain (uniform random site per step).
# ---------------------------------------------------------------------------

def glauber_transition_matrix(m: IsingModel) -> np.ndarray:
    """Dense 2^n x 2^n transition matrix of the uniform-site resampling chain."""
    _check_cap(m.n, "transition matrix", DEFAULT_CHAIN_CAP)
    n = m.n
    J, h = m.coupling.entries, m.field
    S = all_states(n)
    N = 1 << n
    P = np.zeros((N, N))
    for i in range(n):
        fields = S @ J[i] + h[i]
        p_plus = 0.5 * (1.0 + np.tanh(fields))
        s_plus = np.arange(N) | (1 << i)
        s_minus = np.arange(N) & ~(1 << i)
        np.add.at(P, (np.arange(N), s_plus), p_plus / n)
        np.add.at(P, (np.arange(N), s_minus), (1.0 - p_plus) / n)
    return P


def poincare_constant(m: IsingModel) -> float:
    """Smallest rho with Var(f) <= rho * n * E(f, f) for all f.

    E is the Dirichlet form of the uniform-site chain, which carries a 1/n
    prefactor, so rho equals 1 / (n * spectral gap) of that chain. Computed by
    symmetrizing the transition matrix with sqrt(pi) (the chain is reversible)
    and taking the second-largest eigenvalue.
    """
    P = glauber_transition_matrix(m)
    pi = distribution(m).probs
    d = np.sqrt(pi)
    sym = (d[:, None] * P) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    eigs = np.linalg.eigvalsh(sym)
    gap = 1.0 - float(eigs[-2])
    return 1.0 / (m.n * gap)


# ---------------------------------------------------------------------------
# Gaussian-mixture decomposition: with W = J + shift*I positive definite,
# Y = X + W^{-1/2} G makes X | Y a product measure with field W Y + h. The
# shift is free because x_i^2 = 1 only changes the density by a constant.
# ---------------------------------------------------------------------------

def default_hs_shift(J: CouplingMatrix) -> float:
    return float(abs(np.linalg.eigvalsh(J.entries).min())) + 0.5


def _shifted_matrix(m: IsingModel, shift: float) -> np.ndarray:
    W = m.coupling.entries + shift * np.eye(m.n)
    eigs = np.linalg.eigvalsh(W)
    if eigs.min() <= 0:
        raise ParameterError(
            f"J + shift*I is not positive definite (min eigenvalue {eigs.min():.3g})"
        )
    return W


def _product_table(S: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Tables of product measures; fields has one row per measure."""
    logp = fields @ S.T - (_logcosh(fields) + np.log(2.0)).sum(axis=1, keepdims=True)
    return np.exp(logp)


def hubbard_stratonovich_check(
    m: IsingModel,
    shift: float | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> float:
    """TV between the Monte Carlo product-measure mixture and the exact table."""
    _check_cap(m.n, "mixture check")
    if shift is None:
        shift = default_hs_shift(m.coupling)
    W = _shifted_matrix(m, shift)
    w, V = np.linalg.eigh(W)
    W_inv_sqrt = (V / np.sqrt(w)) @ V.T

    table = distribution(m)
    half = m.n // 2
    Sa, Sb = all_states(half), all_states(m.n - half)
    rng = stream(seed, 0x48)

    # a product measure factors over the halves of quadratic_table: mixture = Pb^T @ Pa
    mix = np.zeros((Sb.shape[0], Sa.shape[0]))
    done = 0
    chunk = max(1, min(draws, 1 << 14))
    while done < draws:
        k = min(chunk, draws - done)
        X = states(draw(table, rng.random(k)), m.n)
        G = rng.standard_normal((k, m.n))
        Y = X + G @ W_inv_sqrt
        F = Y @ W + m.field
        mix += _product_table(Sb, F[:, half:]).T @ _product_table(Sa, F[:, :half])
        done += k
    mix = mix.reshape(-1) / draws - table.probs
    return 0.5 * float(np.abs(mix, out=mix).sum())


def hs_conditional_error(m: IsingModel, shift: float, y) -> float:
    """Max deviation between Bayes posterior of X given Y=y and the product law."""
    W = _shifted_matrix(m, shift)
    wy = W @ np.asarray(y, dtype=np.float64)
    # log p(x) - (y - x)^T W (y - x) / 2; the constant -y^T W y / 2 drops out in normalize
    post = quadratic_table(-W, wy)
    post += np.log(distribution(m).probs)
    normalize(post)
    product = quadratic_table(np.zeros_like(W), wy + m.field)
    normalize(product)
    post -= product
    return float(np.abs(post, out=post).max())
