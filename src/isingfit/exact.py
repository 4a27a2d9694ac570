"""Brute-force evaluators over all 2^n spin configurations.

State index convention: state ``s`` encodes the configuration whose site ``i``
carries spin ``+1`` iff bit ``i`` of ``s`` is set (bit 0 = site 0). All
enumeration loops walk fixed-size blocks of states in increasing index order,
so accumulated results are reproducible regardless of how the blocks would be
scheduled across workers.
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

_BLOCK_BITS = 14


def _check_cap(n: int, cap: int, what: str) -> None:
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


def _iter_state_blocks(n: int):
    total = 1 << n
    step = 1 << min(_BLOCK_BITS, n)
    for start in range(0, total, step):
        yield start, states(np.arange(start, min(start + step, total)), n)


def _energies(S: np.ndarray, J: np.ndarray, h: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("si,si->s", S @ J, S) + S @ h


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


def _log_weights(m: IsingModel) -> tuple[np.ndarray, float]:
    """Table of all 2^n log weights and log Z, in one blockwise pass; log Z is
    accumulated from the table's blocks with a streaming log-sum-exp."""
    J, h = m.coupling.entries, m.field
    table = np.empty(1 << m.n)
    running_max = -np.inf
    running_sum = 0.0
    for start, S in _iter_state_blocks(m.n):
        e = table[start : start + S.shape[0]] = _energies(S, J, h)
        block_max = float(e.max())
        if block_max > running_max:
            running_sum *= np.exp(running_max - block_max)
            running_max = block_max
        running_sum += float(np.exp(e - running_max).sum())
    return table, running_max + float(np.log(running_sum))


def partition_function(m: IsingModel, cap: int = DEFAULT_ENUM_CAP) -> float:
    """log Z, from the enumeration pass that :func:`distribution` also uses."""
    _check_cap(m.n, cap, "partition function")
    return _log_weights(m)[1]


def distribution(m: IsingModel, cap: int = DEFAULT_ENUM_CAP) -> DistributionTable:
    _check_cap(m.n, cap, "distribution table")
    table, log_z = _log_weights(m)
    np.exp(np.subtract(table, log_z, out=table), out=table)
    return DistributionTable(n=m.n, probs=table)


def tv_distance(p: DistributionTable, q: DistributionTable) -> float:
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def kl_divergence(p: DistributionTable, q: DistributionTable) -> float:
    """sum p log(p/q) with the 0 log 0 = 0 convention."""
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    support = p.probs > 0
    if np.any(q.probs[support] == 0):
        raise ValidationError("q vanishes on the support of p")
    terms = p.probs[support] * (np.log(p.probs[support]) - np.log(q.probs[support]))
    return max(float(terms.sum()), 0.0)


@dataclass(frozen=True)
class MomentSummary:
    mean_vec: np.ndarray  # E[A X]
    second: float  # E[||A X||^2]
    quad_mean: float  # E[x^T A x]
    quad_var: float  # Var(x^T A x)


def moments(m: IsingModel, A: CouplingMatrix, cap: int = DEFAULT_ENUM_CAP) -> MomentSummary:
    """Exact expectations of AX statistics under the model distribution."""
    if A.n != m.n:
        raise ValidationError(f"dimension mismatch: {A.n} vs {m.n}")
    _check_cap(m.n, cap, "moments")
    a = A.entries
    table = distribution(m, cap=cap)
    mean_vec = np.zeros(m.n)
    second = 0.0
    quad_mean = 0.0
    quad_sq = 0.0
    for start, S in _iter_state_blocks(m.n):
        p = table.probs[start : start + S.shape[0]]
        AX = S @ a  # row k = A x^(k), using symmetry of A
        mean_vec += p @ AX
        second += float(p @ np.einsum("si,si->s", AX, AX))
        quad = np.einsum("si,si->s", AX, S)
        quad_mean += float(p @ quad)
        quad_sq += float(p @ (quad * quad))
    return MomentSummary(
        mean_vec=mean_vec,
        second=second,
        quad_mean=quad_mean,
        quad_var=max(quad_sq - quad_mean**2, 0.0),
    )


# ---------------------------------------------------------------------------
# Single-site heat-bath chain (uniform random site per step).
# ---------------------------------------------------------------------------

def glauber_transition_matrix(m: IsingModel, cap: int = DEFAULT_CHAIN_CAP) -> np.ndarray:
    """Dense 2^n x 2^n transition matrix of the uniform-site resampling chain."""
    _check_cap(m.n, cap, "transition matrix")
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


def poincare_constant(m: IsingModel, cap: int = DEFAULT_CHAIN_CAP) -> float:
    """Smallest rho with Var(f) <= rho * n * E(f, f) for all f.

    E is the Dirichlet form of the uniform-site chain, which carries a 1/n
    prefactor, so rho equals 1 / (n * spectral gap) of that chain. Computed by
    symmetrizing the transition matrix with sqrt(pi) (the chain is reversible)
    and taking the second-largest eigenvalue.
    """
    _check_cap(m.n, cap, "Poincare constant")
    P = glauber_transition_matrix(m, cap=cap)
    pi = distribution(m, cap=cap).probs
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
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """TV between the Monte Carlo product-measure mixture and the exact table."""
    _check_cap(m.n, cap, "mixture check")
    if shift is None:
        shift = default_hs_shift(m.coupling)
    W = _shifted_matrix(m, shift)
    w, V = np.linalg.eigh(W)
    W_inv_sqrt = (V / np.sqrt(w)) @ V.T

    table = distribution(m, cap=cap)
    cdf = np.cumsum(table.probs)
    S = all_states(m.n)
    rng = stream(seed, 0x48)

    mix = np.zeros(1 << m.n)
    done = 0
    chunk = max(1, min(draws, 1 << 14))
    top = (1 << m.n) - 1  # cumsum rounding can leave cdf[-1] slightly below 1
    while done < draws:
        k = min(chunk, draws - done)
        X = S[np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), top)]
        G = rng.standard_normal((k, m.n))
        Y = X + G @ W_inv_sqrt
        mix += _product_table(S, Y @ W + m.field).sum(axis=0)
        done += k
    mix /= draws
    return 0.5 * float(np.abs(mix - table.probs).sum())


def hs_conditional_error(
    m: IsingModel, shift: float, y, cap: int = DEFAULT_ENUM_CAP
) -> float:
    """Max deviation between Bayes posterior of X given Y=y and the product law."""
    _check_cap(m.n, cap, "conditional check")
    W = _shifted_matrix(m, shift)
    y = np.asarray(y, dtype=np.float64)
    table = distribution(m, cap=cap)
    S = all_states(m.n)
    resid = y[None, :] - S
    log_post = np.log(table.probs) - 0.5 * np.einsum("si,si->s", resid @ W, resid)
    log_post -= log_post.max()
    post = np.exp(log_post)
    post /= post.sum()
    product = _product_table(S, (W @ y + m.field)[None, :])[0]
    product /= product.sum()
    return float(np.abs(post - product).max())
