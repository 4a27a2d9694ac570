"""Brute-force evaluators over all 2^n spin configurations.

State index convention: state ``s`` encodes the configuration whose site ``i``
carries spin ``+1`` iff bit ``i`` of ``s`` is set (bit 0 = site 0). Log weights
come from one kernel, :func:`quadratic_table`: it splits the sites into a low half
(the low bits of ``s``) and a high half and builds the table in one GEMM, whose
(2^high, 2^low) row-major output is the state order. Only :func:`_halves` knows the
split; the half-state arrays of every table up to the enumeration cap are built once
per process, read-only. :func:`normalize` checks a table in O(1), so a table from
:func:`distribution` is never scanned again.
:func:`second_moments` reads E[x] and E[x x^T] off the same split, and
E[x^T A x] = <A, E[x x^T]>, E||A x||^2 = <A^2, E[x x^T]> come from those.
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
    is_int,
    is_real,
    stream,
)

DEFAULT_ENUM_CAP = 20
DEFAULT_CHAIN_CAP = 8  # dense 2^n x 2^n eigenproblem
_TV_BLOCK = 1 << 15  # entries per block of tv_distance


def _check_cap(n: int, what: str, cap: int = DEFAULT_ENUM_CAP) -> None:
    if n > cap:
        raise CapabilityError(
            f"{what} needs full enumeration of 2^{n} states, above the "
            f"enumeration cap {cap}"
        )


def states(idx, n: int) -> np.ndarray:
    """Float +-1 configurations of the given state indices, one row each."""
    octets = np.ascontiguousarray(idx, dtype="<u8").view(np.uint8).reshape(-1, 8)
    x = np.unpackbits(octets, axis=1, count=n, bitorder="little").astype(np.float64)
    x *= 2.0  # in place, so no second (len(idx), n) float array
    x -= 1.0
    return x


def all_states(n: int) -> np.ndarray:
    """(2^n, n) array of spin configurations, row s = configuration s."""
    return states(np.arange(1 << n), n)


def encode_spins(spins) -> np.ndarray:
    """Map rows of a {-1,+1} array to their state indices."""
    s = np.asarray(spins)
    bits = (s > 0).astype(np.int64)
    return bits @ (1 << np.arange(s.shape[1], dtype=np.int64))


# all_states(k) for every half of a table up to the cap: about 150 KB, read-only
_HALF_STATES = tuple(all_states(k) for k in range((DEFAULT_ENUM_CAP + 1) // 2 + 1))
for _S in _HALF_STATES:
    _S.flags.writeable = False
del _S


def _halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """S_a and S_b: the states of the low n // 2 sites and of the other sites."""
    return tuple(_HALF_STATES[k] if k < len(_HALF_STATES) else all_states(k)
                 for k in (n // 2, n - n // 2))


@np.errstate(over="ignore", invalid="ignore")  # normalize reports an overflowed table
def quadratic_table(Q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """x^T Q x / 2 + h . x for every state x, in state-index order (Q symmetric).

    With a the low half of the sites, b the high half and t_a, t_b their own tables,
    it is one product [S_b Q_ba, t_b, 1] [S_a, 1, t_a]^T: cross term, then t_b, then t_a."""
    Sa, Sb = _halves(h.size)
    k = Sa.shape[1]
    t_a = 0.5 * ((Sa @ Q[:k, :k]) * Sa).sum(axis=1) + Sa @ h[:k]
    t_b = 0.5 * ((Sb @ Q[k:, k:]) * Sb).sum(axis=1) + Sb @ h[k:]
    left = np.column_stack([Sb @ Q[k:, :k], t_b, np.ones_like(t_b)])
    right = np.column_stack([Sa, np.ones_like(t_a), t_a])
    del Sa, Sb  # halves built above the cap go, so the 2^n product is the peak
    return (left @ right.T).reshape(-1)


@np.errstate(over="ignore")
def normalize(log_weights: np.ndarray) -> float:
    """Turn a table of log weights into probabilities in place; returns log Z. A finite
    max (NaN and +-inf are not) leaves entries in [0, 1] with a sum in [1, 2^n] to divide by."""
    top = float(log_weights.max())
    if not np.isfinite(top):
        raise CapabilityError(f"exact table at n = {log_weights.size.bit_length() - 1}: "
                              "log weights overflow float64")
    np.exp(np.subtract(log_weights, top, out=log_weights), out=log_weights)
    total = float(log_weights.sum())
    log_weights /= total
    return top + float(np.log(total))


@dataclass(frozen=True)
class DistributionTable:
    """Probability table over all 2^n states, indexed as in :func:`all_states`.

    A table from :func:`distribution` also carries the model and its log Z,
    which :func:`kl_divergence` needs; a hand-built table has neither.
    """

    n: int
    probs: np.ndarray
    log_z: float | None = None
    model: IsingModel | None = None

    def __post_init__(self):
        if not (is_int(self.n) and self.n >= 0 and isinstance(self.probs, np.ndarray)
                and self.probs.shape == (1 << self.n,)):
            raise ValidationError("probability table needs an integer n >= 0 and an ndarray of 2^n")
        # written so that NaN fails both tests and +-inf fails one
        if not self.probs.min() >= 0:
            raise ValidationError("negative or NaN probability entry")
        if not abs(float(self.probs.sum()) - 1.0) <= 1e-12:
            raise ValidationError("probability table does not sum to 1")


def draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """State index for each uniform in ``u``, by inverse CDF over
    ``cdf = np.cumsum(table.probs)``, which many draws from one table can share.

    Sorted keys walk ``cdf`` once from left to right. Each key's index does not
    depend on the order of the keys, so the result is that of an unsorted search.
    """
    order = np.argsort(u)
    idx = np.empty(order.shape, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, u[order], side="right")
    return np.minimum(idx, cdf.size - 1, out=idx)  # cumsum rounding can end below 1


def _table(Q: np.ndarray, h: np.ndarray, model: IsingModel | None = None) -> DistributionTable:
    """Table of exp(x^T Q x / 2 + h . x), checked by normalize, not by __post_init__'s scans."""
    probs = quadratic_table(Q, h)
    table = object.__new__(DistributionTable)
    table.__dict__.update(n=h.size, probs=probs, log_z=normalize(probs), model=model)
    return table


def distribution(m: IsingModel) -> DistributionTable:
    _check_cap(m.n, "distribution table")
    return _table(m.coupling.entries, m.field, m)


def tv_distance(p: DistributionTable, q: DistributionTable) -> float:
    """``0.5 * np.abs(p.probs - q.probs).sum()`` bit for bit, through one block
    buffer: numpy's pairwise sum halves a power-of-two length at every level,
    so a pairwise tree of the block sums is the whole array's sum."""
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    buf = np.empty(min(p.probs.size, _TV_BLOCK))
    sums = np.array([np.abs(np.subtract(a, b, out=buf), out=buf).sum()
                     for a, b in zip(p.probs.reshape(-1, buf.size), q.probs.reshape(-1, buf.size))])
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return 0.5 * float(sums[0])


def second_moments(table: DistributionTable) -> tuple[np.ndarray, np.ndarray]:
    """E[x] and E[x x^T] under ``table``, without a 2^n temporary.

    With the (2^|b|, 2^|a|) half split of :func:`quadratic_table`, the diagonal
    blocks and E[x] come from the marginals of the two halves and the cross
    block is S_b^T (P S_a).
    """
    Sa, Sb = _halves(table.n)
    k = Sa.shape[1]
    p2 = table.probs.reshape(Sb.shape[0], Sa.shape[0])
    pa, pb = p2.sum(axis=0), p2.sum(axis=1)
    second = np.empty((table.n, table.n))
    # S^T diag(p) S of each half; einsum's row scaling needs no broadcast buffer
    second[:k, :k] = Sa.T @ np.einsum("si,s->si", Sa, pa)
    second[k:, k:] = Sb.T @ np.einsum("si,s->si", Sb, pb)
    second[k:, :k] = Sb.T @ (p2 @ Sa)
    second[:k, k:] = second[k:, :k].T
    return np.concatenate([Sa.T @ pa, Sb.T @ pb]), second


def kl_divergence(p: DistributionTable, q: DistributionTable) -> float:
    """KL(p || q) = E_p[theta_p - theta_q] - log Z_p + log Z_q, with
    theta(x) = x^T J x / 2 + h . x, so both tables must come from :func:`distribution`."""
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")
    if any(t.model is None or t.log_z is None for t in (p, q)):
        raise ValidationError("KL needs tables built from a model (with log Z)")
    mean, second = second_moments(p)
    d_theta = (0.5 * float(np.vdot(p.model.coupling.entries - q.model.coupling.entries, second))
               + float((p.model.field - q.model.field) @ mean))
    return max(d_theta - p.log_z + q.log_z, 0.0)


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
    if not (is_real(shift) and np.isfinite(shift)):
        raise ParameterError("shift must be a finite real number")
    W = m.coupling.entries + shift * np.eye(m.n)
    eigs = np.linalg.eigvalsh(W)
    if not eigs.min() > 0:  # NaN fails too
        raise ParameterError(
            f"J + shift*I is not positive definite (min eigenvalue {eigs.min():.3g})"
        )
    return W


def _product_table(S: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Tables of product measures; fields has one row per measure."""
    logp = fields @ S.T - np.logaddexp(fields, -fields).sum(axis=1, keepdims=True)  # log 2cosh
    return np.exp(logp)


def hubbard_stratonovich_check(
    m: IsingModel,
    shift: float | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> float:
    """TV between the Monte Carlo product-measure mixture and the exact table."""
    if not (is_int(draws) and draws >= 1):
        raise ParameterError("draws must be an integer >= 1")
    _check_cap(m.n, "mixture check")
    if shift is None:
        shift = default_hs_shift(m.coupling)
    W = _shifted_matrix(m, shift)
    w, V = np.linalg.eigh(W)
    W_inv_sqrt = (V / np.sqrt(w)) @ V.T

    table = distribution(m)
    cdf = np.cumsum(table.probs)
    Sa, Sb = _halves(m.n)
    half = Sa.shape[1]
    rng = stream(seed, 0x48)

    # a product measure factors over the halves of quadratic_table: mixture = Pb^T @ Pa
    mix = np.zeros((Sb.shape[0], Sa.shape[0]))
    done = 0
    chunk = max(1, min(draws, 1 << 14))
    while done < draws:
        k = min(chunk, draws - done)
        X = states(draw(cdf, rng.random(k)), m.n)
        G = rng.standard_normal((k, m.n))
        Y = X + G @ W_inv_sqrt
        F = Y @ W + m.field
        mix += _product_table(Sb, F[:, half:]).T @ _product_table(Sa, F[:, :half])
        done += k
    mix = mix.reshape(-1) / draws - table.probs
    return 0.5 * float(np.abs(mix, out=mix).sum())


def hs_conditional_error(m: IsingModel, shift: float, y) -> float:
    """Max deviation between Bayes posterior of X given Y=y and the product law."""
    y = np.asarray(y)
    if y.shape != (m.n,) or y.dtype.kind not in "iuf" or not np.isfinite(y).all():
        raise ParameterError(f"y must hold {m.n} finite reals")
    _check_cap(m.n, "posterior table")
    W = _shifted_matrix(m, shift)
    wy = W @ y
    # log p(x) - (y - x)^T W (y - x) / 2, with log p the log weights; the
    # constants -log Z and -y^T W y / 2 drop out in normalize
    post = quadratic_table(-W, wy)
    post += quadratic_table(m.coupling.entries, m.field)
    normalize(post)
    product = quadratic_table(np.zeros_like(W), wy + m.field)
    normalize(product)
    post -= product
    return float(np.abs(post, out=post).max())
