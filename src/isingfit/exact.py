"""Brute-force evaluators over all 2^n spin configurations.

State index convention: state ``s`` encodes the configuration whose site ``i``
carries spin ``+1`` iff bit ``i`` of ``s`` is set (bit 0 = site 0). Log weights
come from one kernel, :func:`quadratic_table`: it splits the sites into a low half
(the low bits of ``s``) and a high half, and the table is the product of two factors,
whose (2^high, 2^low) row-major output is the state order. Only :func:`_halves` knows
the split; the half-state arrays of every table up to the enumeration cap are built
once per process, read-only. :func:`normalize` checks a table in O(1), so a table
from :func:`distribution` is never scanned again.

Every table is built and read in the same row blocks of that split, ``_BLOCK``
entries each. One walk, :func:`_products`, computes the product block by block: into
the rows of one array for a stored :class:`DistributionTable`, or into one reused buffer
for a :class:`StreamedTable` (``distribution(m, streamed=True)``), a model's table that
is never held whole. One normalization, :func:`_top_total`, takes either to
probabilities block by block, so the two agree bit for bit by construction.
:func:`tv_distance`, :func:`second_moments` and :func:`kl_divergence` read both by the
same code, so both give the same bits. :func:`second_moments` gives
E[x] and E[x x^T], and E[x^T A x] = <A, E[x x^T]>, E||A x||^2 = <A^2, E[x x^T]> come
from those. :func:`draw` walks a table's probabilities chunk by chunk, so no 2^n CDF is held.
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
_CHUNK = 1 << 15  # entries per scratch buffer: tv_distance's differences, a draw's CDF chunk
# Entries per row block of a table: 1 MB, the most that a streamed table holds at once.
# Stored and streamed tables are built and read in the same blocks, so any size keeps
# them equal; this one is chosen for memory alone.
_BLOCK = 1 << 17


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


@np.errstate(over="ignore", invalid="ignore")  # _top_total reports an overflowed table
def _factors(Q: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``left`` and ``right`` with ``quadratic_table(Q, h) == (left @ right.T).reshape(-1)``."""
    Sa, Sb = _halves(h.size)  # halves built above the cap go on return
    k = Sa.shape[1]
    t_a = 0.5 * ((Sa @ Q[:k, :k]) * Sa).sum(axis=1) + Sa @ h[:k]
    t_b = 0.5 * ((Sb @ Q[k:, k:]) * Sb).sum(axis=1) + Sb @ h[k:]
    return (np.column_stack([Sb @ Q[k:, :k], t_b, np.ones_like(t_b)]),
            np.column_stack([Sa, np.ones_like(t_a), t_a]))


def _products(left: np.ndarray, right: np.ndarray, outs):
    """The row blocks of ``left @ right.T`` in row order, each computed into the next of
    ``outs``: a table's blocks, shaped by :func:`_block_shape`, or one reused buffer."""
    for k, out in enumerate(outs):  # every block has the same rows
        with np.errstate(over="ignore", invalid="ignore"):  # _top_total reports an overflow
            np.matmul(left[k * len(out):(k + 1) * len(out)], right.T, out=out)
        yield out


def quadratic_table(Q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """x^T Q x / 2 + h . x for every state x, in state-index order (Q symmetric).

    With a the low half of the sites, b the high half and t_a, t_b their own tables,
    it is the product [S_b Q_ba, t_b, 1] [S_a, 1, t_a]^T: cross term, then t_b, then t_a.
    Each row block of :func:`_block_shape` is computed into its rows of the table."""
    table = np.empty(_block_shape(h.size))
    for _ in _products(*_factors(Q, h), table):
        pass
    return table.reshape(-1)


@np.errstate(over="ignore")  # a finite top can still leave w - top at -inf, so exp 0
def _exp_shifted(w: np.ndarray, top: float) -> np.ndarray:
    return np.exp(np.subtract(w, top, out=w), out=w)


def _top_total(walk, n: int) -> tuple[float, float, float]:
    """``top``, the max of a table's log weights at size n, which must be finite, the sum
    of exp(w - top) and log Z, from two walks of the blocks ``walk()`` gives: the block
    maxes, then exp(w - top) in place, the block sums added by :func:`_tree`."""
    top = float(np.max([w.max() for w in walk()]))
    if not np.isfinite(top):
        raise CapabilityError(f"exact table at n = {n}: log weights overflow float64")
    total = float(_tree([_exp_shifted(w, top).sum() for w in walk()]))
    return top, total, top + float(np.log(total))


def normalize(log_weights: np.ndarray) -> float:
    """Turn a table of log weights into probabilities in place; returns log Z. A finite
    max leaves entries in [0, 1] with a sum in [1, 2^n] to divide by."""
    n = log_weights.size.bit_length() - 1
    _, total, log_z = _top_total(lambda: log_weights.reshape(_block_shape(n)), n)
    log_weights /= total
    return log_z


def _tree(sums):
    """The sum of a power-of-two count of block sums (numbers or equal-shape arrays) in
    a pairwise tree. numpy's sum halves a power-of-two length of 2^7 or more at every
    level, so over equal blocks of that size a tree of numbers is the whole array's sum,
    bit for bit."""
    sums = np.array(sums)
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


def _block_shape(n: int) -> tuple[int, int, int]:
    """Blocks, rows and columns of a 2^n table's row blocks: its (2^|b|, 2^|a|) split in
    blocks of ``_BLOCK`` entries, or the whole table in one."""
    rows = min(1 << n - n // 2, max(1, _BLOCK >> n // 2))
    return (1 << n - n // 2) // rows, rows, 1 << n // 2


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

    def blocks(self):
        """The row blocks of :func:`_block_shape`, as views: reading them needs no temporary."""
        return self.probs.reshape(_block_shape(self.n))


class StreamedTable:
    """The table of :func:`distribution` read in row blocks, never held whole.

    The blocks are those of :meth:`DistributionTable.blocks`, each computed by
    :func:`_products` into one reused buffer. Building it reads the table three times:
    :func:`_top_total`'s two walks, as :func:`normalize` makes over a stored table, then
    the second moments, which KL needs and which would otherwise cost a read of their
    own. So log Z and every probability are those of :func:`distribution`'s table, bit
    for bit, and ``moments`` are :func:`second_moments`'s.
    """

    def __init__(self, m: IsingModel):
        _check_cap(m.n, "distribution table")
        self.n, self.model = m.n, m
        self._left, self._right = _factors(m.coupling.entries, m.field)
        self._top, self._total, self.log_z = _top_total(self._log_weights, m.n)
        self.moments = _moments(self)

    def _log_weights(self):
        blocks, rows, columns = _block_shape(self.n)
        return _products(self._left, self._right, [np.empty((rows, columns))] * blocks)

    def blocks(self):
        """The probability blocks in row order, each in the buffer the next one overwrites."""
        for w in self._log_weights():
            _exp_shifted(w, self._top)
            w /= self._total
            yield w


def draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """State index for each uniform in ``u``, by inverse CDF over ``probs``: that is
    ``min(searchsorted(cumsum(probs), u, "right"), probs.size - 1)``, bit for bit,
    as cumsum's rounding can end below 1.

    The sorted keys walk ``probs`` once, in chunks of ``_CHUNK`` entries through one
    buffer. Each chunk's cumsum starts from the last one's total, so its entries are
    ``cumsum(probs)``'s, and it resolves the keys below its last entry. Each key's
    index does not depend on the order of the keys, so the result is that of an
    unsorted search.
    """
    order = np.argsort(u)
    keys = u[order]
    idx = np.full(u.shape, probs.size - 1, dtype=np.intp)
    buf = np.empty(min(probs.size, _CHUNK))
    done = 0
    for start in range(0, probs.size, buf.size):
        if done == keys.size:
            break
        cdf = buf[:probs.size - start]
        cdf[:] = probs[start:start + buf.size]
        if start:
            cdf[0] += total
        total = np.cumsum(cdf, out=cdf)[-1]
        stop = done + int(np.searchsorted(keys[done:], total, side="left"))
        idx[order[done:stop]] = start + np.searchsorted(cdf, keys[done:stop], side="right")
        done = stop
    return idx


def _table(Q: np.ndarray, h: np.ndarray, model: IsingModel | None = None) -> DistributionTable:
    """Table of exp(x^T Q x / 2 + h . x), checked by normalize, not by __post_init__'s scans."""
    probs = quadratic_table(Q, h)
    table = object.__new__(DistributionTable)
    table.__dict__.update(n=h.size, probs=probs, log_z=normalize(probs), model=model)
    return table


def distribution(m: IsingModel, *, streamed: bool = False) -> DistributionTable | StreamedTable:
    """The model's table, stored whole or, with ``streamed``, as a :class:`StreamedTable`
    that holds no 2^n array and is read block by block by the evaluators."""
    _check_cap(m.n, "distribution table")
    return StreamedTable(m) if streamed else _table(m.coupling.entries, m.field, m)


Table = DistributionTable | StreamedTable


def _moments(table: Table) -> tuple[np.ndarray, np.ndarray]:
    """E[x] and E[x x^T] from one read of the table's row blocks.

    They come from the (2^|b|, 2^|a|) half split of :func:`quadratic_table`: the
    diagonal blocks and E[x] from the marginals of the two halves, the cross block
    S_b^T (P S_a). The blocks' column sums are added by :func:`_tree`.
    """
    Sa, Sb = _halves(table.n)
    pb, cross = np.empty(Sb.shape[0]), np.empty((Sb.shape[0], Sa.shape[1]))
    col_sums = []
    for k, block in enumerate(table.blocks()):  # every block has the same rows
        rows = slice(k * len(block), (k + 1) * len(block))
        block.sum(axis=1, out=pb[rows])
        np.matmul(block, Sa, out=cross[rows])
        col_sums.append(block.sum(axis=0))
    pa = _tree(col_sums)
    k = Sa.shape[1]
    second = np.empty((table.n, table.n))
    # S^T diag(p) S of each half; einsum's row scaling needs no broadcast buffer
    second[:k, :k] = Sa.T @ np.einsum("si,s->si", Sa, pa)
    second[k:, k:] = Sb.T @ np.einsum("si,s->si", Sb, pb)
    second[k:, :k] = Sb.T @ cross
    second[:k, k:] = second[k:, :k].T
    return np.concatenate([Sa.T @ pa, Sb.T @ pb]), second


def _check(p: Table, q: Table) -> None:
    if p.n != q.n:
        raise ValidationError(f"dimension mismatch: {p.n} vs {q.n}")


def tv_distance(p: Table, q: Table) -> float:
    """``0.5 * np.abs(p.probs - q.probs).sum()`` bit for bit, where a StreamedTable's
    probs are those of :func:`distribution`.

    The blocks are read in pieces of ``_CHUNK`` entries through one buffer, and the
    piece sums are added by :func:`_tree`.
    """
    _check(p, q)
    buf = np.empty(min(1 << p.n, _CHUNK, _BLOCK))  # a power of two that divides every block
    q_pieces = (piece for block in q.blocks() for piece in block.reshape(-1, buf.size))
    return 0.5 * float(_tree([np.abs(np.subtract(a, next(q_pieces), out=buf), out=buf).sum()
                              for block in p.blocks() for a in block.reshape(-1, buf.size)]))


def second_moments(table: Table) -> tuple[np.ndarray, np.ndarray]:
    """E[x] and E[x x^T] under ``table``, without a 2^n temporary."""
    return table.moments if isinstance(table, StreamedTable) else _moments(table)


def kl_divergence(p: Table, q: Table) -> float:
    """KL(p || q) = E_p[theta_p - theta_q] - log Z_p + log Z_q, with
    theta(x) = x^T J x / 2 + h . x, so both tables must come from a model."""
    _check(p, q)
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
    Sa, Sb = _halves(m.n)
    half = Sa.shape[1]
    rng = stream(seed, 0x48)

    # a product measure factors over the halves of quadratic_table: mixture = Pb^T @ Pa
    mix = np.zeros((Sb.shape[0], Sa.shape[0]))
    done = 0
    chunk = max(1, min(draws, 1 << 14))
    while done < draws:
        k = min(chunk, draws - done)
        X = states(draw(table.probs, rng.random(k)), m.n)
        G = rng.standard_normal((k, m.n))
        Y = X + G @ W_inv_sqrt
        F = Y @ W + m.field
        mix += _product_table(Sb, F[:, half:]).T @ _product_table(Sa, F[:, :half])
        done += k
    return tv_distance(DistributionTable(m.n, mix.reshape(-1) / draws), table)


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
