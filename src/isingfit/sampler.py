"""Spin samplers: single-site heat-bath dynamics and exact inverse-CDF draws.

The dynamics resample one uniformly random site per step from its conditional
law ``P[X_i = +1 | x_{-i}] = (1 + tanh(J_i x + h_i)) / 2``; one sweep is n
such steps. The chain is only approximate for finite burn-in, so tests that
need genuine i.i.d. samples should use :func:`exact_sample` (available up to
the enumeration cap).

Chains own disjoint RNG streams keyed by (seed, chain index), and samples are
merged round-robin across chains, so the output is a pure function of the
model, count, and config no matter how the chains are scheduled. A chain keeps
its local fields in one numpy vector and updates them with one vector add per
flip; samples are byte-identical to those of earlier releases, whose loop added
one scalar per site. :func:`mixing` gives split-R-hat across a batch's chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .core import IsingModel, ParameterError, SampleBatch, ValidationError, is_int, is_real, stream


@dataclass(frozen=True)
class GlauberConfig:
    burn_in_sweeps: int = 200
    thinning_sweeps: int = 5
    seed: int = 0
    chains: int = 4

    def __post_init__(self):
        for name in ("burn_in_sweeps", "thinning_sweeps", "chains"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1")
        if not is_int(self.seed):
            raise ParameterError("seed must be an integer")


def default_config(seed: int = 0, alpha: float | None = None) -> GlauberConfig:
    """Defaults: 50*ceil(1/alpha) burn-in sweeps given a spectral-gap hint, else 200."""
    if alpha is None:
        return GlauberConfig(seed=seed)
    if not (is_real(alpha) and 0 < alpha <= 1):
        raise ParameterError("alpha_hint must be in (0, 1]")
    return GlauberConfig(burn_in_sweeps=50 * math.ceil(1.0 / alpha), seed=seed)


def conditional_plus_probability(m: IsingModel, x, i: int) -> float:
    """P[X_i = +1 | X_{-i} = x_{-i}] for the given configuration."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.n,):
        raise ParameterError(f"configuration must have length {m.n}")
    if not 0 <= i < m.n:
        raise IndexError(f"site {i} out of range for n={m.n}")
    field = float(m.coupling.entries[i] @ x) + float(m.field[i])
    return 0.5 * (1.0 + math.tanh(field))


def _run_chain(J: np.ndarray, h: np.ndarray, n_samples: int, cfg: GlauberConfig, chain: int) -> np.ndarray:
    n = h.shape[0]
    rng = stream(cfg.seed, chain)
    x = [1.0 if b else -1.0 for b in rng.integers(0, 2, size=n)]
    # Local fields J x + h, summed in python order so their bits never change.
    # A flip adds the row 2J_i or -2J_i: doubling is exact, so each f_j rounds
    # as f_j + J_ij*d did with d = +-2. Draws are read through memoryviews.
    f = np.array([sum(J.item(i, j) * x[j] for j in range(n)) + h.item(i) for i in range(n)])
    up = list(2.0 * J)
    down = [-r for r in up]
    tanh = math.tanh

    def sweeps(count: int) -> None:
        nonlocal f
        steps = count * n
        for i, u in zip(memoryview(rng.integers(0, n, size=steps)), memoryview(rng.random(steps))):
            s_new = 1.0 if u < 0.5 * (1.0 + tanh(f.item(i))) else -1.0
            if s_new != x[i]:
                x[i] = s_new
                f += up[i] if s_new > 0.0 else down[i]
    sweeps(cfg.burn_in_sweeps)
    out = np.empty((n_samples, n), dtype=np.int8)
    for k in range(n_samples):
        sweeps(cfg.thinning_sweeps)
        out[k] = x
    return out


def glauber_sample(m: IsingModel, l: int, cfg: GlauberConfig | None = None) -> SampleBatch:
    """Draw l approximate samples via the heat-bath chain.

    Runs ``cfg.chains`` independent chains from uniform random starts, discards
    the burn-in, then records one configuration every ``thinning_sweeps``
    sweeps, interleaving chains round-robin until l samples are collected.
    """
    if not is_int(l) or l < 1:
        raise ParameterError("sample count must be an integer >= 1")
    if cfg is None:
        cfg = default_config()
    chains = min(cfg.chains, l)
    per_chain = [(l - c + chains - 1) // chains for c in range(chains)]
    spins = np.empty((l, m.n), dtype=np.int8)
    J, h = m.coupling.entries, m.field
    for c in range(chains):
        chain_out = _run_chain(J, h, per_chain[c], cfg, c)
        spins[c::chains] = chain_out
    return SampleBatch(spins)


def site_updates(n: int, l: int, cfg: GlauberConfig) -> int:
    """Single-site updates that ``glauber_sample`` makes for l samples at size n."""
    return n * (min(cfg.chains, l) * cfg.burn_in_sweeps + l * cfg.thinning_sweeps)


def split_rhat(draws: np.ndarray) -> float | None:
    """Split-R-hat (BDA3; Vehtari et al. 2021) of a (chains, draws) array.

    Each chain is cut into its first and last halves, dropping the middle draw
    of an odd length. None when a half has fewer than 2 draws or the
    within-half variance W is 0, that is, every half is constant (tested
    exactly, as rounding can leave a constant half a variance near 0).
    """
    half = draws.shape[1] // 2
    if half < 2:
        return None
    halves = np.concatenate([draws[:, :half], draws[:, -half:]]).astype(np.float64)
    if not np.ptp(halves, axis=1).any():
        return None
    within = halves.var(axis=1, ddof=1).mean()
    between = half * halves.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((half - 1) * within + between) / (half * within)))


def mixing(m: IsingModel, batch: SampleBatch, cfg: GlauberConfig) -> dict[str, float | None]:
    """Split-R-hat of the energy x'Jx/2 + h.x and of the magnetization sum(x)
    across the chains of a ``glauber_sample`` batch, each chain's rows
    ``spins[c::chains]`` cut to the shortest chain."""
    chains = min(cfg.chains, batch.l)
    rows = batch.l // chains * chains  # the round-robin merge puts them first
    x = batch.as_float()[:rows]
    energy = 0.5 * ((x @ m.coupling.entries) * x).sum(axis=1) + x @ m.field
    return {f"rhat_{name}": split_rhat(v.reshape(-1, chains).T)
            for name, v in (("energy", energy), ("magnetization", x.sum(axis=1)))}


def exact_sample(m: IsingModel | exact.DistributionTable | np.ndarray, l: int,
                 seed: int = 0) -> SampleBatch:
    """Draw l i.i.d. samples by inverse CDF over the model's 2^n table.

    ``m`` is the model, its table from :func:`exact.distribution`, or that
    table's CDF ``np.cumsum(table.probs)``; all three give the same bytes. Many
    batches from one model should share one CDF.
    """
    if not is_int(l) or l < 1:
        raise ParameterError("sample count must be an integer >= 1")
    if not is_int(seed):
        raise ParameterError("seed must be an integer")
    if isinstance(m, np.ndarray):
        cdf = m
        if cdf.ndim != 1 or cdf.size < 2 or cdf.size & (cdf.size - 1):
            raise ValidationError("a CDF must be a 1-d array of length 2^n, n >= 1")
    else:
        table = m if isinstance(m, exact.DistributionTable) else exact.distribution(m)
        cdf = np.cumsum(table.probs)
    n = cdf.size.bit_length() - 1
    return SampleBatch(exact.states(exact.draw(cdf, stream(seed, 0xE).random(l)), n))
