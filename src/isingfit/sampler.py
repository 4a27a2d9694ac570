"""Spin samplers: single-site heat-bath dynamics and exact inverse-CDF draws.

The dynamics resample one uniformly random site per step from its conditional
law ``P[X_i = +1 | x_{-i}] = (1 + tanh(J_i x + h_i)) / 2``; one sweep is n
such steps. The chain is only approximate for finite burn-in, so tests that
need genuine i.i.d. samples should use :func:`exact_sample` (available up to
the enumeration cap).

Chains own disjoint RNG streams keyed by (seed, chain index), and samples are
merged round-robin across chains, so the output is a pure function of the
model, count, and config no matter how the chains are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .core import _SEED_MASK, IsingModel, ParameterError, SampleBatch, stream


@dataclass(frozen=True)
class GlauberConfig:
    burn_in_sweeps: int = 200
    thinning_sweeps: int = 5
    seed: int = 0
    chains: int = 4

    def __post_init__(self):
        for name in ("burn_in_sweeps", "thinning_sweeps", "chains"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")


def default_config(seed: int = 0, alpha: float | None = None, chains: int = 4) -> GlauberConfig:
    """Defaults: 50*ceil(1/alpha) burn-in sweeps given a spectral-gap hint, else 200."""
    if alpha is not None:
        if not 0 < alpha <= 1:
            raise ParameterError("alpha hint must be in (0, 1]")
        burn_in = 50 * math.ceil(1.0 / alpha)
    else:
        burn_in = 200
    return GlauberConfig(burn_in_sweeps=burn_in, thinning_sweeps=5, seed=seed, chains=chains)


def conditional_plus_probability(m: IsingModel, x, i: int) -> float:
    """P[X_i = +1 | X_{-i} = x_{-i}] for the given configuration."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.n,):
        raise ParameterError(f"configuration must have length {m.n}")
    if not 0 <= i < m.n:
        raise IndexError(f"site {i} out of range for n={m.n}")
    field = float(m.coupling.entries[i] @ x) + float(m.field[i])
    return 0.5 * (1.0 + math.tanh(field))


def chain_entropy(seed: int, chain: int) -> tuple[int, int]:
    """Entropy words identifying a chain's RNG stream; distinct per chain."""
    return (seed & _SEED_MASK, chain)


def _run_chain(J: np.ndarray, h: np.ndarray, n_samples: int, cfg: GlauberConfig, chain: int) -> np.ndarray:
    n = h.shape[0]
    rng = stream(*chain_entropy(cfg.seed, chain))
    x = [1.0 if b else -1.0 for b in rng.integers(0, 2, size=n)]
    # Local fields J x + h, updated incrementally; python lists beat numpy for
    # the tiny per-step arithmetic at desk-scale n.
    rows = [[float(v) for v in row] for row in J]
    f = [sum(rows[i][j] * x[j] for j in range(n)) + float(h[i]) for i in range(n)]
    tanh = math.tanh

    def sweeps(count: int) -> None:
        steps = count * n
        sites = rng.integers(0, n, size=steps)
        us = rng.random(steps)
        for t in range(steps):
            i = int(sites[t])
            s_new = 1.0 if us[t] < 0.5 * (1.0 + tanh(f[i])) else -1.0
            if s_new != x[i]:
                d = s_new - x[i]
                x[i] = s_new
                row = rows[i]
                for j in range(n):
                    f[j] += row[j] * d
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
    if l < 1:
        raise ParameterError("sample count must be >= 1")
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


def exact_sample(
    m: IsingModel, l: int, seed: int = 0, cap: int = exact.DEFAULT_ENUM_CAP
) -> SampleBatch:
    """Draw l i.i.d. samples by inverse CDF over the full 2^n table."""
    if l < 1:
        raise ParameterError("sample count must be >= 1")
    table = exact.distribution(m, cap=cap)
    cdf = np.cumsum(table.probs)
    idx = np.searchsorted(cdf, stream(seed, 0xE).random(l), side="right")
    return SampleBatch(exact.states(np.minimum(idx, (1 << m.n) - 1), m.n))
