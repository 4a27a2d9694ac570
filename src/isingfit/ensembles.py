"""Generators for the interaction-matrix families used in experiments.

Every generator is a pure function of its spec: the RNG is a counter-based
Philox stream keyed on (seed, kind, n), so the same spec always produces the
same matrix and distinct kinds or sizes never share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingMatrix, GenerationError, IsingModel, ParameterError, is_int, is_real, stream

__all__ = ["EnsembleSpec", "KINDS", "generate", "random_regular_graph"]

KINDS = ("SK", "DilutedSK", "CurieWeiss", "AntiferroExpander", "BoundedWidthRandom")

_KIND_CODE = {k: i + 1 for i, k in enumerate(KINDS)}
_GRAPH_CODE = 0x9E


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    beta: float = 0.0
    d: int | None = None
    width: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        for name in ("n", "d", "seed"):
            value = getattr(self, name)
            if not is_int(value) and not (name == "d" and value is None):
                raise ParameterError(f"{name} must be an integer")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if not (is_real(self.beta) and 0 <= self.beta < np.inf):  # NaN fails too
            raise ParameterError("beta must be finite and nonnegative")
        if self.kind in ("DilutedSK", "AntiferroExpander"):
            if self.d is None or self.d < 1:
                raise ParameterError(f"{self.kind} needs a positive degree d")
            if self.d >= self.n:
                raise ParameterError(f"degree d={self.d} must be < n={self.n}")
            if (self.n * self.d) % 2 != 0:
                raise ParameterError(f"n*d must be even for a {self.d}-regular graph")
        if self.kind == "BoundedWidthRandom":
            if not (is_real(self.width) and 0 < self.width < np.inf):
                raise ParameterError("BoundedWidthRandom needs a finite width > 0")


def _pairing_attempt(n: int, d: int, rng: np.random.Generator):
    """One configuration-model pairing; None unless the result is simple."""
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    a, b = stubs[0::2], stubs[1::2]
    if np.any(a == b):
        return None
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = lo * n + hi
    if np.unique(keys).size != keys.size:
        return None
    return lo, hi


def _regular_adjacency(n: int, d: int, rng: np.random.Generator, budget: int = 10_000) -> np.ndarray:
    for _ in range(budget):
        pairing = _pairing_attempt(n, d, rng)
        if pairing is not None:
            lo, hi = pairing
            adj = np.zeros((n, n))
            adj[lo, hi] = 1.0
            adj[hi, lo] = 1.0
            return adj
    raise GenerationError(
        f"no simple {d}-regular graph on {n} vertices found in {budget} pairings"
    )


def random_regular_graph(n: int, d: int, seed: int = 0) -> CouplingMatrix:
    """Uniform random simple d-regular graph, as a 0/1 adjacency pattern.

    Configuration-model pairing with a full restart whenever the pairing
    produces a self-loop or parallel edge, so accepted graphs are uniform.
    """
    if d < 1 or d >= n:
        raise ParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParameterError("n*d must be even")
    rng = stream(seed, _GRAPH_CODE, n, d)
    return CouplingMatrix(_regular_adjacency(n, d, rng))


def generate(spec: EnsembleSpec) -> IsingModel:
    """Draw the interaction matrix of the requested ensemble; the external
    field is always zero."""
    rng = stream(spec.seed, _KIND_CODE[spec.kind], spec.n)
    n = spec.n
    if spec.kind == "SK":
        upper = rng.normal(0.0, spec.beta / np.sqrt(n), size=(n, n))
        J = np.triu(upper, k=1)
        J = J + J.T
    elif spec.kind == "DilutedSK":
        adj = _regular_adjacency(n, spec.d, rng)
        weight = spec.beta / np.sqrt(spec.d - 1) if spec.d > 1 else spec.beta
        signs = np.where(rng.random((n, n)) < 0.5, 1.0, -1.0)
        signs = np.triu(signs, k=1)
        signs = signs + signs.T
        J = adj * signs * weight
    elif spec.kind == "CurieWeiss":
        J = (spec.beta / n) * (np.ones((n, n)) - np.eye(n))
    elif spec.kind == "AntiferroExpander":
        J = -spec.beta * _regular_adjacency(n, spec.d, rng)
    else:  # BoundedWidthRandom
        J = _bounded_width_matrix(n, spec.width, rng)
    return IsingModel.zero_field(CouplingMatrix(J))


def _bounded_width_matrix(n: int, width: float, rng: np.random.Generator) -> np.ndarray:
    """Sparse random symmetric matrix rescaled so the max row l1 norm is width.

    Erdos-Renyi pattern with expected degree 3 and uniform[-1, 1] weights; a
    global rescale then pins the infinity norm exactly.
    """
    p = min(3.0 / max(n - 1, 1), 1.0)
    for _ in range(100):
        mask = np.triu(rng.random((n, n)) < p, k=1)
        weights = rng.uniform(-1.0, 1.0, size=(n, n))
        J = np.where(mask, weights, 0.0)
        J = J + J.T
        inf_norm = np.abs(J).sum(axis=1).max()
        if inf_norm > 0:
            return J * (width / inf_norm)
    raise GenerationError("could not draw a nonzero sparse pattern in 100 tries")
