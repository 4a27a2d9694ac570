"""Structural probes: subset conditioning, regularity, metric comparison,
TV-versus-Frobenius bounds, and empirical gradient concentration.

These operate at enumeration scale (except the subset decomposition, which is
purely combinatorial) and are the numerical counterparts of the structural
guarantees the estimator relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, mple, sampler
from .core import (
    CouplingMatrix,
    GenerationError,
    IsingModel,
    ParameterError,
    ValidationError,
    stream,
)


def _probe_rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(name.encode()[:8].ljust(8, b"\0"), "big")
    return stream(seed, tag)


# ---------------------------------------------------------------------------
# Subset conditioning decomposition.
# ---------------------------------------------------------------------------

@dataclass
class SubsetDecomposition:
    """Subsets I_1..I_r covering [n] with equal per-node membership counts and
    every principal submatrix J_{I_j I_j} of width at most eta."""

    subsets: list[np.ndarray]
    eta: float
    membership_count: int

    @property
    def r(self) -> int:
        return len(self.subsets)


def _submatrix_width(absJ: np.ndarray, idx: np.ndarray) -> float:
    if idx.size == 0:
        return 0.0
    sub = absJ[np.ix_(idx, idx)]
    return float(sub.sum(axis=1).max())


def check_subset_decomposition(J: CouplingMatrix, dec: SubsetDecomposition) -> list[str]:
    """Independent certification: recompute widths and counts from scratch."""
    problems: list[str] = []
    absJ = np.abs(J.entries)
    counts = np.zeros(J.n, dtype=np.int64)
    for j, idx in enumerate(dec.subsets):
        idx = np.asarray(idx)
        if idx.size != np.unique(idx).size:
            problems.append(f"subset {j} has repeated nodes")
        width = _submatrix_width(absJ, idx)
        if width > dec.eta + 1e-12:
            problems.append(f"subset {j} width {width:.6g} exceeds eta {dec.eta:.6g}")
        counts[idx] += 1
    off = np.nonzero(counts != dec.membership_count)[0]
    for i in off[:5]:
        problems.append(
            f"node {i} appears {counts[i]} times, expected {dec.membership_count}"
        )
    if off.size > 5:
        problems.append(f"... {off.size - 5} more nodes with wrong counts")
    return problems


def subset_decomposition(
    J: CouplingMatrix,
    M: float,
    eta: float,
    seed: int = 0,
    count_constant: float = 64.0,
    max_retries: int = 200,
) -> SubsetDecomposition:
    """Randomized construction of the conditioning subsets.

    Samples r = ceil(C M^2 log n / eta^2) subsets by including each node
    independently with probability eta / (8M), resamples any subset whose
    principal submatrix width exceeds eta, then repairs the per-node
    membership counts: overcounted nodes are dropped from random subsets
    (always width-safe) and undercounted nodes are inserted wherever the
    width constraint allows. The result is certified by the independent
    checker before being returned.
    """
    n = J.n
    absJ = np.abs(J.entries)
    width = float(absJ.sum(axis=1).max())
    if width > M + 1e-12:
        raise ParameterError(f"matrix width {width:.6g} exceeds the stated bound {M:.6g}")
    if not 0 < eta < M:
        raise ParameterError("need 0 < eta < M")
    if width <= eta:
        return SubsetDecomposition(subsets=[np.arange(n)], eta=eta, membership_count=1)

    rng = _probe_rng(seed, "subsets")
    r = math.ceil(count_constant * M * M * math.log(n) / (eta * eta))
    p_include = eta / (8.0 * M)
    target = math.ceil(eta * r / (8.0 * M))

    members = rng.random((r, n)) < p_include
    for j in range(r):
        for attempt in range(max_retries + 1):
            idx = np.nonzero(members[j])[0]
            if _submatrix_width(absJ, idx) <= eta:
                break
            if attempt == max_retries:
                raise GenerationError(
                    f"subset {j} still has width {_submatrix_width(absJ, idx):.6g} > "
                    f"eta {eta:.6g} after {max_retries} redraws"
                )
            members[j] = rng.random(n) < p_include

    counts = members.sum(axis=0).astype(np.int64)
    subset_of = [set(np.nonzero(members[j])[0].tolist()) for j in range(r)]

    # Drop surplus memberships first; removals can only shrink widths.
    for i in range(n):
        while counts[i] > target:
            holders = [j for j in range(r) if i in subset_of[j]]
            j = holders[int(rng.integers(len(holders)))]
            subset_of[j].discard(i)
            counts[i] -= 1

    # Insert deficits where the width constraint allows.
    insert_budget = 1000 * max_retries
    for i in range(n):
        attempts = 0
        while counts[i] < target:
            attempts += 1
            if attempts > insert_budget:
                raise GenerationError(
                    f"could not rebalance node {i}: no width-compatible subset found"
                )
            j = int(rng.integers(r))
            if i in subset_of[j]:
                continue
            idx = np.fromiter(subset_of[j] | {i}, dtype=np.int64)
            if _submatrix_width(absJ, idx) <= eta:
                subset_of[j].add(i)
                counts[i] += 1

    dec = SubsetDecomposition(
        subsets=[np.array(sorted(s), dtype=np.int64) for s in subset_of],
        eta=eta,
        membership_count=target,
    )
    problems = check_subset_decomposition(J, dec)
    if problems:
        raise GenerationError("construction failed certification: " + "; ".join(problems))
    return dec


# ---------------------------------------------------------------------------
# Regularity of second moments under measure perturbation.
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    gamma_probe: float
    ratios: list[tuple[int, float]] = field(default_factory=list)
    max_ratio: float = 0.0
    excluded: int = 0


def regularity_probe(
    model: IsingModel,
    gamma: float,
    num_perturbations: int = 100,
    seed: int = 0,
    cap: int = exact.DEFAULT_ENUM_CAP,
) -> RegularityReport:
    """Sample directions A, rescale each so E_{J*}[||A X||^2] = gamma exactly,
    and report E_{J*+A}[||A X||^2] / gamma for each."""
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    n = model.n
    rng = _probe_rng(seed, "regular")
    report = RegularityReport(gamma_probe=gamma)
    base_table = exact.distribution(model, cap=cap)
    S = exact.all_states(n)
    base_probs = base_table.probs
    for pid in range(num_perturbations):
        raw = rng.normal(size=(n, n))
        raw = np.triu(raw, k=1)
        A = raw + raw.T
        e_star = float(base_probs @ ((S @ A) ** 2).sum(axis=1))
        if e_star <= 0:
            report.excluded += 1
            continue
        A = A * np.sqrt(gamma / e_star)
        perturbed = IsingModel(CouplingMatrix(model.coupling.entries + A), model.field)
        probs = exact.distribution(perturbed, cap=cap).probs
        e_pert = float(probs @ ((S @ A) ** 2).sum(axis=1))
        report.ratios.append((pid, e_pert / gamma))
    report.max_ratio = max((r for _, r in report.ratios), default=0.0)
    return report


@dataclass(frozen=True)
class MetricComparison:
    e_jstar: float  # E_{J*}[||(J2 - J*) X||^2]
    frob_sq: float  # ||J2 - J*||_F^2
    ratio: float
    degenerate: bool


def metric_comparison(
    model: IsingModel, J2: CouplingMatrix, cap: int = exact.DEFAULT_ENUM_CAP
) -> MetricComparison:
    """Compare the prediction-weighted second moment with plain Frobenius error."""
    delta = CouplingMatrix(J2.entries - model.coupling.entries)
    frob_sq = float((delta.entries**2).sum())
    if frob_sq == 0.0:
        return MetricComparison(e_jstar=0.0, frob_sq=0.0, ratio=float("nan"), degenerate=True)
    e_jstar = exact.moments(model, delta, cap=cap).second
    return MetricComparison(
        e_jstar=e_jstar, frob_sq=frob_sq, ratio=e_jstar / frob_sq, degenerate=False
    )


# ---------------------------------------------------------------------------
# TV against Frobenius.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TvFrobeniusReport:
    tv: float
    frob: float
    bound_ok: bool  # tv <= n * frob
    kl: float
    pinsker_ok: bool  # tv <= sqrt(kl / 2)


def tv_frobenius_check(
    m1: IsingModel, m2: IsingModel, cap: int = exact.DEFAULT_ENUM_CAP
) -> TvFrobeniusReport:
    """Exact TV between zero-field models against the n ||dJ||_F bound."""
    if m1.n != m2.n:
        raise ValidationError("dimension mismatch")
    if np.any(m1.field != 0) or np.any(m2.field != 0):
        raise ParameterError("the TV-Frobenius bound applies to zero external fields")
    p = exact.distribution(m1, cap=cap)
    q = exact.distribution(m2, cap=cap)
    tv = exact.tv_distance(p, q)
    kl = exact.kl_divergence(p, q)
    frob = float(np.linalg.norm(m1.coupling.entries - m2.coupling.entries))
    return TvFrobeniusReport(
        tv=tv,
        frob=frob,
        bound_ok=tv <= m1.n * frob + 1e-12,
        kl=kl,
        pinsker_ok=tv <= math.sqrt(kl / 2.0) + 1e-12,
    )


# ---------------------------------------------------------------------------
# Empirical concentration of the first directional derivative at the truth.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientConcentrationSummary:
    mean: float
    std: float
    exceed_fraction: dict[float, float]  # threshold multiple t -> P(|D| > t ||A||_F)
    values: np.ndarray


def gradient_concentration_probe(
    model: IsingModel,
    A: CouplingMatrix,
    l: int,
    batches: int,
    seed: int = 0,
    cap: int = exact.DEFAULT_ENUM_CAP,
    thresholds: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> GradientConcentrationSummary:
    """Distribution of the first derivative at the true matrix in direction A,
    over independent exact sample batches."""
    if batches < 2:
        raise ParameterError("need at least 2 batches")
    a_frob = float(np.linalg.norm(A.entries))
    rng = _probe_rng(seed, "gradcon")
    J_true = model.coupling
    values = np.empty(batches)
    for b in range(batches):
        batch_seed = int(rng.integers(0, 2**62))
        batch = sampler.exact_sample(model, l, seed=batch_seed, cap=cap)
        ctx = mple.PseudolikelihoodContext(batch, model.field)
        first, _ = mple.directional_derivatives(J_true, A, ctx)
        values[b] = first
    exceed = {
        t: float(np.mean(np.abs(values) > t * a_frob)) for t in thresholds
    }
    return GradientConcentrationSummary(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        exceed_fraction=exceed,
        values=values,
    )
