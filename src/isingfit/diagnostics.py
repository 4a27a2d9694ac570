"""Structural probes: subset conditioning, regularity, metric comparison,
TV-versus-Frobenius bounds, and empirical gradient concentration; and
:func:`pair_metrics`, the one comparison of two models, which ``evaluate``,
``sweep`` and the TV-versus-Frobenius check share.

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
    SampleBatch,
    ValidationError,
    is_int,
    is_real,
    stream,
)

__all__ = [
    "SubsetDecomposition", "subset_decomposition", "check_subset_decomposition",
    "RegularityReport", "regularity_probe", "MetricComparison", "metric_comparison",
    "PAIR_METRICS", "check_metrics", "pair_metrics", "TvFrobeniusReport", "tv_frobenius_check",
    "GradientConcentrationSummary", "gradient_concentration_probe",
]


def _probe_rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(name.encode()[:8].ljust(8, b"\0"), "big")
    return stream(seed, tag)


# ---------------------------------------------------------------------------
# Subset conditioning decomposition.
# ---------------------------------------------------------------------------

_COUNT_CONSTANT = 64.0  # C in r = ceil(C M^2 log n / eta^2)
_MAX_RETRIES = 200  # redraws of one over-wide subset


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
    return float(absJ[idx][:, idx].sum(axis=1).max())


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
    if not 0 < eta < M < np.inf:  # NaN fails too
        raise ParameterError("need 0 < eta < M < inf")
    rng = _probe_rng(seed, "subsets")  # checks the seed, which the one-subset answer ignores
    if width <= eta:
        return SubsetDecomposition(subsets=[np.arange(n)], eta=eta, membership_count=1)

    r = math.ceil(_COUNT_CONSTANT * M * M * math.log(n) / (eta * eta))
    p_include = eta / (8.0 * M)
    target = math.ceil(eta * r / (8.0 * M))

    members = rng.random((r, n)) < p_include  # row j is subset j, column i node i's holders
    for j in range(r):
        for attempt in range(_MAX_RETRIES + 1):
            idx = np.flatnonzero(members[j])
            if _submatrix_width(absJ, idx) <= eta:
                break
            if attempt == _MAX_RETRIES:
                raise GenerationError(
                    f"subset {j} still has width {_submatrix_width(absJ, idx):.6g} > "
                    f"eta {eta:.6g} after {_MAX_RETRIES} redraws"
                )
            members[j] = rng.random(n) < p_include

    # Drop surplus memberships first; removals can only shrink widths.
    for i in range(n):
        for _ in range(int(members[:, i].sum()) - target):
            holders = np.flatnonzero(members[:, i])
            members[holders[rng.integers(holders.size)], i] = False

    # Insert deficits where the width constraint allows.
    insert_budget = 1000 * _MAX_RETRIES
    for i in range(n):
        deficit = target - int(members[:, i].sum())
        attempts = 0
        while deficit > 0:
            attempts += 1
            if attempts > insert_budget:
                raise GenerationError(
                    f"could not rebalance node {i}: no width-compatible subset found"
                )
            j = int(rng.integers(r))
            if members[j, i]:
                continue
            members[j, i] = True
            if _submatrix_width(absJ, np.flatnonzero(members[j])) <= eta:
                deficit -= 1
            else:
                members[j, i] = False

    dec = SubsetDecomposition(subsets=list(map(np.flatnonzero, members)), eta=eta,
                              membership_count=target)
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
) -> RegularityReport:
    """Sample directions A, rescale each so E_{J*}[||A X||^2] = gamma exactly,
    and report E_{J*+A}[||A X||^2] / gamma for each."""
    if not (is_real(gamma) and 0 < gamma < np.inf):  # NaN fails too
        raise ParameterError("gamma must be positive and finite")
    if not (is_int(num_perturbations) and num_perturbations >= 1):
        raise ParameterError("num_perturbations must be an integer >= 1")
    n = model.n
    rng = _probe_rng(seed, "regular")
    report = RegularityReport(gamma_probe=gamma)
    base_second = exact.second_moments(exact.distribution(model))[1]
    for pid in range(num_perturbations):
        raw = np.triu(rng.normal(size=(n, n)), k=1)
        A = raw + raw.T
        A_sq = A @ A  # E||A x||^2 = <A^2, E[x x^T]>
        e_star = float(np.vdot(A_sq, base_second))
        if e_star <= 0:
            report.excluded += 1
            continue
        A *= np.sqrt(gamma / e_star)
        # a temporary table, so one is alive when the next is built
        second = exact.second_moments(exact._table(model.coupling.entries + A, model.field))[1]
        # the rescaled direction's ||A x||^2 is (gamma / e_star) * x^T A_sq x
        report.ratios.append((pid, float(np.vdot(A_sq, second)) / e_star))
    report.max_ratio = max((r for _, r in report.ratios), default=0.0)
    return report


@dataclass(frozen=True)
class MetricComparison:
    e_jstar: float  # E_{J*}[||(J2 - J*) X||^2]
    frob_sq: float  # ||J2 - J*||_F^2
    ratio: float
    degenerate: bool


def metric_comparison(model: IsingModel, J2: CouplingMatrix) -> MetricComparison:
    """Compare the prediction-weighted second moment with plain Frobenius error."""
    if J2.n != model.n:
        raise ValidationError(f"dimension mismatch: {J2.n} vs {model.n}")
    delta = J2.entries - model.coupling.entries
    frob_sq = float((delta**2).sum())
    if frob_sq == 0.0:
        return MetricComparison(e_jstar=0.0, frob_sq=0.0, ratio=float("nan"), degenerate=True)
    second = exact.second_moments(exact.distribution(model))[1]
    e_jstar = float(np.vdot(delta @ delta, second))  # E||D x||^2 = <D^2, E[x x^T]>
    return MetricComparison(
        e_jstar=e_jstar, frob_sq=frob_sq, ratio=e_jstar / frob_sq, degenerate=False
    )


# ---------------------------------------------------------------------------
# Metrics between two models, and TV against Frobenius.
# ---------------------------------------------------------------------------

PAIR_METRICS = ("frobenius", "tv_exact", "kl_exact", "op_norm_err")


def check_metrics(metrics) -> None:
    """Raise ParameterError unless every name in ``metrics`` is one of :data:`PAIR_METRICS`."""
    for m in metrics:
        if m not in PAIR_METRICS:
            raise ParameterError(f"metrics: unknown metric {m!r}")


def pair_metrics(truth: IsingModel, est: IsingModel, metrics,
                 p_true: exact.DistributionTable | None = None) -> dict[str, float]:
    """The named :data:`PAIR_METRICS` of ``est`` against ``truth``; KL is KL(est || truth).

    Unknown names and an n other than the truth's are rejected before any work.
    Only the exact metrics build tables. The truth's is stored, and a caller may pass
    it as ``p_true``; the estimate's is streamed (``exact.distribution(est,
    streamed=True)``), so no estimate table is held.
    """
    check_metrics(metrics)
    if est.n != truth.n:
        raise ValidationError(f"dimension mismatch: {est.n} vs {truth.n}")
    out: dict[str, float] = {}
    with np.errstate(over="ignore"):  # inf only where a difference or the norm is not a float
        delta = est.coupling.entries - truth.coupling.entries
        finite = bool(np.isfinite(delta).all())
        if "frobenius" in metrics:  # where the squares overflow, again over the largest entry
            out["frobenius"] = float(np.linalg.norm(delta))
            if out["frobenius"] == np.inf and finite:
                top = float(np.abs(delta).max())
                out["frobenius"] = top * float(np.linalg.norm(delta / top))
        if "op_norm_err" in metrics:  # eigvalsh does not converge on an inf entry
            out["op_norm_err"] = float(np.abs(np.linalg.eigvalsh(delta)).max()) if finite else np.inf
    if "tv_exact" in metrics or "kl_exact" in metrics:
        p_est = exact.distribution(est, streamed=True)
        p_true = p_true or exact.distribution(truth)
        if "tv_exact" in metrics:
            out["tv_exact"] = exact.tv_distance(p_est, p_true)
        if "kl_exact" in metrics:
            out["kl_exact"] = exact.kl_divergence(p_est, p_true)
    return out


@dataclass(frozen=True)
class TvFrobeniusReport:
    tv: float
    frob: float
    bound_ok: bool  # tv <= n * frob
    kl: float  # KL(m1 || m2)
    pinsker_ok: bool  # tv <= sqrt(kl / 2)


def tv_frobenius_check(m1: IsingModel, m2: IsingModel) -> TvFrobeniusReport:
    """Exact TV between zero-field models against the n ||dJ||_F bound."""
    if np.any(m1.field != 0) or np.any(m2.field != 0):
        raise ParameterError("the TV-Frobenius bound applies to zero external fields")
    values = pair_metrics(m2, m1, ("frobenius", "tv_exact", "kl_exact"))  # m1 as the estimate
    tv, frob, kl = values["tv_exact"], values["frobenius"], values["kl_exact"]
    return TvFrobeniusReport(tv=tv, frob=frob, bound_ok=tv <= m1.n * frob + 1e-12, kl=kl,
                             pinsker_ok=tv <= math.sqrt(kl / 2.0) + 1e-12)


# ---------------------------------------------------------------------------
# Empirical concentration of the first directional derivative at the truth.
# ---------------------------------------------------------------------------

# Keys per walk of the table: 8 batches of l = 1000. Each walk is a cumsum of the
# table; one walk for 50 such batches held 1.8 MB more at n = 16 and was no faster.
_DRAW_KEYS = 1 << 13


@dataclass(frozen=True)
class GradientConcentrationSummary:
    mean: float
    std: float
    exceed_fraction: dict[float, float]  # t in (1, 2, 4) -> P(|D| > t ||A||_F)
    values: np.ndarray


def gradient_concentration_probe(
    model: IsingModel,
    A: CouplingMatrix,
    l: int,
    batches: int,
    seed: int = 0,
) -> GradientConcentrationSummary:
    """Distribution of the first derivative at the true matrix in direction A,
    over independent exact sample batches.

    Batch b's value is ``mple.directional_derivatives(model.coupling, A, ctx)[0]``
    bit for bit, ctx the context of ``sampler.exact_sample(model, l, seed_b)``, but
    the batch goes from its drawn state indices straight to that context's rows
    and weights and takes the first derivative alone.
    """
    if not is_int(batches):
        raise ParameterError("batches must be an integer")
    if batches < 2:
        raise ParameterError("need at least 2 batches")
    sampler._check_count(l)
    if A.n != model.n:
        raise ValidationError(f"dimension mismatch: A is {A.n}, samples are {model.n}")
    a_frob = float(np.linalg.norm(A.entries))
    rng = _probe_rng(seed, "gradcon")
    seeds = [int(rng.integers(0, 2**62)) for _ in range(batches)]
    table = exact.distribution(model)  # one table serves every batch
    n, J, h = model.n, model.coupling.entries, model.field
    values = np.empty(batches)
    step = max(1, _DRAW_KEYS // l)
    for start in range(0, batches, step):
        idx = sampler._exact_indices(table, l, seeds[start:start + step])[0]
        for b, row in enumerate(idx, start):
            x, w = mple._fold(n, l, lambda: row, lambda: exact.states(row, n))
            SampleBatch(x)  # the batch's one +-1 check
            values[b] = mple._first(J, A.entries, x, w, h)[0]
    exceed = {t: float(np.mean(np.abs(values) > t * a_frob)) for t in (1.0, 2.0, 4.0)}
    return GradientConcentrationSummary(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        exceed_fraction=exceed,
        values=values,
    )
