"""Frobenius projections onto the four constraint families.

Each family is the intersection of a "natural" convex set with the subspace
of symmetric zero-diagonal matrices. Projection onto each natural set alone
has a closed form (eigenvalue clipping, row-wise l1 projection, spike/bulk
split); projection onto the intersection is computed by Dykstra's alternating
scheme, which unlike plain alternating projection converges to the true
Frobenius-nearest point.

Families:

- OpNormBall(lam):      max |eigenvalue| <= lam
- SpectralSpread(s):    lambda_max - lambda_min <= s
- WidthBall(m):         every row l1 norm <= m
- AntiferroSpike(alpha, c): the all-ones vector is an eigenvector with
  eigenvalue in [-c, 0], and the spectrum on its orthogonal complement lies
  in [-alpha/2, alpha/2] (bulk interval of size alpha centered at zero; the
  centering fixes the trace gauge, which the zero-diagonal step absorbs).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CouplingMatrix, ParameterError, ValidationError, is_real

__all__ = [
    "ConstraintSet",
    "op_norm_ball",
    "spectral_spread",
    "width_ball",
    "antiferro_spike",
    "membership",
    "project",
    "project_l1_ball",
    "ProjectionConvergenceWarning",
]

# Each family's parameters, in describe() order; a family takes no others.
_PARAMS = {
    "OpNormBall": ("lam",),
    "SpectralSpread": ("s",),
    "WidthBall": ("m",),
    "AntiferroSpike": ("alpha", "c"),
}
KINDS = tuple(_PARAMS)

# Iteration budget sized so random desk-scale inputs reach tol 1e-8. Typical
# inputs need a few hundred iterations, but the linear rate degrades when the
# optimum sits on a degenerate spectral face (repeated clipped eigenvalues);
# worst observed ~2.6e4 iterations, budgeted with 4x headroom.
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class ConstraintSet:
    kind: str
    lam: float | None = None
    s: float | None = None
    m: float | None = None
    alpha: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ParameterError(f"unknown constraint kind {self.kind!r}")
        foreign = [p for ps in _PARAMS.values() for p in ps
                   if p not in _PARAMS[self.kind] and getattr(self, p) is not None]
        if foreign:
            raise ParameterError(f"{self.kind} takes no parameter {foreign[0]!r}")
        if self.kind == "OpNormBall":
            if not is_real(self.lam) or not self.lam > 0:  # NaN fails too
                raise ParameterError("OpNormBall needs lam > 0")
        elif self.kind == "SpectralSpread":
            if not is_real(self.s) or not 0 < self.s <= 1:
                raise ParameterError("SpectralSpread needs 0 < s <= 1")
        elif self.kind == "WidthBall":
            if not is_real(self.m) or not self.m > 0:
                raise ParameterError("WidthBall needs m > 0")
        else:  # AntiferroSpike
            if not is_real(self.alpha) or not 0 < self.alpha < 1:
                raise ParameterError("AntiferroSpike needs 0 < alpha < 1")
            if not is_real(self.c) or not self.c > 0:
                raise ParameterError("AntiferroSpike needs c > 0")

    def describe(self) -> str:
        params = " ".join(f"{name}={getattr(self, name):g}" for name in _PARAMS[self.kind])
        return f"{self.kind}({params})"


def op_norm_ball(lam: float) -> ConstraintSet:
    return ConstraintSet(kind="OpNormBall", lam=lam)


def spectral_spread(s: float) -> ConstraintSet:
    return ConstraintSet(kind="SpectralSpread", s=s)


def width_ball(m: float) -> ConstraintSet:
    return ConstraintSet(kind="WidthBall", m=m)


def antiferro_spike(alpha: float, c: float) -> ConstraintSet:
    return ConstraintSet(kind="AntiferroSpike", alpha=alpha, c=c)


class ProjectionConvergenceWarning(UserWarning):
    """Dykstra hit max_iter; carries the last iterate and its residual."""

    def __init__(self, message: str, iterate: np.ndarray, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


# ---------------------------------------------------------------------------
# Membership.
# ---------------------------------------------------------------------------

def _spike_bulk(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spike coordinate along 1/sqrt(n), cross-term vector, bulk operator."""
    n = a.shape[0]
    e = np.full(n, 1.0 / np.sqrt(n))
    ae = a @ e
    spike = float(e @ ae)
    cross = ae - spike * e
    bulk = a - np.outer(e, ae) - np.outer(ae, e) + spike * np.outer(e, e)
    return spike, cross, bulk


def membership(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> bool:
    """True iff every defining inequality holds within tol."""
    a = J.entries
    if cs.kind == "OpNormBall":
        eigs = np.linalg.eigvalsh(a)
        return float(np.abs(eigs).max()) <= cs.lam + tol
    if cs.kind == "SpectralSpread":
        eigs = np.linalg.eigvalsh(a)
        return float(eigs[-1] - eigs[0]) <= cs.s + tol
    if cs.kind == "WidthBall":
        return float(np.abs(a).sum(axis=1).max()) <= cs.m + tol
    spike, cross, bulk = _spike_bulk(a)
    if float(np.abs(cross).max()) > tol:
        return False
    if not (-cs.c - tol <= spike <= tol):
        return False
    eigs = np.linalg.eigvalsh(bulk)
    # the artificial zero eigenvalue along 1 sits inside [-alpha/2, alpha/2]
    return float(np.abs(eigs).max()) <= cs.alpha / 2 + tol


# ---------------------------------------------------------------------------
# Natural-set projections. Eigen-based sets first symmetrize, which is the
# exact Frobenius projection from a general matrix onto symmetric members.
# ---------------------------------------------------------------------------

def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball, by sort and soft threshold."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    k = np.nonzero(u * ks > css - radius)[0][-1]
    tau = (css[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def _spread_interval_start(v: np.ndarray, s: float) -> float:
    """t minimizing the total squared clip distance of v into [t, t+s].

    Half the derivative is L(t) - H(t) with L(t) = sum_{v_i <= t} (t - v_i)
    and H(t) = sum_{v_i >= t+s} (v_i - s - t): continuous, piecewise linear,
    nondecreasing. Scan the segments between the breakpoints {v_i, v_i - s}
    for the sign change and solve the affine segment exactly; the root is
    unique whenever v does not already fit in a window of length s.
    """
    v = np.sort(v)
    points = np.unique(np.concatenate([v, v - s]))

    def deriv(t: float) -> float:
        return float((t - v[v <= t]).sum() - (v[v >= t + s] - s - t).sum())

    if deriv(points[0]) >= 0:
        return float(points[0])
    prev = points[0]
    for b in points[1:]:
        if deriv(b) >= 0:
            mid = 0.5 * (prev + b)
            k_low = int((v <= mid).sum())
            k_high = int((v >= mid + s).sum())
            sum_low = float(v[v <= mid].sum())
            sum_high = float(v[v >= mid + s].sum())
            return (sum_low + sum_high - k_high * s) / (k_low + k_high)
        prev = b
    return float(points[-1])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _natural_projection(cs: ConstraintSet, a: np.ndarray) -> np.ndarray:
    if cs.kind == "WidthBall":
        out = np.empty_like(a)
        for i in range(a.shape[0]):
            out[i] = project_l1_ball(a[i], cs.m)
        return out
    sym = _symmetrize(a)
    if cs.kind == "OpNormBall":
        w, V = np.linalg.eigh(sym)
        return (V * np.clip(w, -cs.lam, cs.lam)) @ V.T
    if cs.kind == "SpectralSpread":
        w, V = np.linalg.eigh(sym)
        if w[-1] - w[0] <= cs.s:
            return sym
        t = _spread_interval_start(w, cs.s)
        return (V * np.clip(w, t, t + cs.s)) @ V.T
    # AntiferroSpike: clip the spike coordinate and eigen-clip the bulk,
    # keeping the cross terms; the affine factor of the Dykstra pair kills
    # them, so this factor only carries the spectral inequalities.
    n = a.shape[0]
    spike, cross, bulk = _spike_bulk(sym)
    w, V = np.linalg.eigh(bulk)
    half = cs.alpha / 2.0
    bulk_p = (V * np.clip(w, -half, half)) @ V.T
    e = np.full(n, 1.0 / np.sqrt(n))
    return (
        bulk_p
        + np.clip(spike, -cs.c, 0.0) * np.outer(e, e)
        + np.outer(e, cross)
        + np.outer(cross, e)
    )


def _proj_zero_diag(a: np.ndarray) -> np.ndarray:
    out = _symmetrize(a)
    np.fill_diagonal(out, 0.0)
    return out


def _proj_zero_diag_equal_rowsums(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {S symmetric, diag S = 0, S 1 = sigma 1}.

    Folding the eigenvector-alignment constraint into the affine factor keeps
    Dykstra fast for the spike family; alternating it against the spectral
    factor alone converges at a badly conditioned angle. Writing the
    correction as diag(mu) + sym(nu 1^T) with mean-zero nu, the stationarity
    conditions solve in closed form:

        nu = (Q diag(a) - Q a 1) / (1 - n/2),   Q = I - 1 1^T / n
        mu = diag(a) - nu

    For n <= 2 the row-sum constraint is implied by the zero diagonal.
    """
    s = _symmetrize(a)
    n = s.shape[0]
    if n <= 2:
        out = s.copy()
        np.fill_diagonal(out, 0.0)
        return out
    diag = np.diag(s).copy()
    row_sums = s.sum(axis=1)
    nu = (diag - diag.mean()) - (row_sums - row_sums.mean())
    nu /= 1.0 - 0.5 * n
    mu = diag - nu
    out = s - np.diag(mu) - 0.5 * (np.outer(nu, np.ones(n)) + np.outer(np.ones(n), nu))
    np.fill_diagonal(out, 0.0)
    return out


def project_array(
    cs: ConstraintSet, a: np.ndarray, tol: float = 1e-8, max_iter: int = DEFAULT_MAX_ITER
) -> np.ndarray:
    """Dykstra iteration on a raw array; returns a symmetric zero-diag array."""
    proj_affine = (
        _proj_zero_diag_equal_rowsums if cs.kind == "AntiferroSpike" else _proj_zero_diag
    )
    x = np.array(a, dtype=np.float64)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        y = proj_affine(x + p)
        p = x + p - y
        x_new = _natural_projection(cs, y + q)
        q = y + q - x_new
        gap = float(np.linalg.norm(y - x_new))
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if gap <= tol and step <= tol:
            return _proj_zero_diag(x)
    residual = float(np.linalg.norm(_proj_zero_diag(x) - x))
    warnings.warn(
        ProjectionConvergenceWarning(
            f"projection onto {cs.describe()} stopped after {max_iter} iterations "
            f"(residual {residual:.3g})",
            iterate=_proj_zero_diag(x),
            residual=residual,
        )
    )
    return _proj_zero_diag(x)


def project(
    cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8, max_iter: int = DEFAULT_MAX_ITER
) -> CouplingMatrix:
    """Frobenius-nearest point of the constraint family intersected with the
    symmetric zero-diagonal subspace."""
    if not isinstance(J, CouplingMatrix):
        raise ValidationError("project expects a CouplingMatrix")
    return CouplingMatrix(project_array(cs, J.entries, tol=tol, max_iter=max_iter))
