"""Frobenius projections onto the four constraint families.

A family (`OpNormBall`, `SpectralSpread`, `WidthBall`, `AntiferroSpike`, by
name in ``FAMILIES``) is a frozen dataclass whose fields are its parameters,
checked when built: the intersection of a "natural" convex set with a linear
subspace of symmetric zero-diagonal matrices. It carries ``member(a, tol)``
(its inequalities hold within tol) and closed-form projections onto the two
factors, ``natural(a)`` (eigenvalue clipping, row-wise l1 projection,
spike/bulk clipping) and ``affine(a)``. Dykstra's scheme alternates them and
converges to the Frobenius-nearest point; its correction for the subspace never
moves an iterate, so it is ascent on the subspace constraints' multiplier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import CouplingMatrix, ParameterError, ValidationError, is_real

__all__ = [
    "ConstraintSet", "OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike", "FAMILIES",
    "membership", "project", "project_l1_ball", "ProjectionConvergenceWarning",
]

# Iteration budget sized so random desk-scale inputs reach tol 1e-8. Typical
# inputs need a few hundred iterations, but the linear rate degrades when the
# optimum sits on a degenerate spectral face (repeated clipped eigenvalues);
# worst observed ~2.6e4 iterations, budgeted with 4x headroom. Read at call time.
DEFAULT_MAX_ITER = 100_000


class ProjectionConvergenceWarning(UserWarning):
    """Dykstra hit DEFAULT_MAX_ITER; carries the last iterate and its residual."""

    def __init__(self, message: str, iterate: np.ndarray, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


# ---------------------------------------------------------------------------
# Closed-form factors. Eigen-based sets first symmetrize, which is the exact
# Frobenius projection from a general matrix onto symmetric members.
# ---------------------------------------------------------------------------

def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _spike_bulk(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spike coordinate along 1/sqrt(n), cross-term vector, bulk operator."""
    n = a.shape[0]
    e = np.full(n, 1.0 / np.sqrt(n))
    ae = a @ e
    spike = float(e @ ae)
    cross = ae - spike * e
    bulk = a - np.outer(e, ae) - np.outer(ae, e) + spike * np.outer(e, e)
    return spike, cross, bulk


def _l1_rows(a: np.ndarray, radius: float) -> np.ndarray:
    """Each row of a 2-D array projected onto the l1 ball, by sort and soft threshold."""
    mag = np.abs(a)
    inside = mag.sum(axis=1) <= radius
    u = np.sort(mag, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    above = u * np.arange(1, u.shape[1] + 1) > css - radius
    above[:, 0] = True  # exact for k = 0; rounding can lose it when radius << u_0
    k = u.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)  # the last k where it holds
    tau = np.where(inside, 0.0, (css[np.arange(k.size), k] - radius) / (k + 1.0))
    return np.where(inside[:, None], a, np.sign(a) * np.maximum(mag - tau[:, None], 0.0))


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a vector, or of each row of a 2-D array, onto the l1 ball."""
    if not is_real(radius) or not 0 < radius < np.inf:
        raise ParameterError(f"l1 ball radius must be positive and finite, got {radius!r}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim > 2 or v.size == 0 or not np.isfinite(v).all():
        raise ValidationError("project_l1_ball needs a non-empty vector or 2-D array, all finite")
    return _l1_rows(np.atleast_2d(v), radius).reshape(v.shape)


def _spread_interval_start(v: np.ndarray, s: float) -> float:
    """t minimizing the total squared clip distance of v into [t, t+s].

    Half the derivative is D(t) = sum (t - v_i)_+ - sum (v_i - s - t)_+:
    continuous, piecewise linear and nondecreasing, with breakpoints
    {v_i, v_i - s}. Evaluate D at every breakpoint at once and solve the affine
    segment ending at the first where D >= 0; the root is unique whenever v
    does not already fit in a window of length s.
    """
    v = np.sort(v)
    points = np.unique(np.concatenate([v, v - s]))
    d = (np.maximum(points[:, None] - v, 0.0).sum(axis=1)
         - np.maximum(v - s - points[:, None], 0.0).sum(axis=1))
    j = int(np.argmax(d >= 0))  # D(max v) >= 0, so some breakpoint qualifies
    if j == 0:
        return float(points[0])
    mid = 0.5 * (points[j - 1] + points[j])
    low, high = v <= mid, v >= mid + s
    return float((v[low].sum() + v[high].sum() - high.sum() * s) / (low.sum() + high.sum()))


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
    n = a.shape[0]
    if n <= 2:
        return _proj_zero_diag(a)
    s = _symmetrize(a)
    diag = np.diag(s).copy()
    row_sums = s.sum(axis=1)
    nu = (diag - diag.mean()) - (row_sums - row_sums.mean())
    nu /= 1.0 - 0.5 * n
    # mu only moves the diagonal, which is zeroed anyway
    out = s - 0.5 * (nu[:, None] + nu)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# The families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSet:
    """Base of the families; a subclass defines ``member`` and ``natural``."""

    affine = staticmethod(_proj_zero_diag)

    @property
    def kind(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        params = " ".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}({params})"


@dataclass(frozen=True)
class OpNormBall(ConstraintSet):
    """max |eigenvalue| <= lam."""

    lam: float

    def __post_init__(self):
        if not is_real(self.lam) or not self.lam > 0:  # NaN fails too
            raise ParameterError("OpNormBall needs lam > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        return float(np.abs(np.linalg.eigvalsh(a)).max()) <= self.lam + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        w, V = np.linalg.eigh(_symmetrize(a))
        return (V * np.clip(w, -self.lam, self.lam)) @ V.T


@dataclass(frozen=True)
class SpectralSpread(ConstraintSet):
    """lambda_max - lambda_min <= s."""

    s: float

    def __post_init__(self):
        if not is_real(self.s) or not 0 < self.s <= 1:
            raise ParameterError("SpectralSpread needs 0 < s <= 1")

    def member(self, a: np.ndarray, tol: float) -> bool:
        eigs = np.linalg.eigvalsh(a)
        return float(eigs[-1] - eigs[0]) <= self.s + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        sym = _symmetrize(a)
        w, V = np.linalg.eigh(sym)
        if w[-1] - w[0] <= self.s:
            return sym
        t = _spread_interval_start(w, self.s)
        return (V * np.clip(w, t, t + self.s)) @ V.T


@dataclass(frozen=True)
class WidthBall(ConstraintSet):
    """Every row l1 norm <= m."""

    m: float

    def __post_init__(self):
        if not is_real(self.m) or not self.m > 0:
            raise ParameterError("WidthBall needs m > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        return float(np.abs(a).sum(axis=1).max()) <= self.m + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        return _l1_rows(a, self.m)


@dataclass(frozen=True)
class AntiferroSpike(ConstraintSet):
    """The all-ones vector is an eigenvector with eigenvalue in [-c, 0], and
    the spectrum on its orthogonal complement lies in [-alpha/2, alpha/2]
    (bulk interval of size alpha centered at zero; the centering fixes the
    trace gauge, which the zero-diagonal step absorbs)."""

    alpha: float
    c: float

    affine = staticmethod(_proj_zero_diag_equal_rowsums)

    def __post_init__(self):
        if not is_real(self.alpha) or not 0 < self.alpha < 1:
            raise ParameterError("AntiferroSpike needs 0 < alpha < 1")
        if not is_real(self.c) or not self.c > 0:
            raise ParameterError("AntiferroSpike needs c > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        spike, cross, bulk = _spike_bulk(a)
        if float(np.abs(cross).max()) > tol or not -self.c - tol <= spike <= tol:
            return False
        # the artificial zero eigenvalue along 1 sits inside [-alpha/2, alpha/2]
        return float(np.abs(np.linalg.eigvalsh(bulk)).max()) <= self.alpha / 2 + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        # Clip the spike and eigen-clip the bulk; the cross terms, orthogonal to
        # both and zero on the set, are dropped.
        spike, _, bulk = _spike_bulk(_symmetrize(a))
        w, V = np.linalg.eigh(bulk)
        e = np.full(a.shape[0], 1.0 / np.sqrt(a.shape[0]))
        return (
            (V * np.clip(w, -self.alpha / 2, self.alpha / 2)) @ V.T
            + np.clip(spike, -self.c, 0.0) * np.outer(e, e)
        )


FAMILIES = {cls.__name__: cls for cls in (OpNormBall, SpectralSpread, WidthBall, AntiferroSpike)}


def membership(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> bool:
    """True iff every defining inequality holds within tol."""
    return cs.member(J.entries, tol)


def project_array(cs: ConstraintSet, a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Dykstra iteration on a raw array; returns the last affine step."""
    x = np.asarray(a, dtype=np.float64)
    y = cs.affine(x)
    w = y.copy()  # the natural factor's input; w - cs.affine(a) is the multiplier
    for _ in range(DEFAULT_MAX_ITER):
        x_new = cs.natural(w)
        done = np.linalg.norm(y - x_new) <= tol and np.linalg.norm(x_new - x) <= tol
        x, y = x_new, cs.affine(x_new)
        if done:
            return y
        w += y - x
    residual = float(np.linalg.norm(y - x))
    warnings.warn(
        ProjectionConvergenceWarning(
            f"projection onto {cs.describe()} stopped after {DEFAULT_MAX_ITER} iterations "
            f"(residual {residual:.3g})",
            iterate=y,
            residual=residual,
        )
    )
    return y


def project(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> CouplingMatrix:
    """Frobenius-nearest point of the constraint family intersected with the
    symmetric zero-diagonal subspace."""
    if not isinstance(J, CouplingMatrix):
        raise ValidationError("project expects a CouplingMatrix")
    return CouplingMatrix(project_array(cs, J.entries, tol=tol))
