"""Frobenius projections onto the four constraint families.

A family (`OpNormBall`, `SpectralSpread`, `WidthBall`, `AntiferroSpike`, by
name in ``FAMILIES``) is a frozen dataclass whose fields are its parameters,
checked when built: the intersection of a "natural" convex set with the
symmetric zero-diagonal matrices. It carries ``member(a, tol)`` (its
inequalities hold within tol) and ``natural(a)``, the closed-form projection
onto the natural set (eigenvalue clipping, row-wise l1 projection, spike/bulk
clipping). ``dual_solve`` projects by Newton's method on n multipliers y of
the affine constraints (Malick 2004; Qi and Sun 2006). With A0 the input's
symmetric part with zero diagonal, a spectral family's point is natural(Z),
Z = A0 + Diag y, at the minimizer of the convex
theta(y) = |y|^2/2 - |Z - natural(Z)|^2/2, whose gradient is diag natural(Z);
AntiferroSpike's natural set has equal row sums, so it needs no more
multipliers. WidthBall's entry ij is soft(A0_ij, (y_i + y_j) / 2) for row
multipliers y >= 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import CouplingMatrix, ParameterError, ValidationError, is_real

__all__ = [
    "ConstraintSet", "OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike", "FAMILIES",
    "membership", "project", "dual_solve", "project_l1_ball", "ProjectionConvergenceWarning",
]

# Newton step budget; far inputs (scale up to 1e2, n up to 30) were seen to
# need up to 67, fit inputs up to 6. Read at call time.
DEFAULT_MAX_ITER = 100


class ProjectionConvergenceWarning(UserWarning):
    """Newton hit DEFAULT_MAX_ITER; carries the last iterate and its KKT residual."""

    def __init__(self, message: str, iterate: np.ndarray, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _spike_bulk(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spike coordinate along 1/sqrt(n), cross-term vector, bulk operator."""
    n = a.shape[0]
    off = np.eye(n) - 1.0 / n  # the projector off the ones direction
    rows = a.sum(axis=1)
    return float(rows.sum()) / n, (rows - rows.mean()) / np.sqrt(n), off @ a @ off


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


def _eigen_clip(w, V, lo, hi):
    """V clip(w, lo, hi) V^T and a function giving the Jacobian of its diagonal in
    the input's diagonal: W diag(vec Omega) W^T, W[i, (k, l)] = V_ik V_il, Omega
    the Loewner divided differences of the clip."""
    f = np.clip(w, lo, hi)

    def jacobian():
        inside = ((w > lo) & (w < hi)).astype(np.float64)
        dw = w[:, None] - w
        omega = np.divide(f[:, None] - f, dw, out=np.outer(inside, inside), where=dw != 0)
        W = (V[:, :, None] * V[:, None, :]).reshape(w.size, -1)
        return (W * omega.ravel()) @ W.T

    return (V * f) @ V.T, jacobian


@dataclass(frozen=True)
class ConstraintSet:
    """Base of the families. A spectral family defines ``_clip(z)``: the natural
    point of a symmetric z and the lazy Jacobian of its diagonal in diag z."""

    lower = -np.inf  # the multipliers' bound

    @property
    def kind(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        params = " ".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}({params})"

    def natural(self, a: np.ndarray) -> np.ndarray:
        return self._clip(_symmetrize(a))[0]

    def _dual(self, a0: np.ndarray, y: np.ndarray):
        """theta, its gradient, a function giving its Hessian, natural(Z), |diag natural(Z)|."""
        z = a0 + np.diag(y)
        x, jacobian = self._clip(z)
        grad = np.diag(x).copy()
        return 0.5 * (y @ y - np.sum((z - x) ** 2)), grad, jacobian, x, float(np.linalg.norm(grad))


@dataclass(frozen=True)
class OpNormBall(ConstraintSet):
    """max |eigenvalue| <= lam."""

    lam: float

    def __post_init__(self):
        if not is_real(self.lam) or not self.lam > 0:  # NaN fails too
            raise ParameterError("OpNormBall needs lam > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        return float(np.abs(np.linalg.eigvalsh(a)).max()) <= self.lam + tol

    def _clip(self, z):
        return _eigen_clip(*np.linalg.eigh(z), -self.lam, self.lam)


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

    def _clip(self, z):
        w, V = np.linalg.eigh(z)
        if w[-1] - w[0] <= self.s:
            return z, lambda: np.eye(w.size)
        t = _spread_interval_start(w, self.s)
        x, jacobian = _eigen_clip(w, V, t, t + self.s)
        # the window start t moves with the mean of the clipped eigenvalues
        clipped = (w < t) | (w > t + self.s)
        u = (V[:, clipped] ** 2).sum(axis=1)
        return x, lambda: jacobian() + np.outer(u, u) / clipped.sum()


@dataclass(frozen=True)
class WidthBall(ConstraintSet):
    """Every row l1 norm <= m."""

    m: float

    lower = 0.0

    def __post_init__(self):
        if not is_real(self.m) or not self.m > 0:
            raise ParameterError("WidthBall needs m > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        return float(np.abs(a).sum(axis=1).max()) <= self.m + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        return _l1_rows(a, self.m)

    def _dual(self, a0: np.ndarray, lam: np.ndarray):
        """As for the spectral families, with theta minus the Lagrange dual in the row
        multipliers and the residual max |min(lam, slack)|."""
        t = 0.5 * (lam[:, None] + lam)
        active = np.abs(a0) > t
        x = np.where(active, a0 - np.sign(a0) * t, 0.0)
        grad = self.m - np.abs(x).sum(axis=1)
        theta = self.m * lam.sum() - 0.5 * np.sum((x - a0) ** 2 + 2.0 * t * np.abs(x))
        hessian = lambda: 0.5 * (np.diag(active.sum(axis=1)) + active)  # noqa: E731
        return theta, grad, hessian, x, float(np.abs(np.minimum(lam, grad)).max())


@dataclass(frozen=True)
class AntiferroSpike(ConstraintSet):
    """The all-ones vector is an eigenvector with eigenvalue in [-c, 0], and
    the spectrum on its orthogonal complement lies in [-alpha/2, alpha/2]
    (bulk interval of size alpha centered at zero; the centering fixes the
    trace gauge, which the zero-diagonal step absorbs)."""

    alpha: float
    c: float

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

    def _clip(self, z):
        # Clip the spike and eigen-clip the bulk; the cross terms, orthogonal to
        # both and zero on the set, are dropped. The eigenvectors are taken off
        # the ones direction, where the bulk's artificial zero eigenvalue lies.
        spike, _, bulk = _spike_bulk(z)
        w, V = np.linalg.eigh(bulk)
        x, jacobian = _eigen_clip(w, V - V.mean(axis=0), -self.alpha / 2, self.alpha / 2)
        x += min(max(spike, -self.c), 0.0) / w.size
        return x, lambda: jacobian() + (-self.c < spike < 0) / w.size**2


FAMILIES = {cls.__name__: cls for cls in (OpNormBall, SpectralSpread, WidthBall, AntiferroSpike)}


def membership(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> bool:
    """True iff every defining inequality holds within tol."""
    return cs.member(J.entries, tol)


def dual_solve(cs: ConstraintSet, a: np.ndarray, tol: float = 1e-8):
    """Nearest symmetric zero-diagonal point of cs to a raw array, its multipliers
    and its KKT residual, found by Newton on the dual from y = 0.

    eps = min(1e-4, residual) regularizes the Hessian; a multiplier within eps of
    its bound whose gradient pushes it out takes a gradient step (Bertsekas'
    projected Newton). Steps backtrack by Armijo on theta; a step that changes
    theta only by rounding is also taken when it lowers the residual.
    """
    a0 = _proj_zero_diag(np.asarray(a, dtype=np.float64))
    y = np.zeros(a0.shape[0])
    theta, grad, hessian, x, residual = cs._dual(a0, y)
    for _ in range(DEFAULT_MAX_ITER):
        if residual <= tol:
            break
        eps = min(1e-4, residual)
        free = (y > cs.lower + eps) | (grad <= 0)
        d = -grad
        d[free] = np.linalg.solve(hessian()[np.ix_(free, free)] + eps * np.eye(free.sum()), d[free])
        for step in 0.5 ** np.arange(60):
            y_new = np.maximum(y + step * d, cs.lower)
            trial = cs._dual(a0, y_new)
            flat = abs(trial[0] - theta) <= 1e-13 * max(1.0, abs(theta)) and trial[4] < residual
            if flat or trial[0] <= theta - 1e-4 * float(grad @ (y - y_new)):
                break
        else:
            break  # no decrease left but rounding
        y, (theta, grad, hessian, x, residual) = y_new, trial
    x = _proj_zero_diag(x)
    if residual > tol:
        message = (f"projection onto {cs.describe()} stopped at KKT residual {residual:.3g} "
                   f"(budget {DEFAULT_MAX_ITER} Newton steps)")
        warnings.warn(ProjectionConvergenceWarning(message, iterate=x, residual=residual))
    return x, y, residual


def project_array(cs: ConstraintSet, a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The point of ``dual_solve``: the projection the fit takes."""
    return dual_solve(cs, a, tol)[0]


def project(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> CouplingMatrix:
    """Frobenius-nearest point of the constraint family intersected with the
    symmetric zero-diagonal subspace."""
    if not isinstance(J, CouplingMatrix):
        raise ValidationError("project expects a CouplingMatrix")
    return CouplingMatrix(project_array(cs, J.entries, tol=tol))
