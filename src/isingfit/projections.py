"""Frobenius projections onto the four constraint families.

A family (`OpNormBall`, `SpectralSpread`, `WidthBall`, `AntiferroSpike`, by
name in ``FAMILIES``) is a frozen dataclass whose fields are its parameters,
checked when built: the intersection of a "natural" convex set with the
symmetric zero-diagonal matrices. It carries ``member(a, tol)`` (its
inequalities hold within tol) and ``natural(a)``, the closed-form projection
onto the natural set (eigenvalue clipping, row-wise l1 projection, spike/bulk
clipping). ``project_array`` projects by Newton's method on n multipliers y of
the affine constraints (Malick 2004; Qi and Sun 2006). With A0 the input's
symmetric part with zero diagonal, a spectral family's point is natural(Z),
Z = A0 + Diag y, at the minimizer of the convex
theta(y) = |y|^2/2 - |Z - natural(Z)|^2/2, whose gradient is diag natural(Z);
AntiferroSpike's natural set has equal row sums, so it needs no more
multipliers. One dual evaluation is one eigendecomposition Z = V diag(w) V^T:
with f the clipped eigenvalues, |Z - natural(Z)|^2 = |w - f|^2 (AntiferroSpike
adds the clipped-off spike and the cross terms) and diag natural(Z) = (V*V) f,
so the point natural(Z) is built once per call. WidthBall's entry ij is
soft(A0_ij, (y_i + y_j) / 2) for row multipliers y >= 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import CouplingMatrix, ParameterError, ValidationError, is_real

__all__ = [
    "ConstraintSet", "OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike", "FAMILIES",
    "membership", "project", "project_array", "DEFAULT_TOL", "ProjectionConvergenceWarning",
]

# Newton step budget; far inputs (scale up to 1e2, n up to 30) were seen to
# need up to 67, fit inputs up to 6. Read at call time.
DEFAULT_MAX_ITER = 100
# A point further off the set shifts the objective by more than the Armijo
# decrease near the optimum, and the fit's search halves down to underflow.
DEFAULT_TOL = 1e-13
_HALVINGS = 0.5 ** np.arange(60)  # Armijo step lengths


class ProjectionConvergenceWarning(UserWarning):
    """Newton hit DEFAULT_MAX_ITER before the KKT residual reached tol."""


def _lapack(gufunc, message: str):
    """numpy.linalg's call of a float64 gufunc, minus its checks; a non-finite matrix raises."""
    def call(a, *rest):
        if not np.isfinite(a).all():
            raise LinAlgError(message)
        return gufunc(a, *rest)
    return call


_eigh = _lapack(_umath_linalg.eigh_lo, "Eigenvalues did not converge")  # = np.linalg.eigh(z)
_solve = _lapack(_umath_linalg.solve1, "Singular matrix")  # = np.linalg.solve(h, b), b a vector


def _spike_bulk(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spike coordinate along 1/sqrt(n), cross-term vector, bulk operator of a symmetric a."""
    n = a.shape[0]
    rows = a.sum(axis=1)
    mean = float(rows.sum()) / n
    c = (rows - mean / 2) / n  # bulk P a P = a_ij - c_i - c_j, P = I - 11^T/n
    return mean, (rows - mean) / np.sqrt(n), a - c[:, None] - c


def _spread_interval_start(v: np.ndarray, s: float) -> float:
    """t minimizing the total squared clip distance of v into [t, t+s].

    Half the derivative is D(t) = sum (t - v_i)_+ - sum (v_i - s - t)_+:
    continuous, piecewise linear and nondecreasing, with breakpoints
    {v_i, v_i - s}. Scan them in ascending order, v in any order, with running counts
    and sums of the v_i below t and above t + s, and solve the affine segment ending
    at the first where D >= 0; the root is unique unless v fits in a window of length s.
    """
    v = sorted(v.tolist()) + [np.inf]  # inf: past the last breakpoint of either kind
    n, low, high = len(v) - 1, 0, 0  # on the segment ending at p: v[:low] <= p, v[high:n] >= p + s
    low_sum, high_sum = 0.0, sum(v[:n])
    for _ in range(2 * n):
        p = min(v[low], v[high] - s)
        if low * p - low_sum >= high_sum - (n - high) * (s + p):  # D(p) >= 0
            break
        if p == v[low]:
            low, low_sum = low + 1, low_sum + p
        else:
            high, high_sum = high + 1, high_sum - v[high]
    return (sum(v[:low]) + sum(v[high:n]) - (n - high) * s) / (low + n - high)


def _proj_zero_diag(a: np.ndarray) -> np.ndarray:
    out = 0.5 * (a + a.T)
    np.fill_diagonal(out, 0.0)
    return out


def _eigen_clip(w, V, lo, hi):
    """For X = V clip(w, lo, hi) V^T: diag X, |V diag(w) V^T - X|^2, functions building X
    and the Jacobian of diag X in the input's diagonal, W diag(vec Omega) W^T with
    W[i, (k, l)] = V_ik V_il and Omega the Loewner divided differences of the clip."""
    f = np.minimum(np.maximum(w, lo), hi)
    r = w - f

    def jacobian():
        inside = (w > lo) & (w < hi)
        dw = w[:, None] - w
        omega = np.divide(f[:, None] - f, dw, out=(inside[:, None] & inside) * 1.0, where=dw != 0)
        W = (V[:, :, None] * V[:, None, :]).reshape(w.size, -1)
        return (W * omega.ravel()) @ W.T

    return (V * V) @ f, float(r @ r), lambda: (V * f) @ V.T, jacobian


@dataclass(frozen=True)
class ConstraintSet:
    """Base of the families. A spectral family defines ``_clip(z)`` of a symmetric z:
    diag natural(z), |z - natural(z)|^2, and functions giving natural(z) and the
    Jacobian of its diagonal in diag z."""

    lower = -np.inf  # the multipliers' bound

    @property
    def kind(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        params = " ".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}({params})"

    def natural(self, a: np.ndarray) -> np.ndarray:
        return self._clip(0.5 * (a + a.T))[2]()

    def _dual(self, a0: np.ndarray, y: np.ndarray):
        """theta, its gradient, functions giving its Hessian and natural(Z), |diag natural(Z)|."""
        z = a0.copy()  # a0 has a zero diagonal
        z.flat[::y.size + 1] = y
        grad, gap, point, jacobian = self._clip(z)
        return 0.5 * (y @ y - gap), grad, jacobian, point, float(np.sqrt(grad @ grad))


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
        return _eigen_clip(*_eigh(z), -self.lam, self.lam)


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
        w, V = _eigh(z)
        if w[-1] - w[0] <= self.s:
            return z.diagonal().copy(), 0.0, lambda: z, lambda: np.eye(w.size)
        t = _spread_interval_start(w, self.s)
        diag, gap, point, jacobian = _eigen_clip(w, V, t, t + self.s)

        def hessian():  # the window start t moves with the mean of the clipped eigenvalues
            clipped = (w < t) | (w > t + self.s)
            u = (V[:, clipped] ** 2).sum(axis=1)
            return jacobian() + np.outer(u, u) / clipped.sum()
        return diag, gap, point, hessian


@dataclass(frozen=True)
class WidthBall(ConstraintSet):
    """Every row l1 norm <= m."""

    m: float

    lower = 0.0

    def __post_init__(self):
        if not is_real(self.m) or not 0 < self.m < np.inf:  # m = inf makes theta NaN at y = 0
            raise ParameterError("WidthBall needs a finite m > 0")

    def member(self, a: np.ndarray, tol: float) -> bool:
        return float(np.abs(a).sum(axis=1).max()) <= self.m + tol

    def natural(self, a: np.ndarray) -> np.ndarray:
        """Each row of a 2-D array projected onto the l1 ball, by sort and soft threshold."""
        mag = np.abs(a)
        inside = mag.sum(axis=1) <= self.m
        u = np.sort(mag, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        above = u * np.arange(1, u.shape[1] + 1) > css - self.m
        above[:, 0] = True  # exact for k = 0; rounding can lose it when m << u_0
        k = u.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)  # the last k where it holds
        tau = np.where(inside, 0.0, (css[np.arange(k.size), k] - self.m) / (k + 1.0))
        return np.where(inside[:, None], a, np.sign(a) * np.maximum(mag - tau[:, None], 0.0))

    def _dual(self, a0: np.ndarray, lam: np.ndarray):
        """As for the spectral families, with theta minus the Lagrange dual in the row
        multipliers and the residual max |min(lam, slack)|."""
        t = 0.5 * (lam[:, None] + lam)
        cut = np.clip(a0, -t, t)
        x = a0 - cut  # soft(a0, t); nonzero exactly where |a0| > t
        grad = self.m - np.abs(x).sum(axis=1)
        theta = self.m * lam.sum() - 0.5 * np.sum(cut * cut + 2.0 * cut * x)  # t|x| = cut x
        hessian = lambda: 0.5 * (np.diag((x != 0).sum(axis=1)) + (x != 0))  # noqa: E731
        return theta, grad, hessian, lambda: x, float(np.abs(np.minimum(lam, grad)).max())


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
        spike, cross, bulk = _spike_bulk(z)
        w, V = _eigh(bulk)
        n, kept = w.size, min(max(spike, -self.c), 0.0)
        diag, gap, point, jac = _eigen_clip(w, V - V.sum(0) / n, -self.alpha / 2, self.alpha / 2)
        return (diag + kept / n, gap + (spike - kept) ** 2 + 2.0 * float(cross @ cross),
                lambda: point() + kept / n, lambda: jac() + (-self.c < spike < 0) / n**2)


FAMILIES = {cls.__name__: cls for cls in (OpNormBall, SpectralSpread, WidthBall, AntiferroSpike)}


def membership(cs: ConstraintSet, J: CouplingMatrix, tol: float = 1e-8) -> bool:
    """True iff every defining inequality holds within tol."""
    return cs.member(J.entries, tol)


def _newton(cs: ConstraintSet, a0: np.ndarray, y: np.ndarray, tol: float):
    """Projected Newton on theta from y: a function giving the point, the
    multipliers and the residual where it stopped (at tol or the step budget)."""
    theta, grad, hessian, point, residual = cs._dual(a0, y)
    for _ in range(DEFAULT_MAX_ITER):
        if residual <= tol:
            break
        eps = min(1e-4, residual)
        free = slice(None) if cs.lower == -np.inf else (y > cs.lower + eps) | (grad <= 0)
        d = -grad
        h = hessian()[free][:, free]
        h.flat[::h.shape[0] + 1] += eps
        d[free] = _solve(h, d[free])
        for step in _HALVINGS:
            y_new = np.maximum(y + step * d, cs.lower)
            trial = cs._dual(a0, y_new)
            flat = abs(trial[0] - theta) <= 1e-13 * max(1.0, abs(theta)) and trial[4] < residual
            if flat or trial[0] <= theta - 1e-4 * float(grad @ (y - y_new)):
                break
        else:
            break  # no decrease left but rounding
        y, (theta, grad, hessian, point, residual) = y_new, trial
    return point, y, residual


def project_array(cs: ConstraintSet, a: np.ndarray, tol: float = DEFAULT_TOL, y0=None):
    """Nearest symmetric zero-diagonal point of cs to a raw array, its multipliers
    and its KKT residual, found by Newton on the dual from y = y0 (default 0).

    y0 changes the work, and the point only within tol: a start near the
    answer's multipliers (the fit passes its last ones, rescaled) needs fewer
    steps. It must have one finite entry per row, none below ``cs.lower``. A
    start from which Newton misses tol within the budget is dropped for y = 0.

    eps = min(1e-4, residual) regularizes the Hessian; a multiplier within eps of
    its bound whose gradient pushes it out takes a gradient step (Bertsekas'
    projected Newton). Steps backtrack by Armijo on theta; a step that changes
    theta only by rounding is also taken when it lowers the residual.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0 or not np.isfinite(a).all():
        raise ValidationError("projection needs a non-empty, square, finite array")
    a0 = _proj_zero_diag(a)
    zero = np.zeros(a0.shape[0])
    if y0 is None:
        point, y, residual = _newton(cs, a0, zero, tol)
    else:
        y = np.array(y0, dtype=np.float64)
        if y.shape != zero.shape or not np.isfinite(y).all() or (y < cs.lower).any():
            raise ValidationError(f"start multipliers need {zero.size} finite entries "
                                  f">= {cs.lower:g}")
        point, y, residual = _newton(cs, a0, y, tol)
        if not residual <= tol:  # Newton's globalization can stall from a far start
            point, y, residual = _newton(cs, a0, zero, tol)
    if not residual <= tol:  # a NaN residual warns too
        warnings.warn(ProjectionConvergenceWarning(
            f"projection onto {cs.describe()} stopped at KKT residual {residual:.3g} "
            f"(budget {DEFAULT_MAX_ITER} Newton steps)"))
    return _proj_zero_diag(point()), y, residual


def project(cs: ConstraintSet, J: CouplingMatrix, tol: float = DEFAULT_TOL) -> CouplingMatrix:
    """Frobenius-nearest point of the constraint family intersected with the
    symmetric zero-diagonal subspace."""
    if not isinstance(J, CouplingMatrix):
        raise ValidationError("project expects a CouplingMatrix")
    return CouplingMatrix(project_array(cs, J.entries, tol=tol)[0])
