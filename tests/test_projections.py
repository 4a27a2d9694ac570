import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isingfit import ensembles, projections
from isingfit.core import CouplingMatrix, ParameterError, ValidationError
from isingfit.ensembles import EnsembleSpec
from isingfit.projections import (
    DEFAULT_TOL,
    FAMILIES,
    AntiferroSpike,
    OpNormBall,
    ProjectionConvergenceWarning,
    SpectralSpread,
    WidthBall,
    membership,
    project,
    project_array,
)

from conftest import random_coupling

ALL_SETS = [
    OpNormBall(0.8),
    SpectralSpread(0.7),
    WidthBall(1.2),
    AntiferroSpike(0.4, 1.0),
]


def coupling(entries):
    return CouplingMatrix(np.asarray(entries, dtype=float))


class TestClosedFormExamples:
    def test_op_norm_clip(self):
        out = project(OpNormBall(1.0), coupling([[0, 2], [2, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 1], [1, 0]], atol=1e-8)

    def test_spectral_spread_symmetric_interval(self):
        out = project(SpectralSpread(0.9), coupling([[0, 1], [1, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 0.45], [0.45, 0]], atol=1e-8)

    def test_width_row_projection(self):
        out = project(WidthBall(1.0), coupling([[0, 2], [2, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 1], [1, 0]], atol=1e-8)


class TestMembership:
    def test_zero_matrix_in_every_set(self):
        z = CouplingMatrix.zeros(5)
        for cs in ALL_SETS:
            assert membership(cs, z)

    def test_eigenvalue_two_outside_unit_op_ball(self):
        assert not membership(OpNormBall(1.0), coupling([[0, 2], [2, 0]]))

    def test_curie_weiss_inside_width_ball(self):
        n, beta = 6, 0.9
        J = coupling((beta / n) * (np.ones((n, n)) - np.eye(n)))
        assert membership(WidthBall(beta), J)

    def test_antiferro_canonical_example(self):
        # -beta * adjacency of a regular graph: all-ones eigenvector with
        # eigenvalue -beta*d, bulk within the actual second-eigenvalue range
        from isingfit.ensembles import random_regular_graph

        d, beta = 4, 0.05
        adj = random_regular_graph(16, d, seed=3).entries
        J = coupling(-beta * adj)
        bulk = np.abs(np.linalg.eigvalsh(adj)[:-1]).max()
        cs = AntiferroSpike(alpha=2 * beta * bulk + 1e-9, c=beta * d)
        assert membership(cs, J, tol=1e-9)


class TestL1Ball:
    """``WidthBall(r).natural``: each row projected onto the l1 ball of radius r."""

    def test_inside_untouched(self):
        v = np.array([[0.2, -0.3, 0.1]])
        np.testing.assert_array_equal(WidthBall(1.0).natural(v), v)

    def test_against_bisection_oracle(self, rng):
        # independent oracle, row by row: solve sum max(|v|-tau, 0) = r for
        # tau by bisection; rows inside the ball stay as they are
        for _ in range(50):
            n = int(rng.integers(2, 12))
            V = rng.normal(size=(6, n)) * 3.0
            V[0] = 0.0
            V[1] *= rng.uniform(0.01, 0.2)
            r = float(np.abs(V[1]).sum())  # row 1 lies exactly on the sphere
            V[2] *= 0.5 * r / np.abs(V[2]).sum()  # row 2 lies inside
            oracle = V.copy()
            for v, row in zip(V, oracle):
                if np.abs(v).sum() <= r:
                    continue
                lo, hi = 0.0, np.abs(v).max()
                for _ in range(200):
                    mid = (lo + hi) / 2
                    if np.maximum(np.abs(v) - mid, 0.0).sum() > r:
                        lo = mid
                    else:
                        hi = mid
                row[:] = np.sign(v) * np.maximum(np.abs(v) - (lo + hi) / 2, 0.0)
            out = WidthBall(r).natural(V)
            np.testing.assert_allclose(out, oracle, atol=1e-10)
            np.testing.assert_array_equal(out[:3], V[:3])
            np.testing.assert_array_equal(WidthBall(r).natural(V[-1:])[0], out[-1])

    @pytest.mark.parametrize("v, radius, error", [
        ([1.0, -2.0], 0.0, ParameterError),
        ([1.0, -2.0], -1.0, ParameterError),
        ([1.0, -2.0], float("nan"), ParameterError),
        ([1.0, -2.0], float("inf"), ParameterError),
        ([1.0, -2.0], True, ParameterError),
        ([1.0, float("nan")], 1.0, ValidationError),
        ([[0.5, 0.0], [float("-inf"), 1.0]], 1.0, ValidationError),
        ([], 1.0, ValidationError),
        ([[[1.0, 2.0]]], 1.0, ValidationError),
    ])
    def test_bad_radius_or_entries_raise(self, v, radius, error):
        # the radius is checked when the family is built, the entries when projected
        with pytest.raises(error):
            project_array(WidthBall(radius), np.array(v))


class TestSpreadInterval:
    def test_asymmetric_spectrum(self):
        # clip {0, 3} into a window of length 1: optimum is [1, 2]
        t = projections._spread_interval_start(np.array([0.0, 3.0]), 1.0)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_against_grid_oracle(self, rng):
        for trial in range(45):
            v = rng.normal(size=int(rng.integers(2, 31))) * 2
            if trial % 3 == 1:  # repeated values: a degenerate spectrum
                v = rng.choice(np.round(v[:3], 1), size=v.size)
            s = float(rng.uniform(0.3, 1.0))
            if trial % 3 == 2:  # tied breakpoints v_j = v_i - s exactly, and repeats
                v = np.concatenate([v, v[: (v.size + 1) // 2] - s, v[:2]])
            v = np.sort(v)
            if v[-1] - v[0] <= s:
                continue
            t_star = projections._spread_interval_start(v, s)

            def cost(t):
                return np.sum(np.maximum(t - v, 0) ** 2 + np.maximum(v - s - t, 0) ** 2)

            grid = np.linspace(v[0] - s, v[-1], 4001)
            best = grid[np.argmin([cost(t) for t in grid])]
            assert cost(t_star) <= cost(best) + 1e-12
            low, high = np.maximum(t_star - v, 0.0).sum(), np.maximum(v - s - t_star, 0.0).sum()
            assert abs(low - high) <= 1e-12 * (np.abs(v).sum() + s * v.size)

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30),
        s=st.floats(0.01, 1.0),
    )
    @example(v=[2.0, 0.0], s=1.0)  # unsorted
    @example(v=[0.3, -1.0, 2.0, -1.5, 0.7], s=0.4)
    @example(v=[1.0, 1.0, -1.0, -1.0], s=0.5)  # tied values
    @example(v=[-2.0, 0.5, 0.5, 0.5, -2.0, 3.0], s=0.25)
    @example(v=[1.0, 0.5, 0.0, 1.5], s=0.5)  # tied breakpoints v_j = v_i - s
    @example(v=[0.0, 1.0, 0.0, 1.0, 2.0], s=1.0)
    def test_clip_sums_balance(self, v, s):
        # at t* the clip sums L(t) = sum (t - v_i)_+ and H(t) = sum (v_i - s - t)_+
        # balance, to 1e-12 relative to the size of the terms they sum
        v = np.array(v)
        assume(v.max() - v.min() > s)
        t = projections._spread_interval_start(v, s)
        low = np.maximum(t - v, 0.0).sum()
        high = np.maximum(v - s - t, 0.0).sum()
        assert abs(low - high) <= 1e-12 * (np.abs(v).sum() + s * v.size)


class TestLapackHelpers:
    """projections._eigh and _solve call numpy.linalg's gufuncs without its per-call checks."""

    def test_bit_identical_to_numpy(self, rng):
        for n in range(2, 31):
            a = rng.normal(size=(n, n))
            a = a + a.T
            b = rng.normal(size=n)
            for got, want in zip(projections._eigh(a), np.linalg.eigh(a)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            np.testing.assert_array_equal(projections._solve(a, b), np.linalg.solve(a, b))

    def test_nan_raises(self, rng):
        a = rng.normal(size=(8, 8))
        a = a + a.T
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(a)  # the public call raises on this input too
        with pytest.raises(np.linalg.LinAlgError):
            projections._eigh(a)
        with pytest.raises(np.linalg.LinAlgError):
            projections._solve(a, np.ones(8))


def natural_reference(cs, z):
    """natural(z) as an n x n matrix from np.linalg.eigh of z or of its explicit bulk."""
    n = z.shape[0]
    if isinstance(cs, AntiferroSpike):
        off = np.eye(n) - 1.0 / n
        w, V = np.linalg.eigh(off @ z @ off)
        bulk = off @ (V * np.clip(w, -cs.alpha / 2, cs.alpha / 2)) @ V.T @ off
        return bulk + min(max(z.sum() / n, -cs.c), 0.0) / n
    w, V = np.linalg.eigh(z)
    if isinstance(cs, OpNormBall):
        return (V * np.clip(w, -cs.lam, cs.lam)) @ V.T
    if w[-1] - w[0] <= cs.s:
        return z
    t = projections._spread_interval_start(w, cs.s)
    return (V * np.clip(w, t, t + cs.s)) @ V.T


class TestDualFromEigenvalues:
    """A dual evaluation takes theta and its gradient from the eigenvalues alone; they
    must match |Z - natural(Z)|^2 and diag natural(Z) of the n x n point."""

    @settings(max_examples=150, deadline=None)
    @given(
        cs=st.sampled_from([OpNormBall(0.8), SpectralSpread(0.7), AntiferroSpike(0.4, 1.0)]),
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 20.0),
        spike=st.floats(-3.0, 2.0),
    )
    @example(cs=AntiferroSpike(0.4, 1.0), n=6, seed=1, scale=2.0, spike=1.5)  # spike clipped to 0
    @example(cs=AntiferroSpike(0.4, 1.0), n=7, seed=2, scale=2.0, spike=-2.5)  # clipped to -c
    @example(cs=AntiferroSpike(0.4, 1.0), n=5, seed=3, scale=0.3, spike=-0.5)  # spike kept
    @example(cs=AntiferroSpike(0.4, 1.0), n=2, seed=5, scale=1.0, spike=0.7)
    @example(cs=SpectralSpread(0.7), n=4, seed=4, scale=0.05, spike=0.0)  # already inside
    def test_theta_and_gradient(self, cs, n, seed, scale, spike):
        rng = np.random.default_rng(seed)
        a0 = random_coupling(n, rng).entries * scale
        y = rng.normal(size=n) * scale
        # shift the off-diagonal entries so that Z's spike 1^T Z 1 / n is `spike`
        a0 += (spike - (a0.sum() + y.sum()) / n) / (n - 1)
        np.fill_diagonal(a0, 0.0)
        theta, grad, _, point, _ = cs._dual(a0, y)
        z = a0 + np.diag(y)
        x = natural_reference(cs, z)
        if isinstance(cs, AntiferroSpike):
            assert abs(z.sum() / n - spike) <= 1e-9 * (1.0 + abs(spike))
            assert np.ptp(z.sum(axis=1)) > 1e-8  # the cross terms are not zero
        size = float(y @ y + np.sum(z * z))
        assert abs(theta - 0.5 * (y @ y - np.sum((z - x) ** 2))) <= 1e-12 * max(size, 1.0)
        np.testing.assert_allclose(grad, np.diag(x), rtol=0, atol=1e-12 * max(np.sqrt(size), 1.0))
        np.testing.assert_allclose(point(), x, rtol=0, atol=1e-12 * max(np.sqrt(size), 1.0))


@pytest.mark.parametrize("cs", ALL_SETS, ids=lambda c: c.kind)
class TestProjectionInvariants:
    def test_feasibility_idempotence_nonexpansiveness(self, cs, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            J = random_coupling(n, rng)
            P = project(cs, J)
            assert membership(cs, P, tol=1e-7)
            P2 = project(cs, P)
            assert np.linalg.norm(P2.entries - P.entries) <= 1e-7
            # nonexpansiveness toward feasible points
            for _ in range(5):
                F = project(cs, random_coupling(n, rng))
                assert np.linalg.norm(P.entries - F.entries) <= (
                    np.linalg.norm(J.entries - F.entries) + 1e-9
                )

    def test_two_by_two_brute_force(self, cs, rng):
        # with n=2 the family reduces to one parameter x = J12; compare with
        # a grid search over the feasible interval
        for a in (-2.5, -0.9, 0.3, 1.7):
            J = coupling([[0, a], [a, 0]])
            P = project(cs, J)
            grid = np.arange(-3.0, 3.0, 1e-3)
            feasible = [
                x for x in grid if membership(cs, coupling([[0, x], [x, 0]]), tol=1e-12)
            ]
            best = min(feasible, key=lambda x: abs(x - a))
            assert abs(P.entries[0, 1] - best) <= 1.5e-3


class TestSpectralSpreadConvexity:
    def test_midpoints_stay_feasible(self, rng):
        cs = SpectralSpread(0.8)
        for _ in range(30):
            A = project(cs, random_coupling(6, rng))
            B = project(cs, random_coupling(6, rng))
            mid = CouplingMatrix(0.5 * (A.entries + B.entries))
            assert membership(cs, mid, tol=1e-7)


def zero_diag(a):
    out = 0.5 * (a + a.T)
    np.fill_diagonal(out, 0.0)
    return out


def zero_diag_equal_rowsums(a):
    """Orthogonal projection onto {S symmetric, diag S = 0, S 1 = sigma 1}.

    Writing the correction as diag(mu) + sym(nu 1^T) with mean-zero nu, the
    stationarity conditions solve in closed form:

        nu = (Q diag(a) - Q a 1) / (1 - n/2),   Q = I - 1 1^T / n
        mu = diag(a) - nu

    For n <= 2 the row-sum constraint is implied by the zero diagonal.
    """
    n = a.shape[0]
    if n <= 2:
        return zero_diag(a)
    s = 0.5 * (a + a.T)
    diag = np.diag(s).copy()
    row_sums = s.sum(axis=1)
    nu = (diag - diag.mean()) - (row_sums - row_sums.mean())
    nu /= 1.0 - 0.5 * n
    # mu only moves the diagonal, which is zeroed anyway
    out = s - 0.5 * (nu[:, None] + nu)
    np.fill_diagonal(out, 0.0)
    return out


def three_array_dykstra(cs, a, tol, max_iter=100_000):
    """Dykstra's scheme with both corrections p and q, alternating ``cs.natural``
    with the affine factor (the equal row sums folded in for AntiferroSpike,
    which keeps the angle between the factors wide), ending in an affine step."""
    affine = zero_diag_equal_rowsums if isinstance(cs, AntiferroSpike) else zero_diag
    x = np.array(a, dtype=np.float64)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        y = affine(x + p)
        p = x + p - y
        x_new = cs.natural(y + q)
        q = y + q - x_new
        worst = max(np.linalg.norm(y - x_new), np.linalg.norm(x_new - x))
        x = x_new
        if worst <= tol:
            break
    return affine(x)


def kkt_residual(cs, a, y):
    """The KKT residual of multipliers y, from ``natural`` and the soft threshold."""
    a0 = zero_diag(a)
    if isinstance(cs, WidthBall):
        x = np.sign(a0) * np.maximum(np.abs(a0) - 0.5 * (y[:, None] + y), 0.0)
        return float(np.abs(np.minimum(y, cs.m - np.abs(x).sum(axis=1))).max()), x
    x = cs.natural(a0 + np.diag(y))
    return float(np.linalg.norm(np.diag(x))), zero_diag(x)


class TestMultiplierLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.sampled_from(ALL_SETS),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
    )
    @example(cs=AntiferroSpike(0.4, 1.0), n=3, seed=4191182621, scale=0.8275615867447804)
    def test_matches_three_array_dykstra(self, cs, n, seed, scale):
        a = random_coupling(n, np.random.default_rng(seed), scale).entries
        want = three_array_dykstra(cs, a, tol=1e-13)
        got = project_array(cs, a, tol=1e-13)[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.sampled_from(ALL_SETS),
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-2.0, 2.0),
    )
    # inputs on which Newton without a damping that rises after a halved step used up its
    # budget, stalled at KKT residuals from 2e-4 to 41
    @example(cs=AntiferroSpike(0.4, 1.0), n=3, seed=4191182621, log_scale=-0.08219967635810432)
    @example(cs=AntiferroSpike(0.4, 1.0), n=10, seed=3364195692, log_scale=1.892356167991991)
    @example(cs=AntiferroSpike(0.4, 1.0), n=4, seed=633906494, log_scale=1.5762284424222983)
    @example(cs=AntiferroSpike(0.4, 1.0), n=6, seed=4138035416, log_scale=1.8110515846514645)
    @example(cs=AntiferroSpike(0.4, 1.0), n=7, seed=98025282, log_scale=1.9130236649883443)
    @example(cs=AntiferroSpike(0.4, 1.0), n=11, seed=3893697247, log_scale=1.6096865113909202)
    @example(cs=OpNormBall(0.8), n=7, seed=2808134388, log_scale=1.2036046839295826)
    @example(cs=OpNormBall(0.8), n=23, seed=478184650, log_scale=1.949877883408425)
    @example(cs=OpNormBall(0.8), n=25, seed=3650884786, log_scale=1.430817415688649)
    @example(cs=WidthBall(1.2), n=5, seed=2627149583, log_scale=1.9838989711859414)
    @example(cs=WidthBall(1.2), n=20, seed=3086235876, log_scale=1.9666338605690727)
    def test_far_inputs_certified(self, cs, n, seed, log_scale):
        # inputs up to 1e2 times the sets' radii, where Dykstra needed up to 1e5 iterations
        a = random_coupling(n, np.random.default_rng(seed), 10.0**log_scale).entries
        size = max(1.0, float(np.linalg.norm(a)))
        tol = 1e-13 * size
        with warnings.catch_warnings():
            warnings.simplefilter("error", ProjectionConvergenceWarning)
            x, y, residual = project_array(cs, a, tol)
            again = project_array(cs, x, tol)[0]
        assert cs.member(x, 1e-10 * size)
        assert residual <= tol
        recomputed, point = kkt_residual(cs, a, y)
        assert recomputed <= tol
        np.testing.assert_allclose(x, point, rtol=0, atol=1e-12 * size)
        np.testing.assert_allclose(again, x, rtol=0, atol=1e-10 * size)


class TestStartMultipliers:
    """A start y0 changes the Newton work of project_array, not its point."""

    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.sampled_from(ALL_SETS),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
        log_start=st.floats(-6.0, 1.0),
    )
    def test_point_does_not_depend_on_start(self, cs, n, seed, scale, log_start):
        # starts up to ten times the input's own norm. At tol = 1e-13 the points agreed
        # to 2e-13 * size on all but 2 of 40,000 draws with starts up to the input's
        # norm, the worst 1.3e-12 (OpNormBall, an input eigenvalue near 0), and to
        # 1.4e-13 * size on 4,000 draws with starts of 1 to 10 times it, so the bound
        # is 1e-11 * size.
        rng = np.random.default_rng(seed)
        a = random_coupling(n, rng, scale).entries
        size = max(1.0, float(np.linalg.norm(a)))
        y0 = rng.normal(size=n) * 10.0**log_start * size
        if cs.lower == 0.0:
            y0 = np.abs(y0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ProjectionConvergenceWarning)
            cold = project_array(cs, a)[0]
            x, y, residual = project_array(cs, a, y0=y0)
        assert residual <= DEFAULT_TOL
        assert kkt_residual(cs, a, y)[0] <= DEFAULT_TOL
        np.testing.assert_allclose(x, cold, rtol=0, atol=1e-11 * size)

    def test_far_start_takes_one_newton_run(self):
        # undamped Newton stalls from this start at KKT residual 0.22 with its budget
        # spent; the damping that rises after a halved step lets one run finish
        rng = np.random.default_rng(1551450834)
        a = random_coupling(3, rng, 1.6828317530604735).entries
        size = max(1.0, float(np.linalg.norm(a)))
        y0 = rng.normal(size=3) * 0.1 * float(np.linalg.norm(a))
        cs = AntiferroSpike(0.4, 1.0)
        with mock.patch.object(projections, "_newton", wraps=projections._newton) as newton:
            x, y, residual = project_array(cs, a, y0=y0)
        assert newton.call_count == 1 and residual <= DEFAULT_TOL
        assert kkt_residual(cs, a, y)[0] <= DEFAULT_TOL
        np.testing.assert_allclose(x, project_array(cs, a)[0], rtol=0, atol=1e-11 * size)

    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.sampled_from(ALL_SETS),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
        log_s=st.floats(-2.0, 2.0),
    )
    def test_multipliers_scale_along_the_normal_ray(self, cs, n, seed, scale, log_s):
        # a - x lies in the normal cone at x = project(a), and so does s (a - x):
        # x + s (a - x) projects to x with multipliers s y. The fit starts each
        # projection from its last multipliers scaled by the step ratio for this reason.
        # b reaches 1e2 times a; from y = 0 such far inputs can use up the Newton
        # budget (see test_far_inputs_certified), so only the start s y is run.
        a = random_coupling(n, np.random.default_rng(seed), scale).entries
        x, y, _ = project_array(cs, a)
        s = 10.0**log_s
        b = x + s * (a - x)
        size = max(1.0, float(np.linalg.norm(b)))
        tol = max(1.0, s) * DEFAULT_TOL  # the residual of y at a, scaled by s
        residual_sy, point_sy = kkt_residual(cs, b, s * y)
        assert residual_sy <= 2.0 * tol
        np.testing.assert_allclose(point_sy, x, rtol=0, atol=1e-12 * size)
        with mock.patch.object(projections, "_solve", wraps=projections._solve) as solve:
            warm, _, residual = project_array(cs, b, tol, y0=s * y)
        assert solve.call_count <= 1 and residual <= tol
        np.testing.assert_allclose(warm, x, rtol=0, atol=1e-12 * size)


# The constrained_n8 benchmark families, each with the ensemble whose truth lies outside it.
FIT_CASES = [
    (OpNormBall(0.5), EnsembleSpec("SK", 8, beta=0.5)),
    (SpectralSpread(0.9), EnsembleSpec("SK", 8, beta=0.5)),
    (WidthBall(0.8), EnsembleSpec("BoundedWidthRandom", 8, width=1.0)),
    (AntiferroSpike(0.4, 1.0), EnsembleSpec("AntiferroExpander", 8, d=3, beta=0.1)),
]


class TestNewtonWork:
    """Eigendecompositions and Newton steps that project_array spends on fixed fit-like
    inputs: counts that do not depend on timing. BOUNDS holds the totals when the test
    was written; a change may lower them, never raise them. They were recorded with
    numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64). At tol = 1e-13 the solve stops near the
    rounding limit, so another BLAS/LAPACK build may move a stop by one step; on such
    a build, record the totals of the unchanged code there before reading a failure."""

    BOUNDS = {  # kind -> (eigh calls, Newton steps) over the 24 inputs
        "OpNormBall": (105, 80),
        "SpectralSpread": (96, 72),
        "WidthBall": (0, 91),
        "AntiferroSpike": (92, 68),
    }

    @staticmethod
    def fit_like_inputs(cs, spec):
        # the fit projects J - t g with J in the set: far from it at first, then ever
        # closer; here J is the projected truth and the step mixes the way back to the
        # truth with noise, at lengths from the whole truth down to 1e-4 of it
        rng = np.random.default_rng(11)
        truth = ensembles.generate(spec).coupling.entries
        inside = project_array(cs, truth, tol=1e-13)[0]
        for scale in (1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4):
            for _ in range(4):
                noise = random_coupling(8, rng).entries
                step = (truth - inside) + np.linalg.norm(truth) / np.linalg.norm(noise) * noise
                yield inside + scale * step

    @pytest.mark.parametrize("cs, spec", FIT_CASES, ids=[cs.kind for cs, _ in FIT_CASES])
    def test_counts_do_not_rise(self, cs, spec, monkeypatch):
        inputs = list(self.fit_like_inputs(cs, spec))
        counts = dict.fromkeys(("eigh", "solve"), 0)
        for name in counts:  # through projections._eigh and _solve; one _solve per Newton step
            def counted(*args, _real=getattr(projections, "_" + name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(projections, "_" + name, counted)
        for a in inputs:
            project_array(cs, a, tol=1e-13)
        eighs, steps = self.BOUNDS[cs.kind]
        assert counts["eigh"] <= eighs and counts["solve"] <= steps, counts
        # a count that reads 0 would pass without checking anything
        assert counts["solve"] > 0 and (counts["eigh"] > 0 or cs.kind == "WidthBall"), counts

    @pytest.mark.parametrize("cs, spec", FIT_CASES, ids=[cs.kind for cs, _ in FIT_CASES])
    def test_default_tolerance_is_the_fits(self, cs, spec):
        # the fit passes no tol, so the default must be tight enough for its Armijo search
        for a in self.fit_like_inputs(cs, spec):
            assert project_array(cs, a)[2] <= 1e-13


class TestAgainstScipyOracle:
    """Nearest points at n = 3-6 from scipy solves of the optimality conditions.

    For OpNormBall and SpectralSpread the nearest point is natural(A + Diag z)
    for the diagonal multipliers z that make its diagonal zero, which
    Levenberg-Marquardt finds. WidthBall's is a QP in the upper triangle x
    with split variables t: min |x - a|^2 subject to -t <= x <= t and row sums
    of t <= m, which SLSQP solves (it may stop reporting a positive directional
    derivative once at the optimum, so only its answer is checked).
    AntiferroSpike's is natural(A + Diag y) at the minimizer y of the convex
    dual theta(y) = |y|^2/2 - |Z - natural(Z)|^2/2, Z = A + Diag y, whose
    gradient is diag natural(Z); BFGS finds it (every point of the natural set
    has equal row sums, so n multipliers suffice).
    """

    @pytest.mark.parametrize("cs", [OpNormBall(0.8), SpectralSpread(0.7)], ids=lambda c: c.kind)
    def test_diagonal_multipliers(self, cs, rng):
        optimize = pytest.importorskip("scipy.optimize")
        for _ in range(30):
            n = int(rng.integers(3, 7))
            a = random_coupling(n, rng).entries
            z = optimize.least_squares(
                lambda z: np.diag(cs.natural(a + np.diag(z))), np.zeros(n),
                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
            ).x
            want = cs.natural(a + np.diag(z))
            np.testing.assert_allclose(
                project_array(cs, a, tol=1e-12)[0], want, rtol=0, atol=1e-10
            )

    def test_antiferro_dual_bfgs(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        cs = AntiferroSpike(0.4, 1.0)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            a = random_coupling(n, rng).entries

            def theta(y):
                z = a + np.diag(y)
                x = cs.natural(z)
                return 0.5 * (y @ y - np.sum((z - x) ** 2)), np.diag(x).copy()

            y = optimize.minimize(
                theta, np.zeros(n), jac=True, method="BFGS", options={"gtol": 1e-13}
            ).x
            want = zero_diag(cs.natural(a + np.diag(y)))
            np.testing.assert_allclose(
                project_array(cs, a, tol=1e-12)[0], want, rtol=0, atol=1e-7
            )

    def test_width_ball_qp(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        cs = WidthBall(1.2)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            a = random_coupling(n, rng).entries
            iu = np.triu_indices(n, 1)
            k = iu[0].size
            rows = np.zeros((n, k))  # t_ij counts in rows i and j
            rows[iu[0], np.arange(k)] = rows[iu[1], np.arange(k)] = 1.0
            eye = np.eye(k)
            constraints = [
                {"type": "ineq", "fun": lambda v: np.concatenate([v[k:] - v[:k], v[k:] + v[:k]]),
                 "jac": lambda v: np.block([[-eye, eye], [eye, eye]])},
                {"type": "ineq", "fun": lambda v: cs.m - rows @ v[k:],
                 "jac": lambda v: np.hstack([np.zeros((n, k)), -rows])},
            ]
            v = optimize.minimize(
                lambda v: np.sum((v[:k] - a[iu]) ** 2), np.zeros(2 * k),
                jac=lambda v: np.concatenate([2.0 * (v[:k] - a[iu]), np.zeros(k)]),
                method="SLSQP", constraints=constraints, options={"ftol": 1e-15, "maxiter": 1000},
            ).x
            want = np.zeros((n, n))
            want[iu] = v[:k]
            np.testing.assert_allclose(
                project_array(cs, a, tol=1e-12)[0], want + want.T, rtol=0, atol=1e-10
            )


class TestAntiferroAgainstSDP:
    def test_matches_cvxpy(self, rng):
        cp = pytest.importorskip("cvxpy")
        alpha, c = 0.4, 1.0
        n = 4
        e = np.ones((n, 1)) / np.sqrt(n)
        for _ in range(3):
            X = random_coupling(n, rng).entries
            S = cp.Variable((n, n), symmetric=True)
            lam = cp.Variable()
            B = S - lam * (e @ e.T)
            constraints = [
                cp.diag(S) == 0,
                B @ e == 0,
                B + (alpha / 2) * np.eye(n) >> 0,
                (alpha / 2) * np.eye(n) - B >> 0,
                lam <= 0,
                lam >= -c,
            ]
            cp.Problem(cp.Minimize(cp.norm(S - X, "fro")), constraints).solve(
                solver=cp.SCS, eps=1e-10, max_iters=100_000
            )
            mine = project(AntiferroSpike(alpha, c), CouplingMatrix(X)).entries
            np.testing.assert_allclose(mine, S.value, atol=1e-6)


BAD_INPUTS = {
    "nan": [[0.0, np.nan], [np.nan, 0.0]],
    "inf": [[0.0, 1.0], [-np.inf, 0.0]],
    "empty": np.zeros((0, 0)),
    "vector": [1.0, -2.0],
    "non_square": np.zeros((2, 3)),
}

BAD_STARTS = {
    "short": np.zeros(2),
    "long": np.zeros(4),
    "matrix": np.zeros((3, 3)),
    "nan": [0.0, np.nan, 0.0],
    "inf": [0.0, 0.0, np.inf],
}


class TestInputChecks:
    @pytest.mark.parametrize("cs", ALL_SETS, ids=lambda c: c.kind)
    @pytest.mark.parametrize("a", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
    def test_bad_input_raises(self, cs, a):
        with pytest.raises(ValidationError, match="non-empty, square, finite"):
            project_array(cs, np.asarray(a))

    @pytest.mark.parametrize("cs", ALL_SETS, ids=lambda c: c.kind)
    @pytest.mark.parametrize("y0", list(BAD_STARTS.values()), ids=list(BAD_STARTS))
    def test_bad_start_raises(self, cs, y0):
        with pytest.raises(ValidationError, match="start multipliers need 3 finite entries"):
            project_array(cs, np.ones((3, 3)), y0=np.asarray(y0))

    def test_start_below_bound_raises(self):
        # WidthBall's row multipliers are l1-ball multipliers, y >= 0
        with pytest.raises(ValidationError, match=">= 0"):
            project_array(WidthBall(1.0), np.ones((3, 3)), y0=[0.0, -1e-300, 0.0])
        project_array(WidthBall(1.0), np.ones((3, 3)), y0=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("cs", ALL_SETS, ids=lambda c: c.kind)
    def test_zero_start_is_the_default(self, cs, rng):
        a = random_coupling(6, rng, 2.0).entries
        for got, want in zip(project_array(cs, a, y0=np.zeros(6)), project_array(cs, a)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_nan_residual_warns(self, monkeypatch):
        real = OpNormBall._dual
        monkeypatch.setattr(OpNormBall, "_dual", lambda self, a0, y: (*real(self, a0, y)[:4], np.nan))
        monkeypatch.setattr(projections, "DEFAULT_MAX_ITER", 2)
        with pytest.warns(ProjectionConvergenceWarning, match="residual nan"):
            residual = project_array(OpNormBall(1.0), np.array([[0.0, 2.0], [2.0, 0.0]]))[2]
        assert np.isnan(residual)


class TestStructuralDetails:
    def test_antiferro_output_has_ones_eigenvector(self, rng):
        cs = AntiferroSpike(0.5, 2.0)
        for _ in range(10):
            P = project(cs, random_coupling(7, rng)).entries
            row_sums = P @ np.ones(7)
            np.testing.assert_allclose(row_sums, row_sums.mean(), atol=1e-7)
            spike = row_sums.mean()
            assert -2.0 - 1e-7 <= spike <= 1e-7

    def test_budget_warning_returns_point_and_residual(self, rng, monkeypatch):
        a = random_coupling(6, rng).entries
        monkeypatch.setattr(projections, "DEFAULT_MAX_ITER", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, _, residual = project_array(SpectralSpread(0.5), a, tol=1e-14)
        assert len(caught) == 1
        assert isinstance(caught[0].message, ProjectionConvergenceWarning)
        assert x.shape == (6, 6)
        assert residual > 1e-14

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            OpNormBall(lam=None)
        with pytest.raises(ParameterError):
            SpectralSpread(1.5)
        with pytest.raises(ParameterError):
            AntiferroSpike(0.5, -1.0)

    @pytest.mark.parametrize("params", [
        {"kind": "OpNormBall", "lam": 1.0, "m": 3.0},
        {"kind": "WidthBall", "m": 1.0, "alpha": 0.5},
        {"kind": "AntiferroSpike", "alpha": 0.5, "c": 1.0, "s": 0.5},
    ])
    def test_foreign_parameter_rejected(self, params):
        family = FAMILIES[params["kind"]]
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            family(**{k: v for k, v in params.items() if k != "kind"})

    @pytest.mark.parametrize("cs, text", [
        (OpNormBall(2.0), "OpNormBall(lam=2)"),
        (SpectralSpread(0.9), "SpectralSpread(s=0.9)"),
        (WidthBall(1.5), "WidthBall(m=1.5)"),
        (AntiferroSpike(0.5, 1.25), "AntiferroSpike(alpha=0.5 c=1.25)"),
    ], ids=["OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike"])
    def test_describe_lists_own_parameters(self, cs, text):
        # the sweep's constraint column and perfbench's per-family spans read these
        assert cs.describe() == text
        assert text.startswith(cs.kind + "(")
        assert tuple(FAMILIES) == ("OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike")
