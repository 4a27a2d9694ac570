import warnings
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isingfit import projections
from isingfit.core import CouplingMatrix, ParameterError, ValidationError
from isingfit.projections import (
    FAMILIES,
    AntiferroSpike,
    OpNormBall,
    ProjectionConvergenceWarning,
    SpectralSpread,
    WidthBall,
    membership,
    project,
    project_l1_ball,
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
    def test_inside_untouched(self):
        v = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

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
            out = project_l1_ball(V, r)
            np.testing.assert_allclose(out, oracle, atol=1e-10)
            np.testing.assert_array_equal(out[:3], V[:3])
            np.testing.assert_array_equal(project_l1_ball(V[-1], r), out[-1])

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
        with pytest.raises(error):
            project_l1_ball(np.array(v), radius)


class TestSpreadInterval:
    def test_asymmetric_spectrum(self):
        # clip {0, 3} into a window of length 1: optimum is [1, 2]
        t = projections._spread_interval_start(np.array([0.0, 3.0]), 1.0)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_against_grid_oracle(self, rng):
        for trial in range(30):
            v = rng.normal(size=int(rng.integers(2, 31))) * 2
            if trial % 2:  # repeated values: a degenerate spectrum
                v = rng.choice(np.round(v[:3], 1), size=v.size)
            v = np.sort(v)
            s = float(rng.uniform(0.3, 1.0))
            if v[-1] - v[0] <= s:
                continue
            t_star = projections._spread_interval_start(v, s)

            def cost(t):
                return np.sum(np.maximum(t - v, 0) ** 2 + np.maximum(v - s - t, 0) ** 2)

            grid = np.linspace(v[0] - s, v[-1], 4001)
            best = grid[np.argmin([cost(t) for t in grid])]
            assert cost(t_star) <= cost(best) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30),
        s=st.floats(0.01, 1.0),
    )
    def test_clip_sums_balance(self, v, s):
        # at t* the clip sums L(t) = sum (t - v_i)_+ and H(t) = sum (v_i - s - t)_+
        # balance, to 1e-12 relative to the size of the terms they sum
        v = np.array(v)
        assume(v.max() - v.min() > s)
        t = projections._spread_interval_start(v, s)
        low = np.maximum(t - v, 0.0).sum()
        high = np.maximum(v - s - t, 0.0).sum()
        assert abs(low - high) <= 1e-12 * (np.abs(v).sum() + s * v.size)


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
    def test_matches_three_array_dykstra(self, cs, n, seed, scale):
        a = random_coupling(n, np.random.default_rng(seed), scale).entries
        want = three_array_dykstra(cs, a, tol=1e-13)
        got = projections.project_array(cs, a, tol=1e-13)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.sampled_from(ALL_SETS),
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-2.0, 2.0),
    )
    def test_far_inputs_certified(self, cs, n, seed, log_scale):
        # inputs up to 1e2 times the sets' radii, where Dykstra needed up to 1e5 iterations
        a = random_coupling(n, np.random.default_rng(seed), 10.0**log_scale).entries
        size = max(1.0, float(np.linalg.norm(a)))
        tol = 1e-13 * size
        with warnings.catch_warnings():
            warnings.simplefilter("error", ProjectionConvergenceWarning)
            x, y, residual = projections.dual_solve(cs, a, tol)
            again = projections.project_array(cs, x, tol)
        assert cs.member(x, 1e-10 * size)
        assert residual <= tol
        recomputed, point = kkt_residual(cs, a, y)
        assert recomputed <= tol
        np.testing.assert_allclose(x, point, rtol=0, atol=1e-12 * size)
        np.testing.assert_allclose(again, x, rtol=0, atol=1e-10 * size)


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
                projections.project_array(cs, a, tol=1e-12), want, rtol=0, atol=1e-10
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
                projections.project_array(cs, a, tol=1e-12), want, rtol=0, atol=1e-7
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
                projections.project_array(cs, a, tol=1e-12), want + want.T, rtol=0, atol=1e-10
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


class TestStructuralDetails:
    def test_antiferro_output_has_ones_eigenvector(self, rng):
        cs = AntiferroSpike(0.5, 2.0)
        for _ in range(10):
            P = project(cs, random_coupling(7, rng)).entries
            row_sums = P @ np.ones(7)
            np.testing.assert_allclose(row_sums, row_sums.mean(), atol=1e-7)
            spike = row_sums.mean()
            assert -2.0 - 1e-7 <= spike <= 1e-7

    def test_warning_carries_iterate_and_residual(self, rng, monkeypatch):
        J = random_coupling(6, rng)
        monkeypatch.setattr(projections, "DEFAULT_MAX_ITER", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project(SpectralSpread(0.5), J, tol=1e-14)
        assert len(caught) == 1
        w = caught[0].message
        assert isinstance(w, ProjectionConvergenceWarning)
        assert w.iterate.shape == (6, 6)
        assert w.residual >= 0.0

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
