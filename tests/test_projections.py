import warnings

import numpy as np
import pytest

from isingfit import projections
from isingfit.core import CouplingMatrix, ParameterError
from isingfit.projections import (
    ConstraintSet,
    ProjectionConvergenceWarning,
    antiferro_spike,
    membership,
    op_norm_ball,
    project,
    project_l1_ball,
    spectral_spread,
    width_ball,
)

from conftest import random_coupling

ALL_SETS = [
    op_norm_ball(0.8),
    spectral_spread(0.7),
    width_ball(1.2),
    antiferro_spike(0.4, 1.0),
]


def coupling(entries):
    return CouplingMatrix(np.asarray(entries, dtype=float))


class TestClosedFormExamples:
    def test_op_norm_clip(self):
        out = project(op_norm_ball(1.0), coupling([[0, 2], [2, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 1], [1, 0]], atol=1e-8)

    def test_spectral_spread_symmetric_interval(self):
        out = project(spectral_spread(0.9), coupling([[0, 1], [1, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 0.45], [0.45, 0]], atol=1e-8)

    def test_width_row_projection(self):
        out = project(width_ball(1.0), coupling([[0, 2], [2, 0]]))
        np.testing.assert_allclose(out.entries, [[0, 1], [1, 0]], atol=1e-8)


class TestMembership:
    def test_zero_matrix_in_every_set(self):
        z = CouplingMatrix.zeros(5)
        for cs in ALL_SETS:
            assert membership(cs, z)

    def test_eigenvalue_two_outside_unit_op_ball(self):
        assert not membership(op_norm_ball(1.0), coupling([[0, 2], [2, 0]]))

    def test_curie_weiss_inside_width_ball(self):
        n, beta = 6, 0.9
        J = coupling((beta / n) * (np.ones((n, n)) - np.eye(n)))
        assert membership(width_ball(beta), J)

    def test_antiferro_canonical_example(self):
        # -beta * adjacency of a regular graph: all-ones eigenvector with
        # eigenvalue -beta*d, bulk within the actual second-eigenvalue range
        from isingfit.ensembles import random_regular_graph

        d, beta = 4, 0.05
        adj = random_regular_graph(16, d, seed=3).entries
        J = coupling(-beta * adj)
        bulk = np.abs(np.linalg.eigvalsh(adj)[:-1]).max()
        cs = antiferro_spike(alpha=2 * beta * bulk + 1e-9, c=beta * d)
        assert membership(cs, J, tol=1e-9)


class TestL1Ball:
    def test_inside_untouched(self):
        v = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_against_bisection_oracle(self, rng):
        # independent oracle: solve sum max(|v|-tau, 0) = r for tau by bisection
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(2, 12))) * 3.0
            r = float(rng.uniform(0.1, 2.0))
            if np.abs(v).sum() <= r:
                continue
            lo, hi = 0.0, np.abs(v).max()
            for _ in range(200):
                mid = (lo + hi) / 2
                if np.maximum(np.abs(v) - mid, 0.0).sum() > r:
                    lo = mid
                else:
                    hi = mid
            oracle = np.sign(v) * np.maximum(np.abs(v) - (lo + hi) / 2, 0.0)
            np.testing.assert_allclose(project_l1_ball(v, r), oracle, atol=1e-10)


class TestSpreadInterval:
    def test_asymmetric_spectrum(self):
        # clip {0, 3} into a window of length 1: optimum is [1, 2]
        t = projections._spread_interval_start(np.array([0.0, 3.0]), 1.0)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_against_grid_oracle(self, rng):
        for _ in range(30):
            v = np.sort(rng.normal(size=6) * 2)
            s = float(rng.uniform(0.3, 1.0))
            if v[-1] - v[0] <= s:
                continue
            t_star = projections._spread_interval_start(v, s)

            def cost(t):
                return np.sum(np.maximum(t - v, 0) ** 2 + np.maximum(v - s - t, 0) ** 2)

            grid = np.linspace(v[0] - s, v[-1], 4001)
            best = grid[np.argmin([cost(t) for t in grid])]
            assert cost(t_star) <= cost(best) + 1e-12


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
        cs = spectral_spread(0.8)
        for _ in range(30):
            A = project(cs, random_coupling(6, rng))
            B = project(cs, random_coupling(6, rng))
            mid = CouplingMatrix(0.5 * (A.entries + B.entries))
            assert membership(cs, mid, tol=1e-7)


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
            mine = project(antiferro_spike(alpha, c), CouplingMatrix(X)).entries
            np.testing.assert_allclose(mine, S.value, atol=1e-6)


class TestStructuralDetails:
    def test_antiferro_output_has_ones_eigenvector(self, rng):
        cs = antiferro_spike(0.5, 2.0)
        for _ in range(10):
            P = project(cs, random_coupling(7, rng)).entries
            row_sums = P @ np.ones(7)
            np.testing.assert_allclose(row_sums, row_sums.mean(), atol=1e-7)
            spike = row_sums.mean()
            assert -2.0 - 1e-7 <= spike <= 1e-7

    def test_warning_carries_iterate_and_residual(self, rng):
        J = random_coupling(6, rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project(spectral_spread(0.5), J, tol=1e-14, max_iter=2)
        assert len(caught) == 1
        w = caught[0].message
        assert isinstance(w, ProjectionConvergenceWarning)
        assert w.iterate.shape == (6, 6)
        assert w.residual >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ConstraintSet(kind="OpNormBall")
        with pytest.raises(ParameterError):
            spectral_spread(1.5)
        with pytest.raises(ParameterError):
            antiferro_spike(0.5, -1.0)
        with pytest.raises(ParameterError):
            ConstraintSet(kind="Banana", lam=1.0)

    @pytest.mark.parametrize("params", [
        {"kind": "OpNormBall", "lam": 1.0, "m": 3.0},
        {"kind": "WidthBall", "m": 1.0, "alpha": 0.5},
        {"kind": "AntiferroSpike", "alpha": 0.5, "c": 1.0, "s": 0.5},
    ])
    def test_foreign_parameter_rejected(self, params):
        with pytest.raises(ParameterError, match="takes no parameter"):
            ConstraintSet(**params)

    def test_describe_lists_own_parameters(self):
        assert op_norm_ball(2.0).describe() == "OpNormBall(lam=2)"
        assert antiferro_spike(0.5, 1.25).describe() == "AntiferroSpike(alpha=0.5 c=1.25)"
        assert projections.KINDS == ("OpNormBall", "SpectralSpread", "WidthBall", "AntiferroSpike")
