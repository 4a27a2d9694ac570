import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfit import exact
from isingfit.core import CapabilityError, CouplingMatrix, IsingModel, ParameterError

from conftest import dobrushin_model, random_coupling, spread_model


def zero_field(J):
    return IsingModel.zero_field(CouplingMatrix(J))


def curie_weiss(n, beta):
    return zero_field((beta / n) * (np.ones((n, n)) - np.eye(n)))


class TestPartitionFunction:
    def test_single_site(self):
        assert exact.partition_function(zero_field([[0.0]])) == pytest.approx(np.log(2.0))

    def test_two_sites_closed_form(self):
        for beta in (0.3, 1.0, 4.0):
            m = zero_field([[0.0, beta], [beta, 0.0]])
            assert exact.partition_function(m) == pytest.approx(
                np.log(4.0 * np.cosh(beta)), rel=1e-12
            )

    def test_curie_weiss_binomial_collapse(self):
        # independent oracle: group states by magnetization m = 2k - n, where
        # 0.5 x^T J x = (beta / 2n) (m^2 - n)
        n, beta = 10, 1.5
        log_terms = [
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + (beta / (2 * n)) * ((2 * k - n) ** 2 - n)
            for k in range(n + 1)
        ]
        peak = max(log_terms)
        oracle = peak + np.log(sum(np.exp(t - peak) for t in log_terms))
        assert exact.partition_function(curie_weiss(n, beta)) == pytest.approx(oracle, rel=1e-12)

    def test_cap(self):
        with pytest.raises(CapabilityError, match="enumeration cap"):
            exact.partition_function(zero_field(np.zeros((25, 25))))


class TestDistribution:
    def test_uniform(self):
        table = exact.distribution(zero_field(np.zeros((4, 4))))
        np.testing.assert_allclose(table.probs, 1.0 / 16.0, rtol=1e-14)

    def test_two_site_aligned_mass(self):
        beta = 0.8
        table = exact.distribution(zero_field([[0.0, beta], [beta, 0.0]]))
        aligned = np.exp(beta) / (4.0 * np.cosh(beta))
        # states 0b00 and 0b11 are the aligned ones
        assert table.probs[0] == pytest.approx(aligned, rel=1e-12)
        assert table.probs[3] == pytest.approx(aligned, rel=1e-12)

    def test_normalization_random_models(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            m = IsingModel(random_coupling(n, rng), rng.normal(size=n))
            table = exact.distribution(m)
            assert abs(table.probs.sum() - 1.0) < 1e-12
            assert np.all(table.probs >= 0)

    def test_scalar_shift_invariance(self, rng):
        # adding c*I before the zero-diagonal convention only rescales Z,
        # because x_i^2 = 1; the renormalized table must be unchanged
        m = IsingModel(random_coupling(6, rng), rng.normal(size=6))
        table = exact.distribution(m)
        c = 0.7
        S = exact.all_states(6)
        e = (
            0.5 * np.einsum("si,si->s", S @ m.coupling.entries, S)
            + S @ m.field
            + 0.5 * c * 6
        )
        shifted = np.exp(e - e.max())
        shifted /= shifted.sum()
        np.testing.assert_allclose(shifted, table.probs, atol=1e-12)


class TestTvDistance:
    def test_identical(self, rng):
        t = exact.distribution(IsingModel(random_coupling(3, rng), rng.normal(size=3)))
        assert exact.tv_distance(t, t) == 0.0

    def test_point_masses(self):
        p = exact.DistributionTable(n=2, probs=np.array([1.0, 0.0, 0.0, 0.0]))
        q = exact.DistributionTable(n=2, probs=np.array([0.0, 0.0, 1.0, 0.0]))
        assert exact.tv_distance(p, q) == 1.0

    def test_two_site_vs_uniform_closed_form(self):
        for beta in (0.2, 1.0, 3.0):
            table = exact.distribution(zero_field([[0.0, beta], [beta, 0.0]]))
            uniform = exact.DistributionTable(n=2, probs=np.full(4, 0.25))
            assert exact.tv_distance(table, uniform) == pytest.approx(
                np.tanh(beta) / 2.0, rel=1e-12
            )

    def test_metric_properties(self, rng):
        tables = [
            exact.distribution(IsingModel(random_coupling(4, rng), rng.normal(size=4)))
            for _ in range(6)
        ]
        for p in tables:
            for q in tables:
                assert exact.tv_distance(p, q) == pytest.approx(exact.tv_distance(q, p))
                for r in tables:
                    assert exact.tv_distance(p, q) <= (
                        exact.tv_distance(p, r) + exact.tv_distance(r, q) + 1e-12
                    )

    def test_dimension_mismatch(self, rng):
        p = exact.distribution(zero_field(np.zeros((2, 2))))
        q = exact.distribution(zero_field(np.zeros((3, 3))))
        with pytest.raises(Exception, match="mismatch"):
            exact.tv_distance(p, q)

    def test_one_temporary(self, rng):
        n = 16
        p = exact.distribution(zero_field(random_coupling(n, rng, scale=0.1).entries))
        q = exact.distribution(zero_field(random_coupling(n, rng, scale=0.1).entries))
        expected = 0.5 * float(np.abs(p.probs - q.probs).sum())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tv = exact.tv_distance(p, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tv == expected
        assert peak <= 1.1 * p.probs.nbytes


class TestDraw:
    def test_inverse_cdf(self):
        table = exact.DistributionTable(n=2, probs=np.array([0.25, 0.0, 0.5, 0.25]))
        u = np.array([0.0, 0.2, 0.25, 0.6, 0.75, 0.9])
        np.testing.assert_array_equal(exact.draw(table, u), [0, 0, 2, 2, 3, 3])

    def test_cumsum_below_one_maps_to_last_state(self):
        table = exact.DistributionTable(n=1, probs=np.array([0.5, 0.5 - 1e-13]))
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(table.probs)[-1] < top
        np.testing.assert_array_equal(exact.draw(table, np.array([top, 0.9])), [1, 1])


class TestKlDivergence:
    def test_identical_zero(self, rng):
        t = exact.distribution(IsingModel(random_coupling(4, rng), rng.normal(size=4)))
        assert exact.kl_divergence(t, t) == 0.0

    def test_pinsker(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = exact.distribution(IsingModel(random_coupling(n, rng), rng.normal(size=n)))
            q = exact.distribution(IsingModel(random_coupling(n, rng), rng.normal(size=n)))
            assert exact.tv_distance(p, q) <= np.sqrt(exact.kl_divergence(p, q) / 2.0) + 1e-12

    def test_exponential_family_identity(self, rng):
        # KL(P1 || P2) = logZ2 - logZ1 - E_1[x^T (J2 - J1) x] / 2 at zero field
        J1, J2 = random_coupling(6, rng), random_coupling(6, rng)
        m1, m2 = zero_field(J1.entries), zero_field(J2.entries)
        p1 = exact.distribution(m1)
        delta = CouplingMatrix(J2.entries - J1.entries)
        quad = exact.moments(m1, delta).quad_mean
        identity = (
            exact.partition_function(m2) - exact.partition_function(m1) - 0.5 * quad
        )
        assert exact.kl_divergence(p1, exact.distribution(m2)) == pytest.approx(
            identity, rel=1e-9, abs=1e-12
        )


@st.composite
def quadratic_forms(draw):
    """(Q, h) with Q symmetric, a nonzero diagonal, and n = 1..10."""
    n = draw(st.integers(1, 10))
    entry = st.floats(-3.0, 3.0)
    Q = np.zeros((n, n))
    Q[np.triu_indices(n, k=1)] = draw(st.lists(entry, min_size=n * (n - 1) // 2,
                                               max_size=n * (n - 1) // 2))
    Q = Q + Q.T
    Q[np.diag_indices(n)] = draw(st.lists(st.floats(0.5, 3.0) | st.floats(-3.0, -0.5),
                                          min_size=n, max_size=n))
    h = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    return Q, h


class TestQuadraticTable:
    @settings(max_examples=200, deadline=None)
    @given(quadratic_forms())
    def test_matches_direct_sum(self, form):
        Q, h = form
        S = exact.all_states(h.size)
        direct = 0.5 * np.einsum("si,si->s", S @ Q, S) + S @ h
        scale = 0.5 * np.abs(Q).sum() + np.abs(h).sum()  # bound on any entry
        np.testing.assert_allclose(exact.quadratic_table(Q, h), direct,
                                   rtol=0.0, atol=1e-12 * scale)


class TestMoments:
    @pytest.mark.parametrize("n", [5, 7])
    def test_direct_sums_under_field(self, rng, n):
        m = IsingModel(random_coupling(n, rng, scale=0.5), rng.normal(size=n))
        A = random_coupling(n, rng)
        S = exact.all_states(n)
        p = exact.distribution(m).probs
        AX = S @ A.entries
        quad = np.einsum("si,si->s", AX, S)
        res = exact.moments(m, A)
        np.testing.assert_allclose(res.mean_vec, p @ AX, rtol=1e-12, atol=1e-14)
        assert res.second == pytest.approx(float(p @ (AX**2).sum(axis=1)), rel=1e-12)
        assert res.quad_mean == pytest.approx(float(p @ quad), rel=1e-12)
        assert res.quad_var == pytest.approx(float(p @ (quad - p @ quad) ** 2), rel=1e-12)

    def test_uniform_second_moment_is_frobenius(self, rng):
        A = random_coupling(6, rng)
        res = exact.moments(zero_field(np.zeros((6, 6))), A)
        assert res.second == pytest.approx(float((A.entries**2).sum()), rel=1e-12)
        np.testing.assert_allclose(res.mean_vec, 0.0, atol=1e-14)

    def test_zero_direction(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        res = exact.moments(m, CouplingMatrix.zeros(5))
        assert res.second == res.quad_mean == res.quad_var == 0.0
        np.testing.assert_allclose(res.mean_vec, 0.0)

    def test_variance_bound_via_poincare(self, rng):
        # E||AX||^2 <= ||E[AX]||^2 + rho ||A||_F^2 with the exact constant
        m = dobrushin_model(6, 0.4, seed=4)
        rho = exact.poincare_constant(m)
        for _ in range(10):
            A = random_coupling(6, rng)
            res = exact.moments(m, A)
            bound = float(res.mean_vec @ res.mean_vec) + rho * float((A.entries**2).sum())
            assert res.second <= bound + 1e-10


class TestPoincare:
    def test_product_uniform_is_one(self):
        for n in (2, 4, 6):
            rho = exact.poincare_constant(zero_field(np.zeros((n, n))))
            assert rho == pytest.approx(1.0, abs=1e-10)

    def test_curie_weiss_blowup_at_low_temperature(self):
        slow = exact.poincare_constant(curie_weiss(6, 5.0))
        fast = exact.poincare_constant(curie_weiss(6, 0.2))
        assert slow > 1000 * fast

    def test_spectral_bound(self):
        for alpha, seed in ((0.2, 0), (0.5, 1)):
            m = spread_model(6, 1.0 - alpha, seed)
            assert exact.poincare_constant(m) <= 1.0 / alpha

    def test_field_sign_flip_symmetry(self, rng):
        J = random_coupling(5, rng)
        h = rng.normal(size=5)
        a = exact.poincare_constant(IsingModel(J, h))
        b = exact.poincare_constant(IsingModel(J, -h))
        assert a == pytest.approx(b, abs=1e-10)

    def test_cap(self):
        with pytest.raises(CapabilityError):
            exact.poincare_constant(zero_field(np.zeros((9, 9))))


class TestGlauberTransitionMatrix:
    def test_rows_sum_to_one(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        P = exact.glauber_transition_matrix(m)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_stationarity(self, rng):
        m = IsingModel(random_coupling(6, rng), 0.3 * rng.normal(size=6))
        P = exact.glauber_transition_matrix(m)
        pi = exact.distribution(m).probs
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)


class TestHubbardStratonovich:
    def test_uniform_mixture(self):
        tv = exact.hubbard_stratonovich_check(
            zero_field(np.zeros((4, 4))), shift=1.0, draws=100_000, seed=0
        )
        assert tv <= 0.02

    def test_more_draws_closer(self):
        m = dobrushin_model(6, 0.5, seed=9)
        coarse = exact.hubbard_stratonovich_check(m, draws=1_000, seed=1)
        fine = exact.hubbard_stratonovich_check(m, draws=100_000, seed=1)
        assert fine < coarse

    def test_conditional_bayes(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        shift = exact.default_hs_shift(m.coupling)
        for _ in range(5):
            y = rng.normal(size=5) * 2.0
            assert exact.hs_conditional_error(m, shift, y) <= 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_conditional_matches_state_matrix_oracle(self, rng, n):
        # the posterior and product law over the full (2^n, n) state matrix
        m = IsingModel(random_coupling(n, rng, scale=n**-0.5), rng.normal(size=n))
        shift = exact.default_hs_shift(m.coupling)
        W = m.coupling.entries + shift * np.eye(n)
        y = rng.normal(size=n) * 2.0
        S = exact.all_states(n)
        resid = y[None, :] - S
        post = np.log(exact.distribution(m).probs) - 0.5 * np.einsum("si,si->s", resid @ W, resid)
        exact.normalize(post)
        product = exact._product_table(S, (W @ y + m.field)[None, :])[0]
        product /= product.sum()
        expected = float(np.abs(post - product).max())
        assert exact.hs_conditional_error(m, shift, y) == pytest.approx(expected, abs=1e-14)

    def test_conditional_memory(self, rng):
        n = 16
        m = IsingModel(random_coupling(n, rng, scale=0.25), rng.normal(size=n))
        shift = exact.default_hs_shift(m.coupling)
        y = rng.normal(size=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            err = exact.hs_conditional_error(m, shift, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert err <= 1e-10
        assert peak <= 4 * (1 << n) * 8

    def test_requires_positive_definite_shift(self, rng):
        m = zero_field([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError, match="positive definite"):
            exact.hubbard_stratonovich_check(m, shift=0.5, draws=10)


def test_encode_decode_round_trip(rng):
    n = 6
    S = exact.all_states(n)
    np.testing.assert_array_equal(exact.encode_spins(S), np.arange(1 << n))
