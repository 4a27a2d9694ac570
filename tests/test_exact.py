import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingfit import diagnostics, exact
from isingfit.core import (
    CapabilityError,
    CouplingMatrix,
    IsingModel,
    ParameterError,
    ValidationError,
)

from conftest import dobrushin_model, random_coupling, spread_model


def zero_field(J):
    return IsingModel.zero_field(CouplingMatrix(J))


def curie_weiss(n, beta):
    return zero_field((beta / n) * (np.ones((n, n)) - np.eye(n)))


class TestPartitionFunction:
    def test_single_site(self):
        assert exact.distribution(zero_field([[0.0]])).log_z == pytest.approx(np.log(2.0))

    def test_two_sites_closed_form(self):
        for beta in (0.3, 1.0, 4.0):
            m = zero_field([[0.0, beta], [beta, 0.0]])
            assert exact.distribution(m).log_z == pytest.approx(
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
        assert exact.distribution(curie_weiss(n, beta)).log_z == pytest.approx(oracle, rel=1e-12)

    def test_cap(self):
        with pytest.raises(CapabilityError, match="enumeration cap"):
            exact.distribution(zero_field(np.zeros((25, 25))))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_hand_built_table_rejects_non_finite_or_negative(self, bad):
        with pytest.raises(ValidationError):
            exact.DistributionTable(n=2, probs=np.array([0.25, bad, 0.25, 0.25]))

    @pytest.mark.parametrize("n, probs", [
        (-1, np.array([1.0])),  # 1 << -1 would raise ValueError
        (2, [0.25] * 4),  # a list has no .shape
        (2.0, np.full(4, 0.25)),
    ], ids=["negative_n", "list_probs", "float_n"])
    def test_hand_built_table_rejects_bad_n_or_probs(self, n, probs):
        with pytest.raises(ValidationError, match="integer n >= 0 and an ndarray of 2\\^n"):
            exact.DistributionTable(n=n, probs=probs)

    @pytest.mark.parametrize("log_weights", [[0.0, np.nan], [0.0, np.inf], [-np.inf, -np.inf]],
                             ids=["nan", "inf", "all_minus_inf"])
    def test_normalize_rejects_non_finite_max(self, log_weights):
        with pytest.raises(CapabilityError, match="n = 1: log weights overflow float64"):
            exact.normalize(np.array(log_weights))

    def test_overflowing_model_raises_without_warnings(self):
        J = np.full((8, 8), 1e307)
        np.fill_diagonal(J, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for streamed in (False, True):
                with pytest.raises(CapabilityError, match="n = 8: log weights overflow float64"):
                    exact.distribution(zero_field(J), streamed=streamed)

    def test_one_table_of_memory(self, rng):
        n = 16
        m = IsingModel(random_coupling(n, rng, scale=0.1), rng.normal(size=n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = exact.distribution(m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * table.probs.nbytes

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
        assert peak <= exact._CHUNK * 8 + 8192  # one block buffer plus the block sums


class TestDraw:
    def test_inverse_cdf(self):
        probs = np.array([0.25, 0.0, 0.5, 0.25])
        u = np.array([0.0, 0.2, 0.25, 0.6, 0.75, 0.9])
        np.testing.assert_array_equal(exact.draw(probs, u), [0, 0, 2, 2, 3, 3])

    def test_cumsum_below_one_maps_to_last_state(self):
        probs = np.array([0.5, 0.5 - 1e-13])
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(probs)[-1] < top
        np.testing.assert_array_equal(exact.draw(probs, np.array([top, 0.9])), [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 7), scale=st.floats(0.5, 1.0),
           chunk=st.sampled_from([1, 2, 4, 8, 1 << 15]))
    def test_sorted_search_matches_unsorted(self, data, n, scale, chunk):
        # zero entries repeat CDF values; keys hit CDF entries exactly (chunk ends
        # among them), sit at 0 and in [cdf[-1], 1), where rounding leaves the top;
        # chunks of a few entries make the walk carry its total across many of them
        weights = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1 << n,
                                     max_size=1 << n).filter(lambda w: sum(w) > 0))
        probs = scale * np.array(weights) / sum(weights)
        cdf = np.cumsum(probs)
        keys = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, *cdf[cdf < 1.0]])
        if cdf[-1] < 1.0:
            keys = keys | st.floats(float(cdf[-1]), 1.0, exclude_max=True)
        u = np.array(data.draw(st.lists(keys, min_size=1, max_size=300)))
        expected = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        with mock.patch.object(exact, "_CHUNK", chunk):
            np.testing.assert_array_equal(exact.draw(probs, u), expected)


def log_form_kl(p, q):
    """sum p log(p / q) over the support of p: the oracle for the log Z identity."""
    support = p.probs > 0
    terms = p.probs[support] * (np.log(p.probs[support]) - np.log(q.probs[support]))
    return float(terms.sum())


class TestKlDivergence:
    def test_identical_zero(self, rng):
        t = exact.distribution(IsingModel(random_coupling(4, rng), rng.normal(size=4)))
        assert exact.kl_divergence(t, t) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_log_form(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        p, q = (exact.distribution(IsingModel(random_coupling(n, rng, scale),
                                              scale * rng.normal(size=n)))
                for _ in range(2))
        assert exact.kl_divergence(p, q) == pytest.approx(log_form_kl(p, q), rel=1e-10, abs=1e-13)

    def test_underflowing_q_stays_finite(self):
        # q's anti-aligned states underflow to 0 on p's full support; with
        # E_p[x0 x1] = tanh(beta_p), KL = (beta_p - beta_q) tanh(beta_p) - log Z_p + log Z_q
        beta_p, beta_q = 0.5, 1000.0
        p = exact.distribution(zero_field([[0.0, beta_p], [beta_p, 0.0]]))
        q = exact.distribution(zero_field([[0.0, beta_q], [beta_q, 0.0]]))
        assert q.probs[1] == q.probs[2] == 0.0
        log_z = lambda b: b + np.log(2.0) + np.log1p(np.exp(-2.0 * b))  # log(4 cosh b)
        closed = (beta_p - beta_q) * np.tanh(beta_p) - log_z(beta_p) + log_z(beta_q)
        kl = exact.kl_divergence(p, q)
        assert np.isfinite(kl)
        assert kl == pytest.approx(closed, rel=1e-12)

    def test_hand_built_table_rejected(self):
        p = exact.DistributionTable(n=1, probs=np.array([0.5, 0.5]))
        q = exact.distribution(zero_field([[0.0]]))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ValidationError, match="built from a model"):
                exact.kl_divergence(a, b)

    def test_small_temporaries(self, rng):
        n = 16
        p = exact.distribution(IsingModel(random_coupling(n, rng, scale=0.1), rng.normal(size=n)))
        q = exact.distribution(zero_field(random_coupling(n, rng, scale=0.1).entries))
        expected = log_form_kl(p, q)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kl = exact.kl_divergence(p, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kl == pytest.approx(expected, rel=1e-10)
        assert peak < p.probs.nbytes / 8

    def test_streamed_table_read_once_for_tv_and_not_for_kl(self, rng):
        # building a StreamedTable takes its moments, so KL reads no block and TV one pass
        n = 12
        est, truth = (IsingModel(random_coupling(n, rng), rng.normal(size=n)) for _ in range(2))
        with mock.patch.object(exact, "_BLOCK", 1 << 8):
            p_true = exact.distribution(truth)
            p_est = exact.distribution(est, streamed=True)
            passes = []
            original = exact.StreamedTable._log_weights

            def counted(self):
                passes.append(self.n)
                return original(self)

            with mock.patch.object(exact.StreamedTable, "_log_weights", counted):
                kl = exact.kl_divergence(p_est, p_true)
                assert passes == []
                tv = exact.tv_distance(p_est, p_true)
                assert passes == [n]
            stored = exact.distribution(est)
            assert (tv, kl) == (exact.tv_distance(stored, p_true),
                                exact.kl_divergence(stored, p_true))

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
        delta = J2.entries - J1.entries
        # E_1[x^T D x] as a sum over the states, and as <D, E_1[x x^T]>
        quad = float(p1.probs @ exact.quadratic_table(2.0 * delta, np.zeros(6)))
        assert quad == pytest.approx(float(np.vdot(delta, exact.second_moments(p1)[1])),
                                     rel=1e-12, abs=1e-14)
        identity = (
            exact.distribution(m2).log_z - p1.log_z - 0.5 * quad
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


def earlier_table(Q, h):
    """quadratic_table as one cross-term GEMM, then t_b and t_a added by broadcast."""
    k = h.size // 2
    Sa, Sb = exact.all_states(k), exact.all_states(h.size - k)
    table = (Sb @ Q[k:, :k]) @ Sa.T
    table += (0.5 * ((Sb @ Q[k:, k:]) * Sb).sum(axis=1) + Sb @ h[k:])[:, None]
    table += (0.5 * ((Sa @ Q[:k, :k]) * Sa).sum(axis=1) + Sa @ h[:k])[None, :]
    return table.reshape(-1)


def random_form(n, log_scale, seed):
    rng = np.random.default_rng(seed)
    Q = 10.0**log_scale * rng.normal(size=(n, n))
    return Q + Q.T, 10.0**log_scale * rng.normal(size=n)


class TestBitIdentity:
    """The table, the distribution checked by normalize alone and the block-wise TV,
    compared with == to the expressions they replaced, and stored tables with ==
    to streamed ones.

    Up to n = 14 a table is one row block, so one product. Its equality to the
    earlier expression holds on the OpenBLAS 0.3.31 build that numpy 2.4.6 ships:
    its kernel sums the inner dimension in order, so the two appended columns add
    t_b, then t_a, after the cross term. A BLAS that splits or reorders a short
    inner sum could fail it by the last bit. Stored and streamed tables share one
    product walk and one normalization, so they are equal at any block size on
    any build.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 14), st.floats(-3.0, 2.0), st.integers(0, 2**32 - 1))
    def test_quadratic_table(self, n, log_scale, seed):
        Q, h = random_form(n, log_scale, seed)
        np.testing.assert_array_equal(exact.quadratic_table(Q, h), earlier_table(Q, h))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.floats(-3.0, 1.0), st.integers(0, 2**32 - 1))
    def test_distribution(self, n, log_scale, seed):
        Q, h = random_form(n, log_scale, seed)
        np.fill_diagonal(Q, 0.0)
        table = exact.distribution(IsingModel(CouplingMatrix(Q), h))
        weights = earlier_table(Q, h)
        top = float(weights.max())
        weights = np.exp(weights - top)
        total = float(weights.sum())
        np.testing.assert_array_equal(table.probs, weights / total)
        assert table.log_z == top + float(np.log(total))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.floats(-3.0, 1.0), st.integers(0, 2**32 - 1),
           st.sampled_from([1 << 4, 1 << 9, 1 << 12, 1 << 17]))
    @example(16, 0.0, 0, 1 << 9)  # 128 blocks of two rows
    @example(16, 0.0, 0, 1 << 4)  # 256 blocks of one row
    @example(20, 0.0, 0, 1 << 17)  # the default: 8 blocks of 128 rows
    def test_streamed_table(self, n, log_scale, seed, block):
        Q, h = random_form(n, log_scale, seed)
        np.fill_diagonal(Q, 0.0)
        m = IsingModel(CouplingMatrix(Q), h)
        with mock.patch.object(exact, "_BLOCK", block):
            table = exact.distribution(m)
            streamed = exact.distribution(m, streamed=True)
            probs = np.concatenate([b.copy() for b in streamed.blocks()]).reshape(-1)
            stored_blocks = list(table.blocks())
            assert all(b.base is not None for b in stored_blocks)  # views, not copies
            assert [b.shape for b in stored_blocks] == [b.shape for b in streamed.blocks()]
            for a, b in zip(exact.second_moments(streamed), exact.second_moments(table)):
                np.testing.assert_array_equal(a, b)
        assert streamed.log_z == table.log_z
        np.testing.assert_array_equal(probs, table.probs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 17), st.integers(0, 2**32 - 1))
    @example(0, 0)
    @example(17, 0)  # four blocks
    def test_tv_distance(self, n, seed):
        rng = np.random.default_rng(seed)
        p, q = rng.random((2, 1 << n)) ** 4
        p[1:][rng.random(p.size - 1) < 0.1] = 0.0  # exact zeros; p[0] stays positive
        p, q = p / p.sum(), q / q.sum()
        tables = [exact.DistributionTable(n=n, probs=t) for t in (p, q)]
        assert exact.tv_distance(*tables) == 0.5 * float(np.abs(p - q).sum())


class TestSecondMoments:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_state_matrix(self, rng, n):
        table = exact.distribution(IsingModel(random_coupling(n, rng), rng.normal(size=n)))
        S = exact.all_states(n)
        mean, second = exact.second_moments(table)
        np.testing.assert_allclose(mean, S.T @ table.probs, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(second, S.T @ np.diag(table.probs) @ S, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(second, second.T)

    @pytest.mark.parametrize("n", [7, 9])
    def test_row_blocks(self, rng, n):
        # blocks of 2^4 entries: many blocks, each read in place, their column sums
        # added in a pairwise tree
        table = exact.distribution(IsingModel(random_coupling(n, rng), rng.normal(size=n)))
        S = exact.all_states(n)
        whole = table.probs.reshape(1 << n - 4, -1, 1 << n // 2).sum(axis=1)
        while len(whole) > 1:
            whole = whole[0::2] + whole[1::2]
        whole = whole[0]
        with mock.patch.object(exact, "_BLOCK", 1 << 4):
            assert len(list(table.blocks())) == 1 << n - 4
            mean, second = exact.second_moments(table)
        np.testing.assert_array_equal(mean[:n // 2], exact.all_states(n // 2).T @ whole)
        np.testing.assert_allclose(mean, S.T @ table.probs, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(second, S.T @ np.diag(table.probs) @ S, rtol=0.0, atol=1e-14)


class TestMoments:
    """Moments of A x read off :func:`exact.second_moments` (E[A x] = A E[x],
    E[x^T A x] = <A, E[x x^T]>) and E||A x||^2 from ``metric_comparison``."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_direct_sums_under_field(self, rng, n):
        m = IsingModel(random_coupling(n, rng, scale=0.5), rng.normal(size=n))
        J2 = random_coupling(n, rng)
        A = J2.entries - m.coupling.entries
        S = exact.all_states(n)
        table = exact.distribution(m)
        p = table.probs
        AX = S @ A
        mean, second = exact.second_moments(table)
        np.testing.assert_allclose(A @ mean, p @ AX, rtol=1e-12, atol=1e-14)
        assert float(np.vdot(A, second)) == pytest.approx(
            float(p @ np.einsum("si,si->s", AX, S)), rel=1e-12)
        e_jstar = diagnostics.metric_comparison(m, J2).e_jstar
        assert e_jstar == pytest.approx(float(p @ (AX**2).sum(axis=1)), rel=1e-12)

    def test_uniform_second_moment_is_frobenius(self, rng):
        A = random_coupling(6, rng)
        uniform = zero_field(np.zeros((6, 6)))
        cmp = diagnostics.metric_comparison(uniform, A)
        assert cmp.e_jstar == pytest.approx(float((A.entries**2).sum()), rel=1e-12)
        mean = exact.second_moments(exact.distribution(uniform))[0]
        np.testing.assert_allclose(A.entries @ mean, 0.0, atol=1e-14)

    def test_zero_direction(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        cmp = diagnostics.metric_comparison(m, m.coupling)
        assert cmp.degenerate and cmp.e_jstar == cmp.frob_sq == 0.0

    def test_variance_bound_via_poincare(self, rng):
        # E||AX||^2 <= ||E[AX]||^2 + rho ||A||_F^2 with the exact constant
        m = dobrushin_model(6, 0.4, seed=4)
        rho = exact.poincare_constant(m)
        mean = exact.second_moments(exact.distribution(m))[0]
        for _ in range(10):
            J2 = random_coupling(6, rng)
            cmp = diagnostics.metric_comparison(m, J2)
            mean_vec = (J2.entries - m.coupling.entries) @ mean
            assert cmp.e_jstar <= float(mean_vec @ mean_vec) + rho * cmp.frob_sq + 1e-10


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

    def test_conditional_underflowing_table(self):
        # two of the four probabilities underflow to 0; the posterior is built
        # from log weights, so no log of a probability is taken
        beta = 400.0
        m = zero_field([[0.0, beta], [beta, 0.0]])
        assert exact.distribution(m).probs[1] == 0.0
        shift = exact.default_hs_shift(m.coupling)
        with np.errstate(divide="raise", invalid="raise"):  # exp may underflow
            for y in ([0.3, -0.2], [-2.0, 0.5]):
                assert exact.hs_conditional_error(m, shift, y) <= 1e-10

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

    @pytest.mark.parametrize("draws", [0, -5, 2.5])
    def test_draws_must_be_positive_integer(self, draws):
        m = zero_field(np.zeros((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="draws must be an integer >= 1"):
                exact.hubbard_stratonovich_check(m, shift=1.0, draws=draws)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_shift_must_be_finite(self, shift):
        m = zero_field(np.zeros((3, 3)))
        with pytest.raises(ParameterError, match="shift must be a finite real number"):
            exact.hubbard_stratonovich_check(m, shift=shift, draws=10)
        with pytest.raises(ParameterError, match="shift must be a finite real number"):
            exact.hs_conditional_error(m, shift, np.zeros(3))

    @pytest.mark.parametrize("y", [[0.0, 0.0], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                                   [True, False, True]])
    def test_conditional_error_checks_y(self, y):
        m = zero_field(np.zeros((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="y must hold 3 finite reals"):
                exact.hs_conditional_error(m, 1.0, y)


@pytest.mark.parametrize("n", range(exact.DEFAULT_ENUM_CAP + 3))
def test_halves_built_once_and_read_only(n):
    Sa, Sb = exact._halves(n)
    np.testing.assert_array_equal(Sa, exact.all_states(n // 2))
    np.testing.assert_array_equal(Sb, exact.all_states(n - n // 2))
    if n <= exact.DEFAULT_ENUM_CAP:  # above the cap the arrays are built per call
        assert exact._halves(n)[1] is Sb
        for S in (Sa, Sb):
            with pytest.raises(ValueError, match="read-only"):
                S[0] = 0.0


def test_encode_decode_round_trip(rng):
    n = 6
    S = exact.all_states(n)
    np.testing.assert_array_equal(exact.encode_spins(S), np.arange(1 << n))
