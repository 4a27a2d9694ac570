import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingfit import mple, sampler
from isingfit.core import CouplingMatrix, SampleBatch, ValidationError

from conftest import dobrushin_model, random_coupling


def make_ctx(rng, n, l, field=None):
    spins = rng.choice([-1, 1], size=(l, n))
    return mple.PseudolikelihoodContext(SampleBatch(spins), field)


def fd_gradient_entry(J, ctx, i, j, eps=1e-5):
    """Central finite difference of the objective in the (i, j) = (j, i) pair."""
    E = np.zeros((J.n, J.n))
    E[i, j] = E[j, i] = 1.0
    fp = mple.objective(CouplingMatrix(J.entries + eps * E), ctx)
    fm = mple.objective(CouplingMatrix(J.entries - eps * E), ctx)
    return (fp - fm) / (2.0 * eps)


class TestObjective:
    def test_zero_matrix_gives_nl_log2(self, rng):
        n, l = 6, 40
        ctx = make_ctx(rng, n, l)
        assert mple.objective(CouplingMatrix.zeros(n), ctx) == pytest.approx(
            n * l * np.log(2.0), rel=1e-12
        )

    def test_all_ones_sample_curie_weiss_closed_form(self):
        n, beta = 5, 1.3
        J = CouplingMatrix((beta / n) * (np.ones((n, n)) - np.eye(n)))
        ctx = mple.PseudolikelihoodContext(SampleBatch(np.ones((1, n), dtype=np.int8)))
        c = beta * (n - 1) / n
        expected = n * (np.log(np.cosh(c)) - c + np.log(2.0))
        assert mple.objective(J, ctx) == pytest.approx(expected, rel=1e-12)

    def test_sample_order_invariance(self, rng):
        n, l = 5, 30
        spins = rng.choice([-1, 1], size=(l, n))
        J = random_coupling(n, rng)
        a = mple.objective(J, mple.PseudolikelihoodContext(SampleBatch(spins)))
        b = mple.objective(J, mple.PseudolikelihoodContext(SampleBatch(spins[::-1])))
        assert a == pytest.approx(b, rel=1e-14)

    def test_dimension_mismatch(self, rng):
        ctx = make_ctx(rng, 4, 10)
        with pytest.raises(ValidationError):
            mple.objective(CouplingMatrix.zeros(5), ctx)


class TestGradient:
    def test_zero_matrix_closed_form(self, rng):
        # tanh(0) = 0, so entry (i, j) reduces to -2 sum_k X_i X_j
        n, l = 5, 30
        spins = rng.choice([-1, 1], size=(l, n))
        ctx = mple.PseudolikelihoodContext(SampleBatch(spins))
        g = mple.gradient(CouplingMatrix.zeros(n), ctx).entries
        x = spins.astype(float)
        expected = -2.0 * (x.T @ x)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(g, expected, atol=1e-10)

    def test_finite_differences(self, rng):
        n, l = 10, 100
        for _ in range(5):
            J = random_coupling(n, rng, scale=0.2)
            ctx = make_ctx(rng, n, l, field=rng.normal(size=n) * 0.1)
            g = mple.gradient(J, ctx).entries
            for i, j in ((0, 1), (3, 7), (4, 9)):
                fd = fd_gradient_entry(J, ctx, i, j)
                assert g[i, j] == pytest.approx(fd, rel=1e-6)

    def test_matches_directional_inner_product(self, rng):
        # <grad, A> over the upper triangle equals twice the half-weighted
        # directional first derivative
        n, l = 8, 60
        J, A = random_coupling(n, rng), random_coupling(n, rng)
        ctx = make_ctx(rng, n, l)
        g = mple.gradient(J, ctx).entries
        first, _ = mple.directional_derivatives(J, A, ctx)
        assert mple.upper_inner(g, A.entries) == pytest.approx(2.0 * first, rel=1e-10)


class TestDirectionalDerivatives:
    def test_second_at_zero_is_half_sum_of_squares(self, rng):
        n, l = 6, 25
        spins = rng.choice([-1, 1], size=(l, n))
        A = random_coupling(n, rng)
        ctx = mple.PseudolikelihoodContext(SampleBatch(spins))
        _, second = mple.directional_derivatives(CouplingMatrix.zeros(n), A, ctx)
        expected = 0.5 * np.sum((spins.astype(float) @ A.entries) ** 2)
        assert second == pytest.approx(expected, rel=1e-12)

    def test_second_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            ctx = make_ctx(rng, n, 20)
            _, second = mple.directional_derivatives(
                random_coupling(n, rng), random_coupling(n, rng), ctx
            )
            assert second >= 0.0

    def test_line_finite_differences(self, rng):
        # the stored derivatives carry a 1/2 prefactor relative to the plain
        # line derivatives of t -> phi(J + tA)
        n, l = 7, 50
        J, A = random_coupling(n, rng, 0.3), random_coupling(n, rng, 0.5)
        ctx = make_ctx(rng, n, l, field=0.2 * rng.normal(size=n))
        first, second = mple.directional_derivatives(J, A, ctx)
        eps = 1e-5
        f0 = mple.objective(J, ctx)
        fp = mple.objective(CouplingMatrix(J.entries + eps * A.entries), ctx)
        fm = mple.objective(CouplingMatrix(J.entries - eps * A.entries), ctx)
        assert first == pytest.approx((fp - fm) / (2 * eps) / 2.0, rel=1e-5)
        assert second == pytest.approx((fp - 2 * f0 + fm) / eps**2 / 2.0, rel=1e-4)


class TestConvexityAndLipschitz:
    def test_secant_inequality(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 9))
            ctx = make_ctx(rng, n, 30)
            J, A = random_coupling(n, rng), random_coupling(n, rng)
            g = mple.gradient(J, ctx).entries
            lhs = mple.objective(CouplingMatrix(J.entries + A.entries), ctx)
            rhs = mple.objective(J, ctx) + mple.upper_inner(g, A.entries)
            assert lhs >= rhs - 1e-9

    def test_operator_norm_lipschitz(self, rng):
        n, l = 6, 40
        ctx = make_ctx(rng, n, l)
        for _ in range(20):
            J1, J2 = random_coupling(n, rng), random_coupling(n, rng)
            diff = abs(mple.objective(J1, ctx) - mple.objective(J2, ctx))
            op = np.abs(np.linalg.eigvalsh(J1.entries - J2.entries)).max()
            assert diff <= n * l * op + 1e-9


class TestPopulationOptimality:
    def test_gradient_zero_mean_at_truth(self):
        # with exact i.i.d. samples the expected gradient vanishes at the
        # generating matrix: per-entry t statistics stay within +/- 4
        n, l, batches = 5, 50, 200
        model = dobrushin_model(n, 0.5, seed=13)
        grads = np.empty((batches, n, n))
        for b in range(batches):
            batch = sampler.exact_sample(model, l, seed=5000 + b)
            ctx = mple.PseudolikelihoodContext(batch, model.field)
            grads[b] = mple.gradient(model.coupling, ctx).entries
        iu = np.triu_indices(n, k=1)
        mean = grads.mean(axis=0)[iu]
        std = grads.std(axis=0, ddof=1)[iu]
        t_stats = mean / (std / np.sqrt(batches))
        assert np.all(np.abs(t_stats) < 4.0)


class TestValueCache:
    def count_logcosh(self, monkeypatch):
        calls = []
        original = mple._logcosh

        def counted(u, *out):
            calls.append(u.shape)
            return original(u, *out)

        monkeypatch.setattr(mple, "_logcosh", counted)
        return calls

    def test_gradient_alone_computes_no_value(self, rng, monkeypatch):
        n, l = 5, 30
        ctx = make_ctx(rng, n, l)
        J = random_coupling(n, rng)
        calls = self.count_logcosh(monkeypatch)
        grad = mple.gradient(J, ctx)
        assert calls == []
        fresh = mple.PseudolikelihoodContext(ctx.samples)
        np.testing.assert_array_equal(grad.entries, mple.objective_and_gradient(J, fresh)[1])

    def test_objective_and_gradient_builds_m_once(self, rng, monkeypatch):
        # the context keeps no cache, and each kernel call builds M once
        n, l = 6, 50
        ctx = make_ctx(rng, n, l, field=rng.normal(size=n))
        assert not [k for k in vars(ctx) if k.startswith("_cached")]
        assert not hasattr(ctx, "value")
        J = random_coupling(n, rng)
        builds = []
        original = ctx.fields_matrix
        monkeypatch.setattr(ctx, "fields_matrix",
                            lambda K, out=None: builds.append(K) or original(K, out))
        calls = self.count_logcosh(monkeypatch)
        value, grad = mple.objective_and_gradient(J, ctx)
        assert len(builds) == len(calls) == 1
        assert value == mple.objective(J, ctx)
        np.testing.assert_array_equal(grad, mple.gradient(J, ctx).entries)
        assert len(builds) == 3 and len(calls) == 2


def fresh_array_kernel(J, ctx):
    """Value and raw gradient written as plain expressions, each step a fresh array."""
    m = ctx.x @ J.entries + ctx.field
    a = np.abs(m)
    logcosh = a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
    value = float((ctx.w @ (logcosh - ctx.x * m)).sum()) + ctx.l * ctx.n * np.log(2.0)
    g = (np.tanh(m) - ctx.x).T @ ctx.wx
    g = g + g.T
    np.fill_diagonal(g, 0.0)
    return value, g


class TestWorkspace:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), l=st.integers(1, 600), with_field=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3, l=200, with_field=True, seed=0)  # folded: 8 distinct rows
    @example(n=9, l=5, with_field=False, seed=1)  # unfolded
    def test_bit_identical_to_fresh_arrays(self, n, l, with_field, seed):
        # one context, J changing between calls, the three kernels in every order
        rng = np.random.default_rng(seed)
        field = rng.normal(size=n) if with_field else None
        ctx = make_ctx(rng, n, l, field)
        J1, J2 = random_coupling(n, rng, 0.3), random_coupling(n, rng, 2.0)
        orders = itertools.permutations(("both", "objective", "gradient"))
        for J, order in zip([J1, J2, J1, J2, J2, J1], orders):
            value, grad = fresh_array_kernel(J, ctx)
            for call in order:
                if call == "both":
                    got_value, got_grad = mple.objective_and_gradient(J, ctx)
                    assert got_value == value
                    assert (got_grad == grad).all()
                elif call == "objective":
                    assert mple.objective(J, ctx) == value
                else:
                    assert (mple.gradient(J, ctx).entries == grad).all()
        assert ctx._work.shape == (3,) + ctx.x.shape

    @pytest.mark.parametrize("n, l", [(30, 2000), (8, 4000)])
    def test_bit_identical_at_benchmark_shapes(self, n, l):
        rng = np.random.default_rng(n)
        ctx = make_ctx(rng, n, l, field=rng.normal(size=n))
        for scale in (0.1, 1.0):
            J = random_coupling(n, rng, scale)
            value, grad = fresh_array_kernel(J, ctx)
            got_value, got_grad = mple.objective_and_gradient(J, ctx)
            assert got_value == value and (got_grad == grad).all()
            assert mple.objective(J, ctx) == value
            assert (mple.gradient(J, ctx).entries == grad).all()

    def test_second_call_allocates_less_than_one_array(self):
        # at n = 30, l = 2000 each (l, n) float64 temporary is 480,000 bytes
        n, l = 30, 2000
        rng = np.random.default_rng(3)
        ctx = make_ctx(rng, n, l, field=rng.normal(size=n))
        J = random_coupling(n, rng, 0.2)
        mple.objective_and_gradient(J, ctx)
        tracemalloc.start()
        try:
            mple.objective_and_gradient(J, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < l * n * 8

    def test_directional_only_context_makes_no_workspace(self, rng):
        n, l = 16, 1000
        ctx = make_ctx(rng, n, l)
        J, A = random_coupling(n, rng, 0.2), random_coupling(n, rng)
        mple.directional_derivatives(J, A, ctx)
        mple.directional_derivatives(A, J, ctx)
        assert "_work" not in vars(ctx)
        mple.objective(J, ctx)
        assert vars(ctx)["_work"].shape == (3, l, n)


def few_state_batch(n, k, l, seed):
    """l rows drawn from k random rows of {-1,+1}^n, with a field, J and A."""
    rng = np.random.default_rng(seed)
    spins = rng.choice([-1, 1], size=(k, n))[rng.integers(0, k, size=l)]
    return spins, 0.3 * rng.normal(size=n), random_coupling(n, rng, 0.5), random_coupling(n, rng)


def per_row_terms(spins, h, J, A):
    """Each row's contribution to the value, the gradient and both directional
    derivatives, computed one row at a time."""
    value, grad, first, second = [], [], [], []
    for x in spins.astype(float):
        m = J.entries @ x + h
        t = np.tanh(m)
        value.append(np.log(np.cosh(m)) - x * m + np.log(2.0))
        g = np.outer(t - x, x)
        g = g + g.T
        np.fill_diagonal(g, 0.0)
        grad.append(g)
        b = A.entries @ x
        first.append(0.5 * b * (t - x))
        second.append(0.5 * b * b * (1.0 - t * t))
    return [np.array(terms) for terms in (value, grad, first, second)]


def assert_sums(got, terms, axis):
    # relative to the sum of absolute terms, so cancelling entries are held to it too
    got = np.asarray(got)
    assert np.all(np.abs(got - terms.sum(axis=axis)) <= 1e-12 * np.abs(terms).sum(axis=axis))


batch_shapes = dict(n=st.integers(2, 6), k=st.integers(1, 12), l=st.integers(1, 600),
                    seed=st.integers(0, 2**32 - 1))


class TestDistinctRowFold:
    @settings(max_examples=100, deadline=None)
    @example(n=6, k=12, l=64, seed=1)  # 2^n = l: the smallest folded batch
    @example(n=6, k=12, l=63, seed=1)  # one row short: kept as given
    @example(n=2, k=12, l=4, seed=2)
    @given(**batch_shapes)
    def test_matches_per_row_reference(self, n, k, l, seed):
        spins, h, J, A = few_state_batch(n, k, l, seed)
        ctx = mple.PseudolikelihoodContext(SampleBatch(spins), h)
        assert ctx.x.shape[0] == (len(np.unique(spins, axis=0)) if 1 << n <= l else l)
        value, grad, first, second = per_row_terms(spins, h, J, A)
        v, g = mple.objective_and_gradient(J, ctx)
        assert_sums(v, value, axis=None)
        assert_sums(mple.objective(J, ctx), value, axis=None)
        assert_sums(g, grad, axis=0)
        assert_sums(mple.gradient(J, ctx).entries, grad, axis=0)
        d1, d2 = mple.directional_derivatives(J, A, ctx)
        assert_sums(d1, first, axis=None)
        assert_sums(d2, second, axis=None)

    @settings(max_examples=100, deadline=None)
    @example(n=6, k=12, l=32, seed=3)  # 2^n = 2l: only the stacked batch is folded
    @example(n=6, k=12, l=64, seed=3)
    @given(**batch_shapes)
    def test_stacking_a_batch_on_itself_doubles(self, n, k, l, seed):
        spins, h, J, A = few_state_batch(n, k, l, seed)
        one = mple.PseudolikelihoodContext(SampleBatch(spins), h)
        two = mple.PseudolikelihoodContext(SampleBatch(np.vstack([spins, spins])), h)
        assert two.l == 2 * one.l
        v1, g1 = mple.objective_and_gradient(J, one)
        v2, g2 = mple.objective_and_gradient(J, two)
        d1 = np.array(mple.directional_derivatives(J, A, one))
        d2 = np.array(mple.directional_derivatives(J, A, two))
        if 1 << n <= l:  # both folded: the same rows with doubled counts
            assert v2 == 2.0 * v1
            np.testing.assert_array_equal(g2, 2.0 * g1)
            np.testing.assert_array_equal(d2, 2.0 * d1)
        else:  # a sum over rows as given doubles up to summation order
            assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
            np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-12 * np.abs(g1).max())
            np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-12 * np.abs(d1).max())
