import numpy as np
import pytest

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

        def counted(u):
            calls.append(u.shape)
            return original(u)

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
        monkeypatch.setattr(ctx, "fields_matrix", lambda K: builds.append(K) or original(K))
        calls = self.count_logcosh(monkeypatch)
        value, grad = mple.objective_and_gradient(J, ctx)
        assert len(builds) == len(calls) == 1
        assert value == mple.objective(J, ctx)
        np.testing.assert_array_equal(grad, mple.gradient(J, ctx).entries)
        assert len(builds) == 3 and len(calls) == 2
