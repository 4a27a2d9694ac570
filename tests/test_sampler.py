import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfit import exact, sampler
from isingfit.core import CapabilityError, CouplingMatrix, IsingModel, ParameterError, stream
from isingfit.ensembles import EnsembleSpec, generate

from conftest import dobrushin_model, random_coupling


def zero_field(J):
    return IsingModel.zero_field(CouplingMatrix(J))


def empirical_table(batch):
    counts = np.bincount(exact.encode_spins(batch.spins), minlength=1 << batch.n)
    return counts / batch.l


class TestConditional:
    def test_uniform_is_half(self):
        m = zero_field(np.zeros((4, 4)))
        x = np.array([1, -1, 1, 1])
        for i in range(4):
            assert sampler.conditional_plus_probability(m, x, i) == 0.5

    def test_saturating_field(self):
        m = IsingModel(CouplingMatrix.zeros(2), np.array([10.0, 0.0]))
        p = sampler.conditional_plus_probability(m, np.array([1, 1]), 0)
        assert p == pytest.approx(1.0, abs=1e-8)

    def test_matches_enumeration(self, rng):
        # oracle: condition the full 2^n table on x_{-i}
        m = IsingModel(random_coupling(4, rng), rng.normal(size=4))
        table = exact.distribution(m).probs
        for _ in range(20):
            x = rng.choice([-1, 1], size=4)
            i = int(rng.integers(4))
            idx_plus = exact.encode_spins(np.where(np.arange(4) == i, 1, x)[None, :])[0]
            idx_minus = exact.encode_spins(np.where(np.arange(4) == i, -1, x)[None, :])[0]
            oracle = table[idx_plus] / (table[idx_plus] + table[idx_minus])
            assert sampler.conditional_plus_probability(m, x, i) == pytest.approx(
                oracle, abs=1e-12
            )

    def test_plus_and_minus_sum_to_one(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        x = rng.choice([-1, 1], size=5)
        for i in range(5):
            p = sampler.conditional_plus_probability(m, x, i)
            q = 1.0 - p  # the minus probability by definition
            assert p + q == 1.0

    def test_index_out_of_range(self):
        m = zero_field(np.zeros((3, 3)))
        with pytest.raises(IndexError):
            sampler.conditional_plus_probability(m, np.ones(3), 3)


class TestGlauber:
    def test_uniform_target_coordinate_means(self):
        m = zero_field(np.zeros((4, 4)))
        l = 100_000
        batch = sampler.glauber_sample(
            m, l, sampler.GlauberConfig(burn_in_sweeps=10, thinning_sweeps=1, seed=4)
        )
        means = batch.as_float().mean(axis=0)
        assert np.all(np.abs(means) < 4.0 / np.sqrt(l))

    def test_dobrushin_tv_against_exact(self):
        model = dobrushin_model(6, 0.3, seed=5)
        batch = sampler.glauber_sample(model, 100_000, sampler.default_config(seed=3))
        tv = 0.5 * np.abs(empirical_table(batch) - exact.distribution(model).probs).sum()
        assert tv <= 0.02

    def test_determinism(self):
        model = dobrushin_model(5, 0.4, seed=1)
        cfg = sampler.GlauberConfig(burn_in_sweeps=20, thinning_sweeps=2, seed=11, chains=3)
        a = sampler.glauber_sample(model, 500, cfg)
        b = sampler.glauber_sample(model, 500, cfg)
        np.testing.assert_array_equal(a.spins, b.spins)

    def test_stationarity_of_update_kernel(self, rng):
        # the sampler's conditional probabilities assemble into a kernel that
        # must fix the exact distribution
        m = IsingModel(random_coupling(6, rng), 0.2 * rng.normal(size=6))
        n = m.n
        S = exact.all_states(n)
        N = 1 << n
        P = np.zeros((N, N))
        for s in range(N):
            for i in range(n):
                p_plus = sampler.conditional_plus_probability(m, S[s], i)
                P[s, s | (1 << i)] += p_plus / n
                P[s, s & ~(1 << i)] += (1.0 - p_plus) / n
        pi = exact.distribution(m).probs
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)

    def test_chain_streams_disjoint(self):
        firsts = {stream(42, c).random() for c in range(8)}
        assert len(firsts) == 8

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            sampler.GlauberConfig(burn_in_sweeps=0)
        with pytest.raises(ParameterError):
            sampler.default_config(alpha=1.5)

    def test_alpha_hint_burn_in(self):
        cfg = sampler.default_config(alpha=0.3)
        assert cfg.burn_in_sweeps == 50 * 4  # ceil(1/0.3) = 4


class TestExactSampler:
    def test_single_site_mean(self):
        l = 40_000
        batch = sampler.exact_sample(zero_field(np.zeros((1, 1))), l, seed=0)
        assert abs(batch.as_float().mean()) < 4.0 / np.sqrt(l)

    def test_two_site_alignment_probability(self):
        # P[X1 X2 = 1] = e / (2 cosh 1) for J12 = 1
        l = 100_000
        batch = sampler.exact_sample(zero_field([[0.0, 1.0], [1.0, 0.0]]), l, seed=1)
        prods = batch.spins[:, 0] * batch.spins[:, 1]
        target = np.e / (2.0 * np.cosh(1.0))
        assert abs((prods == 1).mean() - target) < 4.0 / np.sqrt(l)

    def test_sk_draw_empirical_tv(self):
        model = generate(EnsembleSpec(kind="SK", n=8, beta=0.2, seed=21))
        batch = sampler.exact_sample(model, 1_000_000, seed=2)
        tv = 0.5 * np.abs(empirical_table(batch) - exact.distribution(model).probs).sum()
        assert tv <= 0.02

    def test_cap(self):
        with pytest.raises(CapabilityError):
            sampler.exact_sample(zero_field(np.zeros((21, 21))), 10)

    def test_determinism(self, rng):
        m = IsingModel(random_coupling(5, rng), rng.normal(size=5))
        a = sampler.exact_sample(m, 100, seed=9)
        b = sampler.exact_sample(m, 100, seed=9)
        np.testing.assert_array_equal(a.spins, b.spins)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), data=st.data(), l=st.integers(1, 300),
           seed=st.integers(-2**63, 2**63 - 1), scale=st.floats(0.0, 2.0),
           coupling_seed=st.integers(0, 2**32 - 1))
    def test_table_in_place_of_model(self, n, data, l, seed, scale, coupling_seed):
        h = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        m = IsingModel(random_coupling(n, np.random.default_rng(coupling_seed), scale), np.array(h))
        from_table = sampler.exact_sample(exact.distribution(m), l, seed=seed)
        from_model = sampler.exact_sample(m, l, seed=seed)
        assert from_table.spins.dtype == from_model.spins.dtype
        assert from_table.spins.shape == (l, n)
        assert from_table.spins.tobytes() == from_model.spins.tobytes()
