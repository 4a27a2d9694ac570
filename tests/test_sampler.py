import math
import multiprocessing
import os
import statistics
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfit import exact, sampler
from isingfit.core import (
    CapabilityError, CouplingMatrix, IsingModel, ParameterError, SampleBatch,
    stream,
)
from isingfit.ensembles import EnsembleSpec, generate

from conftest import dobrushin_model, random_coupling


def zero_field(J):
    return IsingModel.zero_field(CouplingMatrix(J))


def oracle_chain(J, h, n_samples, cfg, chain):
    """The heat-bath chain with python-list fields, one scalar add per site and
    flip: the loop that ``sampler._run_chain`` must match byte for byte."""
    n = h.shape[0]
    rng = stream(cfg.seed, chain)
    x = [1.0 if b else -1.0 for b in rng.integers(0, 2, size=n)]
    rows = [[float(v) for v in row] for row in J]
    f = [sum(rows[i][j] * x[j] for j in range(n)) + float(h[i]) for i in range(n)]
    tanh = math.tanh

    def sweeps(count):
        steps = count * n
        sites = rng.integers(0, n, size=steps)
        us = rng.random(steps)
        for t in range(steps):
            i = int(sites[t])
            s_new = 1.0 if us[t] < 0.5 * (1.0 + tanh(f[i])) else -1.0
            if s_new != x[i]:
                d = s_new - x[i]
                x[i] = s_new
                row = rows[i]
                for j in range(n):
                    f[j] += row[j] * d
    sweeps(cfg.burn_in_sweeps)
    out = np.empty((n_samples, n), dtype=np.int8)
    for k in range(n_samples):
        sweeps(cfg.thinning_sweeps)
        out[k] = x
    return out


def oracle_glauber(m, l, cfg):
    chains = min(cfg.chains, l)
    spins = np.empty((l, m.n), dtype=np.int8)
    for c in range(chains):
        spins[c::chains] = oracle_chain(m.coupling.entries, m.field,
                                        (l - c + chains - 1) // chains, cfg, c)
    return spins


def empirical_table(batch):
    counts = np.bincount(exact.encode_spins(batch.spins), minlength=1 << batch.n)
    return counts / batch.l


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
        # the heat-bath kernel, each site's conditional read off the exact table,
        # is the chain's transition matrix and fixes the exact distribution
        m = IsingModel(random_coupling(6, rng), 0.2 * rng.normal(size=6))
        n = m.n
        pi = exact.distribution(m).probs
        idx = np.arange(1 << n)
        P = np.zeros((1 << n, 1 << n))
        for i in range(n):
            up, down = idx | (1 << i), idx & ~(1 << i)
            p_plus = pi[up] / (pi[up] + pi[down])
            P[idx, up] += p_plus / n
            P[idx, down] += (1.0 - p_plus) / n
        np.testing.assert_allclose(P, exact.glauber_transition_matrix(m), atol=1e-12)
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

    @settings(max_examples=100, deadline=None)
    @given(n=st.one_of(st.integers(1, 12), st.just(30)), data=st.data(),
           scale=st.floats(0.0, 3.0), coupling_seed=st.integers(0, 2**32 - 1),
           chains=st.integers(1, 5), burn_in=st.integers(1, 5), thinning=st.integers(1, 3),
           l=st.integers(1, 60), seed=st.integers(-2**63, 2**63 - 1))
    def test_matches_list_loop_byte_for_byte(self, n, data, scale, coupling_seed, chains,
                                             burn_in, thinning, l, seed):
        h = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        m = IsingModel(random_coupling(n, np.random.default_rng(coupling_seed), scale), np.array(h))
        cfg = sampler.GlauberConfig(burn_in_sweeps=burn_in, thinning_sweeps=thinning,
                                    seed=seed, chains=chains)
        spins = sampler.glauber_sample(m, l, cfg).spins
        assert spins.dtype == np.int8
        assert spins.tobytes() == oracle_glauber(m, l, cfg).tobytes()

    def test_benchmark_sample_matches_list_loop(self):
        # SK n = 30, l = 2000 under the default config, as the glauber_n30 workload samples
        m = generate(EnsembleSpec(kind="SK", n=30, beta=0.5, seed=0))
        cfg = sampler.default_config()
        spins = sampler.glauber_sample(m, 2000, cfg).spins
        assert spins.tobytes() == oracle_glauber(m, 2000, cfg).tobytes()

    def test_chain_memory_is_the_draw_arrays(self):
        # one sweeps call holds its site and uniform draws as two numpy arrays
        # (8 bytes each per step); python lists of them would take far more
        m = generate(EnsembleSpec(kind="SK", n=30, beta=0.5, seed=0))
        cfg = sampler.GlauberConfig(burn_in_sweeps=5000, chains=1)
        tracemalloc.start()
        try:
            sampler.glauber_sample(m, 1, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (5000 * 30) * 16


fork_only = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                               reason="chains run in one process without fork")


class TestChainProcesses:
    @fork_only
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), l=st.integers(1, 60), chains=st.integers(1, 6),
           seed=st.integers(-2**63, 2**63 - 1), coupling_seed=st.integers(0, 2**32 - 1))
    def test_parallel_matches_serial_byte_for_byte(self, n, l, chains, seed, coupling_seed):
        m = zero_field(random_coupling(n, np.random.default_rng(coupling_seed)).entries)
        cfg = sampler.GlauberConfig(burn_in_sweeps=3, thinning_sweeps=2, seed=seed, chains=chains)
        assert sampler.chain_processes(n, l, cfg) == 1  # below the threshold
        serial = sampler.glauber_sample(m, l, cfg).spins.tobytes()
        for cpus in (2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampler, "_MIN_PARALLEL_UPDATES", 0)
                patch.setattr(sampler, "_usable_cpus", lambda: cpus)
                assert sampler.chain_processes(n, l, cfg) == min(chains, l, cpus)
                assert sampler.glauber_sample(m, l, cfg).spins.tobytes() == serial

    @fork_only
    @pytest.mark.parametrize("failing_chain", [0, 1])
    def test_chain_error_reaches_caller(self, monkeypatch, failing_chain):
        # the caller runs chains 0 and 2 and the worker 1 and 3; the worker
        # forks with the patched stream in place. When the caller's chain
        # fails, the worker (stuck in chain 1) is stopped, not waited for.
        monkeypatch.setattr(sampler, "_MIN_PARALLEL_UPDATES", 0)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        keyed = sampler.stream

        def patched(seed, chain):
            if chain == failing_chain:
                raise ValueError(os.getpid())
            if chain == 1:
                time.sleep(60)
            return keyed(seed, chain)

        monkeypatch.setattr(sampler, "stream", patched)
        cfg = sampler.GlauberConfig(burn_in_sweeps=2, chains=4)
        start = time.monotonic()
        with pytest.raises(ValueError) as info:
            sampler.glauber_sample(dobrushin_model(5, 0.4, seed=1), 40, cfg)
        assert time.monotonic() - start < 30
        assert (info.value.args[0] == os.getpid()) == (failing_chain == 0)
        assert multiprocessing.active_children() == []

    @fork_only
    def test_dead_worker_is_an_error(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MIN_PARALLEL_UPDATES", 0)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        keyed = sampler.stream
        monkeypatch.setattr(sampler, "stream",
                            lambda seed, chain: os._exit(3) if chain == 1 else keyed(seed, chain))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            sampler.glauber_sample(dobrushin_model(5, 0.4, seed=1), 40,
                                   sampler.GlauberConfig(burn_in_sweeps=2, chains=4))
        assert multiprocessing.active_children() == []

    def test_serial_cases(self, monkeypatch):
        cfg = sampler.GlauberConfig(chains=4)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        assert sampler.site_updates(30, 2000, cfg) >= sampler._MIN_PARALLEL_UPDATES
        assert sampler.chain_processes(30, 1, cfg) == 1  # one chain ran
        assert sampler.chain_processes(30, 200, cfg) == 1  # below the threshold
        assert sampler.chain_processes(30, 2000, cfg) == (
            2 if "fork" in multiprocessing.get_all_start_methods() else 1)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
        assert sampler.chain_processes(30, 2000, cfg) == 1
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert sampler.chain_processes(30, 2000, cfg) == 1  # another thread runs
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert sampler.chain_processes(30, 2000, cfg) == 1


class TestInputChecks:
    @pytest.mark.parametrize("l", [2.5, True, "3", 0, None])
    def test_sample_count_must_be_an_integer(self, l):
        m = zero_field(np.zeros((3, 3)))
        for draw in (sampler.glauber_sample, sampler.exact_sample):
            with pytest.raises(ParameterError, match="sample count must be an integer >= 1"):
                draw(m, l)

    @pytest.mark.parametrize("seed", ["a", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            sampler.GlauberConfig(seed=seed)
        with pytest.raises(ParameterError, match="seed must be an integer"):
            sampler.exact_sample(zero_field(np.zeros((3, 3))), 5, seed=seed)

    def test_numpy_integers_pass(self):
        m = dobrushin_model(4, 0.3, seed=2)
        cfg = sampler.GlauberConfig(burn_in_sweeps=3, seed=np.int64(-5), chains=np.int32(2))
        plain = sampler.GlauberConfig(burn_in_sweeps=3, seed=-5, chains=2)
        np.testing.assert_array_equal(sampler.glauber_sample(m, np.int64(7), cfg).spins,
                                      sampler.glauber_sample(m, 7, plain).spins)
        np.testing.assert_array_equal(sampler.exact_sample(m, np.uint16(7), seed=np.int64(3)).spins,
                                      sampler.exact_sample(m, 7, seed=3).spins)


class TestMixing:
    def test_split_rhat_matches_the_bda3_formula(self, rng):
        draws = rng.normal(size=(3, 9))
        halves = [list(c[:4]) for c in draws] + [list(c[5:]) for c in draws]  # middle draw dropped
        w = statistics.fmean(statistics.variance(s) for s in halves)
        b = 4 * statistics.variance([statistics.fmean(s) for s in halves])
        expected = math.sqrt((3 / 4 * w + b / 4) / w)
        assert sampler.split_rhat(draws) == pytest.approx(expected, rel=1e-12)

    def test_offset_chains_flagged(self, rng):
        draws = rng.normal(size=(4, 500)) + 3.0 * np.arange(4)[:, None]
        assert sampler.split_rhat(draws) > 1.5

    def test_iid_normals_near_one(self, rng):
        assert abs(sampler.split_rhat(rng.normal(size=(4, 2000))) - 1.0) < 0.02

    @pytest.mark.parametrize("draws", [np.zeros((4, 3)), np.ones((1, 1)), np.ones((2, 100)),
                                       np.full((2, 72), -5.356693731611109)])
    def test_undefined_is_none(self, draws):
        # halves of 1 draw, or constant halves; numpy's variance of the last
        # (36 equal draws a half) rounds to 8e-31, not 0
        assert sampler.split_rhat(draws) is None

    def test_chains_are_the_round_robin_rows(self):
        # chain c owns rows c, c + chains, ...; rows past the shortest chain are dropped
        m = zero_field(np.zeros((2, 2)))
        spins = np.ones((14, 2), dtype=np.int8)
        spins[1::3] = -1  # chain 1 sits at -1 and the others at +1: no within variance
        cfg = sampler.GlauberConfig(chains=3)
        assert sampler.mixing(m, SampleBatch(spins), cfg) == {
            "rhat_energy": None, "rhat_magnetization": None}
        spins[12] = -1  # chain 0's fifth row, past the shortest chain's four
        assert sampler.mixing(m, SampleBatch(spins), cfg)["rhat_magnetization"] is None


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
        table = exact.distribution(m)
        from_model = sampler.exact_sample(m, l, seed=seed)
        batch = sampler.exact_sample(table, l, seed=seed)
        assert batch.spins.dtype == from_model.spins.dtype
        assert batch.spins.shape == (l, n)
        assert batch.spins.tobytes() == from_model.spins.tobytes()

    def test_no_whole_cdf(self, rng):
        n = 20
        table = exact.distribution(IsingModel(random_coupling(n, rng, 0.1), rng.normal(size=n)))
        expected = np.minimum(np.searchsorted(np.cumsum(table.probs), stream(3, 0xE).random(1000),
                                              side="right"), table.probs.size - 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = sampler.exact_sample(table, 1000, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(exact.encode_spins(batch.spins), expected)
        assert peak < table.probs.nbytes / 4
