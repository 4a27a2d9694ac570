import numpy as np
import pytest

from isingfit import mple, sampler
from isingfit.core import CouplingMatrix, IsingModel, ParameterError
from isingfit.optimizer import FitConfig, fit_mple
from isingfit.projections import membership, op_norm_ball, spectral_spread

from conftest import spread_model


def uniform_batch(n, l, seed):
    model = IsingModel.zero_field(CouplingMatrix.zeros(n))
    return sampler.exact_sample(model, l, seed=seed)


class TestFitBasics:
    def test_uniform_samples_give_near_zero_estimate(self):
        n, l = 8, 10_000
        report = fit_mple(uniform_batch(n, l, seed=2), np.zeros(n), op_norm_ball(1.0))
        assert report.converged
        assert np.linalg.norm(report.estimate.entries) <= 0.1

    def test_objective_trace_monotone(self):
        model = spread_model(6, 0.9, seed=3)
        batch = sampler.exact_sample(model, 500, seed=4)
        report = fit_mple(batch, np.zeros(6), spectral_spread(0.9))
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_estimate_is_feasible(self):
        model = spread_model(6, 0.9, seed=5)
        batch = sampler.exact_sample(model, 1000, seed=6)
        cs = spectral_spread(0.9)
        report = fit_mple(batch, np.zeros(6), cs)
        assert membership(cs, report.estimate, tol=1e-6)

    def test_more_samples_reduce_error(self):
        model = spread_model(8, 0.9, seed=7)
        cs = spectral_spread(0.9)
        errs = {}
        for l in (100, 10_000):
            batch = sampler.exact_sample(model, l, seed=70 + l)
            report = fit_mple(batch, np.zeros(8), cs)
            errs[l] = np.linalg.norm(report.estimate.entries - model.coupling.entries)
        assert errs[10_000] < errs[100]

    def test_determinism(self):
        model = spread_model(5, 0.8, seed=8)
        batch = sampler.exact_sample(model, 400, seed=9)
        a = fit_mple(batch, np.zeros(5), op_norm_ball(2.0))
        b = fit_mple(batch, np.zeros(5), op_norm_ball(2.0))
        np.testing.assert_array_equal(a.estimate.entries, b.estimate.entries)
        assert a.objective_trace == b.objective_trace


class TestGradientMapping:
    def test_interior_optimum_bounds_raw_gradient(self):
        # with a set large enough to contain the unconstrained optimum, the
        # gradient mapping equals the raw gradient norm at the fixed point
        model = spread_model(6, 0.8, seed=10)
        batch = sampler.exact_sample(model, 2000, seed=11)
        cfg = FitConfig()
        report = fit_mple(batch, np.zeros(6), op_norm_ball(10.0), cfg)
        assert report.converged
        ctx = mple.PseudolikelihoodContext(batch, np.zeros(6))
        raw = np.linalg.norm(mple.gradient(report.estimate, ctx).entries)
        tol = 1e-6 * 6 * 2000
        assert raw <= 2.0 * tol

    def test_trace_lengths_consistent(self):
        batch = uniform_batch(4, 200, seed=12)
        report = fit_mple(batch, np.zeros(4), op_norm_ball(1.0))
        assert len(report.objective_trace) == report.iterations + 1
        assert len(report.grad_map_trace) == report.iterations


class TestConfig:
    def test_provided_init_is_projected(self):
        batch = uniform_batch(4, 300, seed=13)
        wild = CouplingMatrix(np.full((4, 4), 5.0) - 5.0 * np.eye(4))
        cfg = FitConfig(init=wild, max_iters=1)
        report = fit_mple(batch, np.zeros(4), op_norm_ball(1.0), cfg)
        assert membership(op_norm_ball(1.0), report.estimate, tol=1e-6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FitConfig(max_iters=0)

    def test_max_iters_respected(self):
        batch = uniform_batch(5, 200, seed=14)
        report = fit_mple(
            batch, np.zeros(5), op_norm_ball(1.0), FitConfig(max_iters=3, grad_map_tol=1e-30)
        )
        assert report.iterations <= 3
        assert not report.converged


def test_field_is_used(rng):
    # a strong known field shifts the conditional means; the fit with the
    # correct h should beat the fit that ignores it
    n, l = 4, 4000
    J = CouplingMatrix(0.3 * (np.ones((n, n)) - np.eye(n)))
    h = np.array([0.8, -0.8, 0.4, 0.0])
    model = IsingModel(J, h)
    batch = sampler.exact_sample(model, l, seed=15)
    good = fit_mple(batch, h, op_norm_ball(3.0))
    bad = fit_mple(batch, np.zeros(n), op_norm_ball(3.0))
    err_good = np.linalg.norm(good.estimate.entries - J.entries)
    err_bad = np.linalg.norm(bad.estimate.entries - J.entries)
    assert err_good < err_bad
