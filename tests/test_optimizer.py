import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingfit import ensembles, mple, projections, sampler
from isingfit.core import CouplingMatrix, IsingModel, ParameterError
from isingfit.optimizer import FitConfig, fit_mple
from isingfit.projections import (
    AntiferroSpike,
    OpNormBall,
    SpectralSpread,
    WidthBall,
    membership,
)

from conftest import random_coupling, spread_model


def uniform_batch(n, l, seed):
    model = IsingModel.zero_field(CouplingMatrix.zeros(n))
    return sampler.exact_sample(model, l, seed=seed)


class TestFitBasics:
    def test_uniform_samples_give_near_zero_estimate(self):
        n, l = 8, 10_000
        report = fit_mple(uniform_batch(n, l, seed=2), np.zeros(n), OpNormBall(1.0))
        assert report.converged
        assert np.linalg.norm(report.estimate.entries) <= 0.1

    def test_objective_trace_monotone(self):
        model = spread_model(6, 0.9, seed=3)
        batch = sampler.exact_sample(model, 500, seed=4)
        report = fit_mple(batch, np.zeros(6), SpectralSpread(0.9))
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_estimate_is_feasible(self):
        model = spread_model(6, 0.9, seed=5)
        batch = sampler.exact_sample(model, 1000, seed=6)
        cs = SpectralSpread(0.9)
        report = fit_mple(batch, np.zeros(6), cs)
        assert membership(cs, report.estimate, tol=1e-6)

    def test_more_samples_reduce_error(self):
        model = spread_model(8, 0.9, seed=7)
        cs = SpectralSpread(0.9)
        errs = {}
        for l in (100, 10_000):
            batch = sampler.exact_sample(model, l, seed=70 + l)
            report = fit_mple(batch, np.zeros(8), cs)
            errs[l] = np.linalg.norm(report.estimate.entries - model.coupling.entries)
        assert errs[10_000] < errs[100]

    def test_determinism(self):
        model = spread_model(5, 0.8, seed=8)
        batch = sampler.exact_sample(model, 400, seed=9)
        a = fit_mple(batch, np.zeros(5), OpNormBall(2.0))
        b = fit_mple(batch, np.zeros(5), OpNormBall(2.0))
        np.testing.assert_array_equal(a.estimate.entries, b.estimate.entries)
        assert a.objective_trace == b.objective_trace


class TestGradientMapping:
    def test_interior_optimum_bounds_raw_gradient(self):
        # with a set large enough to contain the unconstrained optimum, the
        # gradient mapping equals the raw gradient norm at the fixed point
        model = spread_model(6, 0.8, seed=10)
        batch = sampler.exact_sample(model, 2000, seed=11)
        cfg = FitConfig()
        report = fit_mple(batch, np.zeros(6), OpNormBall(10.0), cfg)
        assert report.converged
        ctx = mple.PseudolikelihoodContext(batch, np.zeros(6))
        raw = np.linalg.norm(mple.gradient(report.estimate, ctx).entries)
        tol = 1e-6 * 6 * 2000
        assert raw <= 2.0 * tol

    def test_trace_lengths_consistent(self):
        batch = uniform_batch(4, 200, seed=12)
        report = fit_mple(batch, np.zeros(4), OpNormBall(1.0))
        assert len(report.objective_trace) == report.iterations + 1
        assert len(report.grad_map_trace) == report.iterations


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FitConfig(max_iters=0)

    def test_max_iters_respected(self):
        batch = uniform_batch(5, 200, seed=14)
        report = fit_mple(
            batch, np.zeros(5), OpNormBall(1.0), FitConfig(max_iters=3, grad_map_tol=1e-30)
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
    good = fit_mple(batch, h, OpNormBall(3.0))
    bad = fit_mple(batch, np.zeros(n), OpNormBall(3.0))
    err_good = np.linalg.norm(good.estimate.entries - J.entries)
    err_bad = np.linalg.norm(bad.estimate.entries - J.entries)
    assert err_good < err_bad


def binding_cell(kind, constraint, seed=0, **params):
    """An n = 8 sweep cell whose truth lies outside its constraint set."""
    model = ensembles.generate(ensembles.EnsembleSpec(kind=kind, n=8, seed=0, **params))
    return sampler.exact_sample(model, 4000, seed=seed), constraint


BINDING_CELLS = {
    "SpectralSpread": ("SK", SpectralSpread(0.9), {"beta": 0.5}),
    "OpNormBall": ("SK", OpNormBall(0.5), {"beta": 0.5}),
    "WidthBall": ("BoundedWidthRandom", WidthBall(0.8), {"width": 1.0}),
    "AntiferroSpike": ("AntiferroExpander", AntiferroSpike(0.4, 1.0), {"d": 3, "beta": 0.1}),
}


def unit_step_grad_map(J, batch, constraint):
    """||J - project(J - grad)|| at J, on the scale of grad_map_tol."""
    scale = batch.n * batch.l
    ctx = mple.PseudolikelihoodContext(batch, np.zeros(batch.n))
    g = mple.gradient(J, ctx).entries / (2.0 * scale)
    step = projections.project_array(constraint, J.entries - g, tol=1e-13)[0]
    return float(np.linalg.norm(J.entries - step)) * 2.0 * scale


class TestSpectralStep:
    def test_sk_n30_converges_fast(self):
        model = ensembles.generate(ensembles.EnsembleSpec(kind="SK", n=30, beta=0.5, seed=0))
        batch = sampler.glauber_sample(model, 2000, sampler.GlauberConfig(seed=1))
        report = fit_mple(batch, np.zeros(30), OpNormBall(2.0))
        assert report.converged
        assert report.iterations <= 60

    @pytest.mark.parametrize("family", list(BINDING_CELLS))
    def test_binding_n8_cell(self, family, projection_calls):
        kind, constraint, params = BINDING_CELLS[family]
        batch, cs = binding_cell(kind, constraint, **params)
        report = fit_mple(batch, np.zeros(8), cs)
        assert report.converged and report.stop_reason == "grad_map"
        assert report.iterations <= 30
        assert report.projections == len(projection_calls)
        assert set(projection_calls) == {1e-13}
        tol = 1e-6 * batch.n * batch.l
        assert unit_step_grad_map(report.estimate, batch, cs) <= 2.0 * tol
        assert membership(cs, report.estimate, tol=1e-10)


    @pytest.mark.parametrize("family", list(BINDING_CELLS))
    def test_recorded_bound_dominates_unit_step_grad_map(self, family, monkeypatch):
        # grad_map_trace[k] bounds the unit-step gradient mapping at iterate k
        kind, constraint, params = BINDING_CELLS[family]
        batch, cs = binding_cell(kind, constraint, **params)
        iterates = []
        original = mple.objective_and_gradient

        def recorded(J, ctx):
            iterates.append(J)
            return original(J, ctx)

        monkeypatch.setattr(mple, "objective_and_gradient", recorded)
        report = fit_mple(batch, np.zeros(8), cs)
        assert len(iterates) == len(report.grad_map_trace) + 1
        for J, bound in zip(iterates, report.grad_map_trace):
            unit = unit_step_grad_map(J, batch, cs)
            assert unit <= bound * (1 + 1e-6) + 1e-9


class TestStopReason:
    def test_grad_map(self):
        report = fit_mple(uniform_batch(5, 300, seed=16), np.zeros(5), OpNormBall(1.0))
        assert report.converged and report.stop_reason == "grad_map"

    def test_max_iters(self, projection_calls):
        batch = uniform_batch(5, 200, seed=14)
        cfg = FitConfig(max_iters=3, grad_map_tol=1e-30)
        report = fit_mple(batch, np.zeros(5), OpNormBall(1.0), cfg)
        assert not report.converged and report.stop_reason == "max_iters"
        assert report.iterations == 3
        assert report.projections == len(projection_calls) >= 4

    def test_step_underflow(self, monkeypatch, projection_calls):
        # an objective that never decreases defeats every Armijo test
        original = mple.objective_and_gradient
        evaluated = []

        def stuck(J, ctx):
            value, g = original(J, ctx)
            evaluated.append(J)
            return (value, g) if len(evaluated) == 1 else (np.inf, g)

        monkeypatch.setattr(mple, "objective_and_gradient", stuck)
        batch = uniform_batch(4, 100, seed=17)
        report = fit_mple(batch, np.zeros(4), OpNormBall(1.0))
        assert not report.converged and report.stop_reason == "step_underflow"
        assert report.iterations == 0 and report.grad_map_trace == []
        # the initial projection, then steps 1, 1/2, ... down to the floor
        assert report.projections == len(projection_calls) == 61
        assert len(evaluated) == 61

    def test_non_finite(self):
        # a field of 1e308 overflows the objective at the start point; the fit
        # stops there, quietly, and returns that point
        batch = uniform_batch(5, 200, seed=14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_mple(batch, np.full(5, 1e308), OpNormBall(1.0))
        assert not report.converged and report.stop_reason == "non_finite"
        assert report.iterations == 0 and report.projections == 1
        assert not np.isfinite(report.objective_trace[0])
        np.testing.assert_array_equal(report.estimate.entries, np.zeros((5, 5)))


def test_each_trial_point_is_evaluated_once(monkeypatch, projection_calls):
    # one objective_and_gradient call per projected point, rejected Armijo
    # trials and the initial projection included, and no value-only call
    model = ensembles.generate(ensembles.EnsembleSpec(kind="SK", n=30, beta=0.5, seed=0))
    batch = sampler.glauber_sample(model, 2000, sampler.GlauberConfig(seed=1))
    kernel_calls = []
    original = mple.objective_and_gradient

    def counted(J, ctx):
        kernel_calls.append(J)
        return original(J, ctx)

    def forbidden(J, ctx):
        raise AssertionError("the fit called mple.objective")

    monkeypatch.setattr(mple, "objective_and_gradient", counted)
    monkeypatch.setattr(mple, "objective", forbidden)
    report = fit_mple(batch, np.zeros(30), OpNormBall(2.0))
    assert report.converged
    assert report.projections > report.iterations + 1  # some trials were rejected
    assert len(kernel_calls) == report.projections == len(projection_calls)


def feasible(cs, a):
    return projections.project_array(cs, a, tol=1e-13)[0]


@pytest.mark.filterwarnings("error::isingfit.projections.ProjectionConvergenceWarning")
@settings(max_examples=60, deadline=None)
@example(family="OpNormBall", n=3, t=75.0, seed=158)  # ran Dykstra to 100,000 iterations
@given(
    family=st.sampled_from(list(BINDING_CELLS)),
    n=st.integers(2, 6),
    t=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_stop_bound_dominates_unit_step_grad_map(family, n, t, seed):
    # ||G_1(J)|| <= ||project(J - t g) - J|| / min(t, 1) for feasible J, any g, t > 0.
    # g has the scale of the fit's normalized gradients.
    cs = BINDING_CELLS[family][1]
    rng = np.random.default_rng(seed)
    J = feasible(cs, random_coupling(n, rng).entries)
    g = random_coupling(n, rng, scale=0.05).entries
    bound = np.linalg.norm(feasible(cs, J - t * g) - J) / min(t, 1.0)
    unit = np.linalg.norm(feasible(cs, J - g) - J)
    assert unit <= bound * (1 + 1e-9) + 1e-10
