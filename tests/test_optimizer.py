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


class TestFitWork:
    """Eigendecompositions, Newton steps and iterations over fixed binding n = 8 fits,
    three sample seeds per family: counts that do not depend on timing. BOUNDS holds
    the totals with each projection started from the last accepted multipliers,
    scaled by the step ratio; started from y = 0 the same fits take 182/143,
    253/205, 0/149 and 120/94. A change may lower them, never raise them. As with
    projections' TestNewtonWork, another BLAS/LAPACK build may move a stop by a step."""

    BOUNDS = {  # family -> (eigh calls, Newton steps, iterations)
        "SpectralSpread": (123, 84, 39),
        "OpNormBall": (142, 97, 45),
        "WidthBall": (0, 88, 40),
        "AntiferroSpike": (83, 57, 26),
    }

    @pytest.mark.parametrize("family", list(BINDING_CELLS))
    def test_counts_do_not_rise(self, family, monkeypatch):
        kind, constraint, params = BINDING_CELLS[family]
        batches = [binding_cell(kind, constraint, seed=seed, **params)[0] for seed in range(3)]
        counts = dict.fromkeys(("eigh", "solve"), 0)
        for name in counts:  # one _solve per Newton step
            def counted(*args, _real=getattr(projections, "_" + name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(projections, "_" + name, counted)
        reports = [fit_mple(batch, np.zeros(8), constraint) for batch in batches]
        assert all(r.converged for r in reports)
        eighs, steps, iterations = self.BOUNDS[family]
        total = sum(r.iterations for r in reports)
        assert counts["eigh"] <= eighs and counts["solve"] <= steps and total <= iterations, (
            counts, total)
        # a count that reads 0 would pass without checking anything
        assert counts["solve"] > 0 and (counts["eigh"] > 0 or family == "WidthBall"), counts

    def test_projection_residual_max(self, monkeypatch):
        # the largest KKT residual over the projections whose points the fit accepted,
        # on a cell with a rejected trial
        kind, constraint, params = BINDING_CELLS["WidthBall"]
        batch, _ = binding_cell(kind, constraint, seed=2, **params)
        residuals, values = [], []
        project_array, objective_and_gradient = projections.project_array, mple.objective_and_gradient

        def recorded_projection(cs, a, **kwargs):
            out = project_array(cs, a, **kwargs)
            residuals.append(out[2])
            return out

        def recorded_value(J, ctx):
            out = objective_and_gradient(J, ctx)
            values.append(out[0])
            return out

        monkeypatch.setattr(projections, "project_array", recorded_projection)
        monkeypatch.setattr(mple, "objective_and_gradient", recorded_value)
        report = fit_mple(batch, np.zeros(8), constraint)
        # values[0] is the unprojected start; each later value is one trial's
        accepted = [r for r, v in zip(residuals, values[1:]) if v in report.objective_trace[1:]]
        assert report.projections > len(accepted) == report.iterations
        assert report.projection_residual_max == max(accepted)
        assert 0.0 < report.projection_residual_max <= projections.DEFAULT_TOL


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
        assert report.projections == len(projection_calls) >= 3

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
        # the start point, then the projected steps 1, 1/2, ... down to the floor
        assert report.projections == len(projection_calls) == 60
        assert len(evaluated) == 61

    def test_rounding_tie_is_no_step_underflow(self):
        # near the optimum this fit's trials change the objective by -8e-16 and
        # then 0.0 relative to f; the Armijo test alone halves those down to step
        # underflow (13 iterations, 162 projections), a tie within 8 ulp ends it
        model = ensembles.generate(ensembles.EnsembleSpec(kind="SK", n=16, beta=0.7, seed=0))
        batch = sampler.exact_sample(model, 1000, seed=39)
        report = fit_mple(batch, np.zeros(16), SpectralSpread(0.6))
        assert report.converged and report.stop_reason == "grad_map"
        assert report.projections <= 2 * report.iterations
        assert unit_step_grad_map(report.estimate, batch, SpectralSpread(0.6)) <= 2e-6 * 16 * 1000

    def test_non_finite(self):
        # a field of 1e308 overflows the objective at the start point; the fit
        # stops there, quietly, and returns that point
        batch = uniform_batch(5, 200, seed=14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_mple(batch, np.full(5, 1e308), OpNormBall(1.0))
        assert not report.converged and report.stop_reason == "non_finite"
        assert report.iterations == 0 and report.projections == 0
        assert not np.isfinite(report.objective_trace[0])
        np.testing.assert_array_equal(report.estimate.entries, np.zeros((5, 5)))


# A small radius per family; a family added to FAMILIES without one fails below.
ZERO_START_FAMILIES = {"OpNormBall": {"lam": 0.1}, "SpectralSpread": {"s": 0.1},
                       "WidthBall": {"m": 0.1}, "AntiferroSpike": {"alpha": 0.1, "c": 0.1}}


@pytest.mark.parametrize("kind", list(projections.FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 8, 20, 30])
def test_zero_start_is_a_fixed_point(kind, n):
    # fit_mple starts at 0 without projecting it, which is right only while
    # every family projects 0 to exactly 0 (no -0.0 either) with residual 0
    cs = projections.FAMILIES[kind](**ZERO_START_FAMILIES[kind])
    x, _, residual = projections.project_array(cs, np.zeros((n, n)))
    assert residual == 0.0
    assert x.tobytes() == np.zeros((n, n)).tobytes()


def test_each_trial_point_is_evaluated_once(monkeypatch, projection_calls):
    # one objective_and_gradient call at the unprojected start and one per
    # projected trial point, rejected ones included, and no value-only call
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
    assert report.projections > report.iterations  # some trials were rejected
    assert len(kernel_calls) - 1 == report.projections == len(projection_calls)


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
