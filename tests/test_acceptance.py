"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[A<k>] ... PASS` line (visible with `pytest -s`); a
failing criterion raises with the measured numbers in the message. Run as

    pytest tests/test_acceptance.py -v -s
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isingfit import cli, diagnostics, exact, mple, projections, sampler
from isingfit.core import CouplingMatrix, IsingModel, SampleBatch
from isingfit.ensembles import EnsembleSpec, generate
from isingfit.optimizer import fit_mple
from isingfit.projections import membership, project

from conftest import dobrushin_model, random_coupling, spread_model


def report(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def curie_weiss(n, beta):
    return IsingModel.zero_field(
        CouplingMatrix((beta / n) * (np.ones((n, n)) - np.eye(n)))
    )


# ---------------------------------------------------------------------------
# A1: analytic gradient against central finite differences.
# ---------------------------------------------------------------------------

def test_a1_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n, l, eps = 10, 100, 1e-5
    worst = 0.0
    for _ in range(20):
        J = random_coupling(n, rng, scale=0.25)
        spins = rng.choice([-1, 1], size=(l, n))
        ctx = mple.PseudolikelihoodContext(SampleBatch(spins))
        g = mple.gradient(J, ctx).entries
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                E = np.zeros((n, n))
                E[i, j] = E[j, i] = 1.0
                fp = mple.objective(CouplingMatrix(J.entries + eps * E), ctx)
                fm = mple.objective(CouplingMatrix(J.entries - eps * E), ctx)
                fd[i, j] = fd[j, i] = (fp - fm) / (2 * eps)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        "A1",
        worst <= 1e-6 and elapsed < 10.0,
        f"gradient vs finite differences, worst relative error {worst:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# A2: convexity of the objective.
# ---------------------------------------------------------------------------

def test_a2_convexity():
    rng = np.random.default_rng(102)
    min_second, min_slack = np.inf, np.inf
    for _ in range(200):
        n = int(rng.integers(3, 10))
        l = int(rng.integers(10, 60))
        spins = rng.choice([-1, 1], size=(l, n))
        ctx = mple.PseudolikelihoodContext(SampleBatch(spins))
        J, A = random_coupling(n, rng), random_coupling(n, rng)
        _, second = mple.directional_derivatives(J, A, ctx)
        min_second = min(min_second, second)
        g = mple.gradient(J, ctx).entries
        slack = (
            mple.objective(CouplingMatrix(J.entries + A.entries), ctx)
            - mple.objective(J, ctx)
            - mple.upper_inner(g, A.entries)
        )
        min_slack = min(min_slack, slack)
    report(
        "A2",
        min_second >= 0.0 and min_slack >= -1e-9,
        f"200 triples: min second derivative {min_second:.2e} (>= 0), "
        f"min secant slack {min_slack:.2e} (>= -1e-9)",
    )


# ---------------------------------------------------------------------------
# A3: sampler fidelity and stationarity.
# ---------------------------------------------------------------------------

def test_a3_sampler_fidelity():
    t0 = time.perf_counter()
    model = dobrushin_model(6, 0.3, seed=31)
    batch = sampler.glauber_sample(model, 100_000, sampler.default_config(seed=32))
    emp = np.bincount(exact.encode_spins(batch.spins), minlength=64) / batch.l
    tv = 0.5 * float(np.abs(emp - exact.distribution(model).probs).sum())

    worst_stat = 0.0
    for n, seed in ((6, 33), (8, 34)):
        rng = np.random.default_rng(seed)
        m = IsingModel(random_coupling(n, rng, 0.3), 0.2 * rng.normal(size=n))
        P = exact.glauber_transition_matrix(m)
        pi = exact.distribution(m).probs
        worst_stat = max(worst_stat, float(np.abs(pi @ P - pi).max()))
    elapsed = time.perf_counter() - t0
    report(
        "A3",
        tv <= 0.02 and worst_stat <= 1e-10 and elapsed < 60.0,
        f"Glauber TV {tv:.4f} (tol 0.02), stationarity residual {worst_stat:.1e} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# A4/A5: consistency rate and end-to-end TV learning (shared fixture).
# ---------------------------------------------------------------------------

L_GRID = (250, 1000, 4000, 16000)
N_SEEDS = 5


@pytest.fixture(scope="module")
def rate_study():
    t0 = time.perf_counter()
    model = spread_model(8, 0.9, seed=41)
    cs = projections.SpectralSpread(0.9)
    p_true = exact.distribution(model)
    frob = {l: [] for l in L_GRID}
    tv = {l: [] for l in L_GRID}
    for l in L_GRID:
        for seed in range(N_SEEDS):
            batch = sampler.exact_sample(model, l, seed=42_000 + 97 * seed)
            rep = fit_mple(batch, np.zeros(8), cs)
            frob[l].append(
                float(np.linalg.norm(rep.estimate.entries - model.coupling.entries))
            )
            est = IsingModel.zero_field(rep.estimate)
            tv[l].append(exact.tv_distance(exact.distribution(est), p_true))
    return {"frob": frob, "tv": tv, "elapsed": time.perf_counter() - t0}


def test_a4_consistency_rate(rate_study):
    medians = [float(np.median(rate_study["frob"][l])) for l in L_GRID]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    slope = float(np.polyfit(np.log(L_GRID), np.log(medians), 1)[0])
    elapsed = rate_study["elapsed"]
    report(
        "A4",
        decreasing and -0.75 <= slope <= -0.3 and elapsed < 600.0,
        f"median Frobenius errors {[f'{m:.3f}' for m in medians]} decreasing, "
        f"log-log slope {slope:.3f} in [-0.75, -0.3], {elapsed:.1f}s (budget 600s)",
    )


def test_a5_tv_learning(rate_study):
    tv_hi = rate_study["tv"][16000]
    tv_lo = rate_study["tv"][250]
    hits = sum(t <= 0.15 for t in tv_hi)
    all_improved = all(h < low for h, low in zip(tv_hi, tv_lo))
    report(
        "A5",
        hits >= 4 and all_improved,
        f"TV at l=16000: {[f'{t:.3f}' for t in tv_hi]} ({hits}/5 within 0.15); "
        f"improved over l=250 for all seeds: {all_improved}",
    )


# ---------------------------------------------------------------------------
# A6: TV bounded by n times the Frobenius gap, zero violations.
# ---------------------------------------------------------------------------

def test_a6_tv_frobenius_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m1 = IsingModel.zero_field(random_coupling(n, rng))
        m2 = IsingModel.zero_field(random_coupling(n, rng))
        rep = diagnostics.tv_frobenius_check(m1, m2)
        violations += not rep.bound_ok
    elapsed = time.perf_counter() - t0
    report(
        "A6",
        violations == 0 and elapsed < 60.0,
        f"100 random zero-field pairs, {violations} violations of tv <= n*frob, "
        f"{elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# A7: Poincare constant under the spectral-interval condition.
# ---------------------------------------------------------------------------

def test_a7_poincare_bound():
    t0 = time.perf_counter()
    worst = {}
    for alpha in (0.2, 0.5):
        rhos = [
            exact.poincare_constant(spread_model(6, 1.0 - alpha, seed=700 + 13 * k))
            for k in range(20)
        ]
        worst[alpha] = max(rhos)
    ok = all(worst[a] <= 1.0 / a for a in worst)
    elapsed = time.perf_counter() - t0
    report(
        "A7",
        ok and elapsed < 120.0,
        f"max rho at spread 0.8: {worst[0.2]:.3f} (bound 5), at spread 0.5: "
        f"{worst[0.5]:.3f} (bound 2), {elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# A8: Gaussian-mixture decomposition.
# ---------------------------------------------------------------------------

def test_a8_mixture_decomposition():
    model = dobrushin_model(6, 0.5, seed=81)
    tv = exact.hubbard_stratonovich_check(model, shift=None, draws=100_000, seed=82)
    shift = exact.default_hs_shift(model.coupling)
    rng = np.random.default_rng(83)
    bayes = max(
        exact.hs_conditional_error(model, shift, rng.normal(size=6) * 1.5)
        for _ in range(10)
    )
    report(
        "A8",
        tv <= 0.02 and bayes <= 1e-10,
        f"mixture TV {tv:.4f} (tol 0.02), conditional-law error {bayes:.1e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# A9: projection feasibility, idempotence, nonexpansiveness, optimality.
# ---------------------------------------------------------------------------

def test_a9_projections():
    rng = np.random.default_rng(109)
    families = [
        projections.OpNormBall(0.8),
        projections.SpectralSpread(0.7),
        projections.WidthBall(1.2),
        projections.AntiferroSpike(0.4, 1.0),
    ]
    fails = []
    for cs in families:
        for _ in range(200):
            n = int(rng.integers(2, 9))
            J = random_coupling(n, rng)
            P = project(cs, J)
            if not membership(cs, P, tol=1e-7):
                fails.append(f"{cs.kind} feasibility")
            if np.linalg.norm(project(cs, P).entries - P.entries) > 1e-7:
                fails.append(f"{cs.kind} idempotence")
            for _ in range(5):  # 1000 feasible candidates per family in total
                F = project(cs, random_coupling(n, rng))
                if np.linalg.norm(P.entries - F.entries) > np.linalg.norm(
                    J.entries - F.entries
                ) + 1e-9:
                    fails.append(f"{cs.kind} nonexpansiveness")
        # n=2 brute force optimality on a 1e-3 grid
        grid = np.arange(-3.0, 3.0, 1e-3)
        feas = [
            x
            for x in grid
            if membership(cs, CouplingMatrix([[0.0, x], [x, 0.0]]), tol=1e-12)
        ]
        for a in (-2.2, -0.7, 0.4, 1.9):
            P = project(cs, CouplingMatrix([[0.0, a], [a, 0.0]]))
            best = min(feas, key=lambda x: abs(x - a))
            if abs(P.entries[0, 1] - best) > 1.5e-3:
                fails.append(f"{cs.kind} optimality at {a}")

    ex1 = project(projections.OpNormBall(1.0), CouplingMatrix([[0.0, 2.0], [2.0, 0.0]]))
    ex2 = project(projections.SpectralSpread(0.9), CouplingMatrix([[0.0, 1.0], [1.0, 0.0]]))
    ex3 = project(projections.WidthBall(1.0), CouplingMatrix([[0.0, 2.0], [2.0, 0.0]]))
    closed = (
        np.allclose(ex1.entries, [[0, 1], [1, 0]], atol=1e-8)
        and np.allclose(ex2.entries, [[0, 0.45], [0.45, 0]], atol=1e-8)
        and np.allclose(ex3.entries, [[0, 1], [1, 0]], atol=1e-8)
    )
    report(
        "A9",
        not fails and closed,
        f"4 families x 200 inputs clean, closed forms reproduced: {closed}"
        + (f"; failures: {sorted(set(fails))}" if fails else ""),
    )


# ---------------------------------------------------------------------------
# A10: subset decomposition certified on bounded-width models.
# ---------------------------------------------------------------------------

def test_a10_subset_decomposition():
    t0 = time.perf_counter()
    bad = 0
    for seed in range(10):
        model = generate(
            EnsembleSpec(kind="BoundedWidthRandom", n=100, width=2.0, seed=seed)
        )
        dec = diagnostics.subset_decomposition(
            model.coupling, M=2.0, eta=1.0 / 3.0, seed=seed
        )
        bad += bool(diagnostics.check_subset_decomposition(model.coupling, dec))
    elapsed = time.perf_counter() - t0
    report(
        "A10",
        bad == 0 and elapsed < 60.0,
        f"10 seeds certified by the independent checker ({bad} failures), "
        f"{elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# A11: prediction-weighted metric strictly stronger than Frobenius at low
# temperature; ratio grows with n.
# ---------------------------------------------------------------------------

def test_a11_metric_strictness():
    ratios = []
    for n in (8, 10, 12):
        cmp = diagnostics.metric_comparison(
            curie_weiss(n, 1.5), curie_weiss(n, 1.6).coupling
        )
        ratios.append(cmp.ratio)
    monotone = ratios[0] < ratios[1] < ratios[2]
    total_growth = ratios[2] / ratios[0]
    report(
        "A11",
        monotone and total_growth >= 1.3,
        f"ratios over n=8,10,12: {[f'{r:.3f}' for r in ratios]}, monotone per "
        f"step, total growth {total_growth:.3f} (>= 1.3)",
    )


# ---------------------------------------------------------------------------
# A12: regularity probe bounded at high temperature, finite at low.
# ---------------------------------------------------------------------------

def test_a12_regularity():
    model = dobrushin_model(8, 0.3, seed=121)
    rep = diagnostics.regularity_probe(model, gamma=0.05, num_perturbations=100, seed=122)
    cw = diagnostics.regularity_probe(
        curie_weiss(10, 1.5), gamma=0.05, num_perturbations=20, seed=123
    )
    report(
        "A12",
        rep.max_ratio <= 10.0 and np.isfinite(cw.max_ratio) and len(rep.ratios) == 100,
        f"max ratio over 100 directions {rep.max_ratio:.3f} (bound 10); "
        f"low-temperature max ratio {cw.max_ratio:.3f} finite",
    )


# ---------------------------------------------------------------------------
# A13: CLI sweep reproducibility.
# ---------------------------------------------------------------------------

def _sweep_config(l_values, seeds):
    return {
        "ensemble": {"kind": "SK", "n": 8, "beta": 0.2, "seed": 13},
        "constraint": {"kind": "OpNormBall", "lam": 2.0},
        "sampler": {"method": "exact"},
        "sweep": {
            "l_values": list(l_values),
            "seeds": list(seeds),
            "metrics": ["frobenius", "tv_exact"],
        },
    }


def _rows_without_wall_time(path):
    lines = path.read_text().strip().splitlines()
    k = lines[0].split(",").index("wall_time")

    def strip(line):
        f = line.split(",")
        return ",".join(f[:k] + f[k + 1:])

    return [strip(line) for line in lines]


def test_a13_cli_reproducibility(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(_sweep_config((250, 1000, 4000), range(5))))
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(serial)]) == 0
    assert cli.main(
        ["sweep", "--config", str(cfg_path), "--out", str(parallel), "--jobs", "4"]
    ) == 0
    rows_serial = _rows_without_wall_time(serial)
    rows_parallel = _rows_without_wall_time(parallel)

    cell_cfg = tmp_path / "cell.json"
    cell_cfg.write_text(json.dumps(_sweep_config((1000,), (3,))))
    cell_out = tmp_path / "cell.csv"
    assert cli.main(["sweep", "--config", str(cell_cfg), "--out", str(cell_out)]) == 0
    cell_row = _rows_without_wall_time(cell_out)[1]

    idx = {c: i for i, c in enumerate(cli.SWEEP_COLUMNS)}
    med = {}
    for line in serial.read_text().strip().splitlines()[1:]:
        f = line.split(",")
        med.setdefault(int(f[idx["l"]]), []).append(float(f[idx["frob_err"]]))
    medians = [float(np.median(med[l])) for l in (250, 1000, 4000)]
    decreasing = medians[0] > medians[1] > medians[2]

    ok = (
        len(rows_serial) == 16
        and rows_serial == rows_parallel
        and cell_row in rows_serial
        and decreasing
    )
    report(
        "A13",
        ok,
        f"15 rows, serial == parallel (wall_time aside), cell re-run matches, "
        f"median frob_err {[f'{m:.3f}' for m in medians]} decreasing",
    )


# ---------------------------------------------------------------------------
# The scope of "same seed, same bytes": one BLAS build and thread count.
# ---------------------------------------------------------------------------

_N30_FIT = """
import sys
import numpy as np
from isingfit import EnsembleSpec, OpNormBall, fit_mple, generate, sampler
model = generate(EnsembleSpec(kind="SK", n=30, beta=0.5, seed=0))
batch = sampler.glauber_sample(model, 2000, sampler.GlauberConfig(seed=0))
estimate = fit_mple(batch, np.zeros(30), OpNormBall(0.5)).estimate.entries
sys.stdout.buffer.write(batch.spins.tobytes() + estimate.tobytes())
"""


def test_blas_threads_keep_samples_and_move_estimates_by_rounding():
    # The gradient's long reduction x^T R is the one product whose bits follow the
    # BLAS thread count at n = 30, so samples hold byte for byte and estimates hold
    # to rounding; the README states this scope.
    src = str(Path(exact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _N30_FIT], env=env, capture_output=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    spins = 2000 * 30  # int8 samples, then the 30 x 30 float64 estimate
    assert [len(o) for o in outputs] == [spins + 30 * 30 * 8] * 2
    assert outputs[0][:spins] == outputs[1][:spins]
    one, two = (np.frombuffer(o[spins:]) for o in outputs)
    assert np.abs(one - two).max() <= 1e-12 * np.linalg.norm(one)
