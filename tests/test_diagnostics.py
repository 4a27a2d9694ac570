import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingfit import diagnostics, exact, mple, sampler
from isingfit.core import CouplingMatrix, IsingModel, ParameterError, ValidationError
from isingfit.ensembles import EnsembleSpec, generate

from conftest import dobrushin_model, random_coupling


def curie_weiss(n, beta):
    return IsingModel.zero_field(
        CouplingMatrix((beta / n) * (np.ones((n, n)) - np.eye(n)))
    )


class TestSubsetDecomposition:
    def test_narrow_matrix_single_subset(self):
        J = CouplingMatrix(0.1 * (np.ones((8, 8)) - np.eye(8)))
        dec = diagnostics.subset_decomposition(J, M=2.0, eta=1.0, seed=0)
        assert dec.r == 1
        assert dec.membership_count == 1
        np.testing.assert_array_equal(dec.subsets[0], np.arange(8))
        assert diagnostics.check_subset_decomposition(J, dec) == []

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_seed_checked_for_the_one_subset_answer(self, seed):
        J = CouplingMatrix(0.1 * (np.ones((8, 8)) - np.eye(8)))
        with pytest.raises(ParameterError, match="seed must be an integer"):
            diagnostics.subset_decomposition(J, M=2.0, eta=1.0, seed=seed)

    def test_zero_matrix_single_subset(self):
        J = CouplingMatrix.zeros(10)
        dec = diagnostics.subset_decomposition(J, M=1.0, eta=0.5, seed=1)
        assert diagnostics.check_subset_decomposition(J, dec) == []

    def test_bounded_width_model_invariants(self):
        model = generate(EnsembleSpec(kind="BoundedWidthRandom", n=100, width=2.0, seed=3))
        dec = diagnostics.subset_decomposition(model.coupling, M=2.0, eta=1.0 / 3.0, seed=4)
        assert diagnostics.check_subset_decomposition(model.coupling, dec) == []
        # spot-check the two properties directly, independent of the checker
        absJ = np.abs(model.coupling.entries)
        counts = np.zeros(100, dtype=int)
        for idx in dec.subsets:
            counts[idx] += 1
            if idx.size:
                assert absJ[np.ix_(idx, idx)].sum(axis=1).max() <= 1.0 / 3.0 + 1e-12
        assert np.all(counts == dec.membership_count)

    def test_subsets_pinned(self):
        # A10's seed 0 (r = 10,611): every draw, redraw, drop and insert feeds
        # the subsets, so a change to the construction or its RNG order moves the hash
        model = generate(EnsembleSpec(kind="BoundedWidthRandom", n=100, width=2.0, seed=0))
        dec = diagnostics.subset_decomposition(model.coupling, M=2.0, eta=1.0 / 3.0, seed=0)
        text = "\n".join(",".join(map(str, idx.tolist())) for idx in dec.subsets)
        assert (dec.r, dec.membership_count) == (10611, 222)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e05c3f1c1a8993b9ec2861615218478a96e870f9a3f7b2e88ee0be1347457e4f")

    def test_checker_catches_bad_decomposition(self):
        J = CouplingMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        dec = diagnostics.SubsetDecomposition(
            subsets=[np.array([0, 1])], eta=0.5, membership_count=1
        )
        problems = diagnostics.check_subset_decomposition(J, dec)
        assert any("width" in p for p in problems)

    def test_parameter_validation(self):
        J = CouplingMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(ParameterError, match="width"):
            diagnostics.subset_decomposition(J, M=1.0, eta=0.5, seed=0)
        with pytest.raises(ParameterError):
            diagnostics.subset_decomposition(J, M=3.0, eta=3.5, seed=0)


class TestRegularityProbe:
    def test_dobrushin_bounded_ratio(self):
        model = dobrushin_model(8, 0.3, seed=6)
        report = diagnostics.regularity_probe(model, gamma=0.05, num_perturbations=30, seed=7)
        assert report.excluded == 0
        assert len(report.ratios) == 30
        assert report.max_ratio <= 10.0

    def test_curie_weiss_low_temperature_finite(self):
        model = curie_weiss(10, 1.5)
        report = diagnostics.regularity_probe(model, gamma=0.05, num_perturbations=10, seed=8)
        assert np.isfinite(report.max_ratio)
        assert report.max_ratio > 0

    def test_rescaling_is_exact(self):
        # the probe pins E_{J*}[||A X||^2] to gamma exactly, so e_jstar scales
        # exactly with gamma by construction; verify by recomputation
        model = dobrushin_model(6, 0.4, seed=9)
        gamma = 0.08
        rng = diagnostics._probe_rng(11, "regular")
        n = model.n
        S = exact.all_states(n)
        probs = exact.distribution(model).probs
        raw = rng.normal(size=(n, n))
        raw = np.triu(raw, k=1)
        A = raw + raw.T
        e_star = float(probs @ ((S @ A) ** 2).sum(axis=1))
        A_scaled = A * np.sqrt(gamma / e_star)
        rescaled = float(probs @ ((S @ A_scaled) ** 2).sum(axis=1))
        assert rescaled == pytest.approx(gamma, rel=1e-12)

    def test_ratios_match_rebuilt_models(self, rng):
        # reference: build the model J* + A for each rescaled direction
        n, gamma = 6, 0.05
        model = IsingModel(random_coupling(n, rng, scale=0.3), 0.5 * rng.normal(size=n))
        report = diagnostics.regularity_probe(model, gamma, num_perturbations=8, seed=12)
        assert [pid for pid, _ in report.ratios] == list(range(8))
        directions = diagnostics._probe_rng(12, "regular")
        S = exact.all_states(n)
        base = exact.distribution(model).probs
        for _, ratio in report.ratios:
            raw = np.triu(directions.normal(size=(n, n)), k=1)
            A = raw + raw.T
            A = A * np.sqrt(gamma / float(base @ ((S @ A) ** 2).sum(axis=1)))
            perturbed = IsingModel(CouplingMatrix(model.coupling.entries + A), model.field)
            probs = exact.distribution(perturbed).probs
            expected = float(probs @ ((S @ A) ** 2).sum(axis=1)) / gamma
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_ratios_equal_per_direction_tables(self, rng):
        # bit for bit: the probe's shared half-state arrays change no table entry
        n, gamma = 7, 0.05
        model = IsingModel(random_coupling(n, rng, scale=0.3), 0.5 * rng.normal(size=n))
        report = diagnostics.regularity_probe(model, gamma, num_perturbations=6, seed=21)
        directions = diagnostics._probe_rng(21, "regular")
        base = exact.second_moments(exact.distribution(model))[1]
        expected = []
        for pid in range(6):
            raw = np.triu(directions.normal(size=(n, n)), k=1)
            A = raw + raw.T
            A_sq = A @ A
            e_star = float(np.vdot(A_sq, base))
            A *= np.sqrt(gamma / e_star)
            perturbed = IsingModel(CouplingMatrix(model.coupling.entries + A), model.field)
            second = exact.second_moments(exact.distribution(perturbed))[1]
            expected.append((pid, float(np.vdot(A_sq, second)) / e_star))
        assert report.ratios == expected

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_perturbations": 2.5}, "num_perturbations must be an integer"),
        ({"num_perturbations": True}, "num_perturbations must be an integer"),
        ({"gamma": True}, "gamma must be positive and finite"),
    ])
    def test_non_integer_count_or_bool_gamma_raise(self, kwargs, message):
        model = curie_weiss(4, 0.5)
        with pytest.raises(ParameterError, match=message):
            diagnostics.regularity_probe(model, **{"gamma": 0.1, "num_perturbations": 3,
                                                   **kwargs})

    def test_degenerate_directions_excluded(self):
        # n=1 leaves only the zero direction, which must be excluded, not used
        model = IsingModel.zero_field(CouplingMatrix.zeros(1))
        report = diagnostics.regularity_probe(model, gamma=0.1, num_perturbations=5, seed=10)
        assert report.excluded == 5
        assert report.ratios == []


class TestMetricComparison:
    def test_uniform_ratio_is_one(self, rng):
        model = IsingModel.zero_field(CouplingMatrix.zeros(6))
        J2 = random_coupling(6, rng)
        cmp = diagnostics.metric_comparison(model, J2)
        assert cmp.ratio == pytest.approx(1.0, rel=1e-12)

    def test_identical_matrices_degenerate(self):
        model = curie_weiss(6, 1.5)
        cmp = diagnostics.metric_comparison(model, model.coupling)
        assert cmp.degenerate
        assert cmp.e_jstar == cmp.frob_sq == 0.0

    def test_curie_weiss_ratio_grows_with_n(self):
        ratios = []
        for n in (8, 10, 12):
            cmp = diagnostics.metric_comparison(
                curie_weiss(n, 1.5), curie_weiss(n, 1.6).coupling
            )
            assert cmp.ratio > 1.0
            ratios.append(cmp.ratio)
        assert ratios[0] < ratios[1] < ratios[2]


    def test_rejects_other_dimension(self, rng):
        model = IsingModel.zero_field(random_coupling(3, rng))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            diagnostics.metric_comparison(model, CouplingMatrix.zeros(1))


class TestPairMetrics:
    def test_tables_only_for_exact_metrics(self, rng, distribution_calls):
        truth, est = (IsingModel.zero_field(random_coupling(4, rng)) for _ in range(2))
        values = diagnostics.pair_metrics(truth, est, ["op_norm_err", "frobenius"])
        assert list(values) == ["frobenius", "op_norm_err"] and distribution_calls == []
        delta = est.coupling.entries - truth.coupling.entries
        assert values["frobenius"] == np.linalg.norm(delta)
        assert values["op_norm_err"] == np.abs(np.linalg.eigvalsh(delta)).max()
        p_true = exact.distribution(truth)
        values = diagnostics.pair_metrics(truth, est, diagnostics.PAIR_METRICS, p_true)
        assert distribution_calls == [4]  # p_true above; the estimate's table is streamed
        p_est = exact.distribution(est)
        assert values["tv_exact"] == exact.tv_distance(p_est, p_true)
        assert values["kl_exact"] == exact.kl_divergence(p_est, p_true)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_streamed_estimate_matches_whole_tables(self, n):
        rng = np.random.default_rng(n)
        truth, est = (IsingModel(random_coupling(n, rng, 0.3), rng.normal(size=n))
                      for _ in range(2))
        p_true = exact.distribution(truth)
        # blocks of two rows or more, whose GEMMs give the rows of the whole table's;
        # the whole tables are read in the same blocks
        with mock.patch.object(exact, "_BLOCK", 1 << 9):
            values = diagnostics.pair_metrics(truth, est, diagnostics.PAIR_METRICS, p_true)
            p_est = exact.distribution(est)
            assert values["tv_exact"] == exact.tv_distance(p_est, p_true)
            assert values["kl_exact"] == exact.kl_divergence(p_est, p_true)

    def test_tv_alone_against_a_hand_built_table(self, rng):
        truth, est = (IsingModel(random_coupling(5, rng, 0.3), rng.normal(size=5))
                      for _ in range(2))
        p_true = exact.DistributionTable(n=5, probs=exact.distribution(truth).probs)  # no log Z
        values = diagnostics.pair_metrics(truth, est, ["tv_exact"], p_true)
        assert values == {"tv_exact": exact.tv_distance(exact.distribution(est), p_true)}
        with pytest.raises(ValidationError, match="KL needs tables built from a model"):
            diagnostics.pair_metrics(truth, est, ["kl_exact"], p_true)

    def test_no_estimate_table(self, rng):
        n = 20
        truth, est = (IsingModel(random_coupling(n, rng, 0.1), rng.normal(size=n))
                      for _ in range(2))
        p_true = exact.distribution(truth)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            diagnostics.pair_metrics(truth, est, diagnostics.PAIR_METRICS, p_true)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < p_true.probs.nbytes / 4

    def test_unknown_name_rejected_before_any_table(self, rng, distribution_calls):
        truth = IsingModel.zero_field(random_coupling(3, rng))
        with pytest.raises(ParameterError, match="metrics: unknown metric 'bogus'"):
            diagnostics.pair_metrics(truth, truth, ["tv_exact", "frobenius", "bogus"])
        assert distribution_calls == []

    def test_other_dimension_rejected(self, rng):
        truth = IsingModel.zero_field(random_coupling(3, rng))
        est = IsingModel.zero_field(CouplingMatrix.zeros(1))  # would broadcast against n = 3
        with pytest.raises(ValidationError, match="dimension mismatch: 1 vs 3"):
            diagnostics.pair_metrics(truth, est, ["frobenius"])

    def test_tv_frobenius_check_reads_them(self, rng):
        m1, m2 = (IsingModel.zero_field(random_coupling(5, rng)) for _ in range(2))
        rep = diagnostics.tv_frobenius_check(m1, m2)
        values = diagnostics.pair_metrics(m2, m1, diagnostics.PAIR_METRICS)  # KL(m1 || m2)
        assert (rep.tv, rep.frob, rep.kl) == (
            values["tv_exact"], values["frobenius"], values["kl_exact"])


class TestTvFrobenius:
    def test_identical_models(self):
        m = curie_weiss(5, 1.0)
        rep = diagnostics.tv_frobenius_check(m, m)
        assert rep.tv == 0.0 and rep.bound_ok

    def test_two_site_closed_form(self):
        for beta in (0.1, 0.7, 2.0):
            m1 = IsingModel.zero_field(CouplingMatrix([[0.0, beta], [beta, 0.0]]))
            m2 = IsingModel.zero_field(CouplingMatrix.zeros(2))
            rep = diagnostics.tv_frobenius_check(m1, m2)
            assert rep.tv == pytest.approx(np.tanh(beta) / 2.0, rel=1e-12)
            assert rep.frob == pytest.approx(beta * np.sqrt(2.0), rel=1e-12)
            assert rep.bound_ok and rep.pinsker_ok

    def test_random_pairs_never_violate(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m1 = IsingModel.zero_field(random_coupling(n, rng))
            m2 = IsingModel.zero_field(random_coupling(n, rng))
            rep = diagnostics.tv_frobenius_check(m1, m2)
            assert rep.bound_ok and rep.pinsker_ok

    def test_rejects_nonzero_field(self, rng):
        m1 = IsingModel(random_coupling(3, rng), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ParameterError, match="zero external fields"):
            diagnostics.tv_frobenius_check(m1, m1)


class TestGradientConcentration:
    def test_zero_mean_and_monotone_tails(self, rng):
        model = dobrushin_model(6, 0.4, seed=12)
        A = random_coupling(6, rng)
        rep = diagnostics.gradient_concentration_probe(model, A, l=200, batches=200, seed=13)
        t_stat = rep.mean / (rep.std / np.sqrt(200))
        assert abs(t_stat) < 4.0
        assert rep.exceed_fraction[4.0] <= rep.exceed_fraction[2.0] <= rep.exceed_fraction[1.0]

    def test_std_scales_like_sqrt_l(self):
        model = dobrushin_model(6, 0.4, seed=14)
        A = random_coupling(6, np.random.default_rng(15))
        stds = []
        ls = (100, 1000, 10_000)
        for l in ls:
            rep = diagnostics.gradient_concentration_probe(model, A, l=l, batches=100, seed=16)
            stds.append(rep.std)
        slope = np.polyfit(np.log(ls), np.log(stds), 1)[0]
        assert 0.4 <= slope <= 0.6

    @pytest.mark.parametrize("batches", [2, 9])
    def test_one_table_for_all_batches(self, rng, distribution_calls, monkeypatch, batches):
        model = IsingModel(random_coupling(7, rng, 0.3), rng.normal(size=7))
        A = random_coupling(7, rng)
        l = 1500  # five batches per group of keys, so 9 batches take two walks of the table
        cumsum_sizes = []
        cumsum = np.cumsum

        def counted(a, *args, **kwargs):
            cumsum_sizes.append(np.size(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted)
        rep = diagnostics.gradient_concentration_probe(model, A, l=l, batches=batches, seed=4)
        assert distribution_calls == [7]
        groups = -(-batches // (diagnostics._DRAW_KEYS // l))
        assert cumsum_sizes == [2**7] * groups  # one one-chunk walk of the table per group
        # reference: a fresh exact sample of the model for each batch seed
        seeds = diagnostics._probe_rng(4, "gradcon")
        reference = []
        for _ in range(batches):
            batch = sampler.exact_sample(model, l, int(seeds.integers(0, 2**62)))
            ctx = mple.PseudolikelihoodContext(batch, model.field)
            reference.append(mple.directional_derivatives(model.coupling, A, ctx)[0])
        np.testing.assert_array_equal(rep.values, reference)

    @pytest.mark.parametrize("batches", [2.5, True])
    def test_non_integer_batches_raise(self, batches):
        model = curie_weiss(4, 0.5)
        with pytest.raises(ParameterError, match="batches must be an integer"):
            diagnostics.gradient_concentration_probe(model, model.coupling, l=10,
                                                     batches=batches)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), l=st.integers(1, 700), batches=st.integers(2, 5),
           seed=st.integers(-2**63, 2**63 - 1), keys=st.sampled_from([1, 300, 1 << 16]),
           scale=st.floats(0.0, 1.0))
    @example(n=1, l=1, batches=2, seed=0, keys=1 << 16, scale=0.5)  # n = 1, 2^n > l
    @example(n=1, l=5, batches=3, seed=1, keys=1 << 16, scale=0.5)  # n = 1, folded
    @example(n=6, l=64, batches=4, seed=2, keys=100, scale=1.0)  # folded, 2^n = l
    @example(n=9, l=300, batches=5, seed=3, keys=1 << 16, scale=1.0)  # unfolded
    def test_values_equal_per_batch_reference(self, n, l, batches, seed, keys, scale):
        # bit for bit against one exact_sample, context and directional_derivatives per
        # batch, in both regimes of the context's fold rule, with batches sharing one
        # CDF search (keys >= 2 l) or searched one at a time (keys < 2 l)
        rng = np.random.default_rng(abs(seed) % 2**32 + n)
        model = IsingModel(random_coupling(n, rng, scale), scale * rng.normal(size=n))
        A = random_coupling(n, rng)
        with mock.patch.object(diagnostics, "_DRAW_KEYS", keys):
            rep = diagnostics.gradient_concentration_probe(model, A, l=l, batches=batches,
                                                           seed=seed)
        seeds = diagnostics._probe_rng(seed, "gradcon")
        reference = []
        for _ in range(batches):
            batch = sampler.exact_sample(model, l, int(seeds.integers(0, 2**62)))
            ctx = mple.PseudolikelihoodContext(batch, model.field)
            reference.append(mple.directional_derivatives(model.coupling, A, ctx)[0])
        np.testing.assert_array_equal(rep.values, reference)
