import numpy as np
import pytest
from scipy import stats

from isingfit.core import CouplingMatrix, IsingModel, ParameterError
from isingfit.ensembles import EnsembleSpec, KINDS, generate, random_regular_graph


def spec_for(kind, n, **kw):
    defaults = {"SK": dict(beta=0.5), "DilutedSK": dict(beta=0.5, d=3),
                "CurieWeiss": dict(beta=1.0), "AntiferroExpander": dict(beta=0.05, d=4),
                "BoundedWidthRandom": dict(width=1.0)}
    args = {**defaults[kind], **kw}
    return EnsembleSpec(kind=kind, n=n, **args)


class TestCurieWeiss:
    def test_entries_beta_over_n(self):
        model = generate(EnsembleSpec(kind="CurieWeiss", n=3, beta=1.5))
        J = model.coupling.entries
        off = J[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.5, rtol=0, atol=0)
        assert np.all(np.diag(J) == 0)
        assert np.all(model.field == 0)


class TestSK:
    def test_variance_chi_square_interval(self):
        n, beta = 200, 1.0
        model = generate(EnsembleSpec(kind="SK", n=n, beta=beta, seed=12))
        upper = model.coupling.entries[np.triu_indices(n, k=1)]
        df = upper.size
        # mean-zero known, so sum of squares / sigma^2 ~ chi2(df)
        stat = np.sum(upper**2) * n / beta**2
        lo, hi = stats.chi2.ppf([0.005, 0.995], df)
        assert lo < stat < hi

    def test_spectrally_bounded_below_quarter(self):
        # beta < 1/4 puts the spectrum inside an interval of size < 1 whp
        hits = 0
        for seed in range(100):
            model = generate(EnsembleSpec(kind="SK", n=200, beta=0.24, seed=seed))
            w = np.linalg.eigvalsh(model.coupling.entries)
            hits += (w[-1] - w[0]) < 1.0
        assert hits >= 95


class TestDilutedSK:
    def test_row_support_and_magnitude(self):
        beta, d = 0.7, 3
        model = generate(EnsembleSpec(kind="DilutedSK", n=20, beta=beta, d=d, seed=3))
        J = model.coupling.entries
        nnz = np.count_nonzero(J, axis=1)
        np.testing.assert_array_equal(nnz, d)
        mags = np.abs(J[J != 0])
        np.testing.assert_allclose(mags, beta / np.sqrt(d - 1), rtol=1e-12)

    def test_signs_are_mixed(self):
        model = generate(EnsembleSpec(kind="DilutedSK", n=40, beta=1.0, d=4, seed=0))
        vals = model.coupling.entries[np.triu_indices(40, k=1)]
        vals = vals[vals != 0]
        assert (vals > 0).any() and (vals < 0).any()


class TestRegularGraph:
    def test_k4_is_only_cubic_graph_on_four_vertices(self):
        adj = random_regular_graph(4, 3, seed=9).entries
        np.testing.assert_array_equal(adj, np.ones((4, 4)) - np.eye(4))

    def test_degrees(self):
        adj = random_regular_graph(20, 3, seed=1).entries
        np.testing.assert_array_equal(adj.sum(axis=1), 3)
        assert np.all(np.diag(adj) == 0)

    def test_two_seeds_differ(self):
        a = random_regular_graph(50, 4, seed=1).entries
        b = random_regular_graph(50, 4, seed=2).entries
        assert not np.array_equal(a, b)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            random_regular_graph(5, 3, seed=0)  # odd n*d
        with pytest.raises(ParameterError):
            random_regular_graph(4, 4, seed=0)  # d >= n


class TestAntiferroExpander:
    def test_minus_beta_adjacency(self):
        beta, d = 0.05, 4
        model = generate(EnsembleSpec(kind="AntiferroExpander", n=30, beta=beta, d=d, seed=2))
        J = model.coupling.entries
        vals = np.unique(J)
        assert set(vals.tolist()) == {-beta, 0.0}
        np.testing.assert_array_equal((J != 0).sum(axis=1), d)
        # the all-ones vector is an eigenvector with eigenvalue -beta*d
        np.testing.assert_allclose(J @ np.ones(30), -beta * d, rtol=1e-12)


class TestBoundedWidthRandom:
    def test_width_pinned(self):
        model = generate(EnsembleSpec(kind="BoundedWidthRandom", n=50, width=2.0, seed=8))
        inf = np.abs(model.coupling.entries).sum(axis=1).max()
        assert inf == pytest.approx(2.0, rel=1e-12)


class TestGenericInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_models_validate(self, kind):
        model = generate(spec_for(kind, 16, seed=5))
        IsingModel(CouplingMatrix(model.coupling.entries), model.field)  # re-checks every invariant
        assert np.all(model.field == 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_matrix(self, kind):
        a = generate(spec_for(kind, 12, seed=77))
        b = generate(spec_for(kind, 12, seed=77))
        assert np.array_equal(a.coupling.entries, b.coupling.entries)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(kind="DilutedSK", n=5, beta=1.0, d=3)  # odd n*d
        with pytest.raises(ParameterError):
            EnsembleSpec(kind="BoundedWidthRandom", n=5, width=0.0)
        with pytest.raises(ParameterError):
            EnsembleSpec(kind="Mystery", n=5)

    @pytest.mark.parametrize("kind, field, value", [
        ("SK", "d", 3), ("CurieWeiss", "d", 2), ("BoundedWidthRandom", "d", 3),
        ("SK", "width", 9.0), ("DilutedSK", "width", 1.0), ("AntiferroExpander", "width", 1.0),
    ])
    def test_foreign_parameter_rejected(self, kind, field, value):
        with pytest.raises(ParameterError, match=f"^{field}: {kind} takes no"):
            spec_for(kind, 12, **{field: value})
