import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfit import core
from isingfit.core import (
    CouplingMatrix,
    IsingModel,
    ParseError,
    SampleBatch,
    ValidationError,
    load_model,
    load_samples,
    matrix_norms,
    save_model,
    save_samples,
    validate_model,
    validation_errors,
)

from conftest import random_coupling


def power_iteration_norm(a, iters=5000):
    """Independent operator-norm oracle: power iteration on a^T a."""
    rng = np.random.default_rng(1)
    v = rng.normal(size=a.shape[0])
    m = a.T @ a
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ m @ v))


class TestMatrixNorms:
    def test_zero_matrix(self):
        norms = matrix_norms(CouplingMatrix.zeros(5))
        assert norms == (0.0, 0.0, 0.0)

    def test_two_by_two_closed_form(self):
        norms = matrix_norms(CouplingMatrix([[0.0, 2.0], [2.0, 0.0]]))
        assert norms.infinity == pytest.approx(2.0, abs=0)
        assert norms.operator == pytest.approx(2.0, rel=1e-12)
        assert norms.frobenius == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)

    def test_against_power_iteration_and_entry_sums(self, rng):
        J = random_coupling(6, rng)
        norms = matrix_norms(J)
        a = J.entries
        assert norms.operator == pytest.approx(power_iteration_norm(a), rel=1e-9)
        assert norms.frobenius == pytest.approx(np.sqrt(np.sum(a * a)), rel=1e-12)
        assert norms.infinity == pytest.approx(max(sum(abs(v) for v in row) for row in a))
        assert norms.operator <= norms.frobenius <= np.sqrt(6) * norms.operator + 1e-12

    def test_norm_inequalities_random_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            norms = matrix_norms(random_coupling(n, rng))
            assert norms.operator <= norms.frobenius + 1e-12
            assert norms.operator <= norms.infinity + 1e-12


class TestValidation:
    def test_curie_weiss_is_valid(self):
        n, beta = 4, 1.5
        J = (beta / n) * (np.ones((n, n)) - np.eye(n))
        assert validate_model(IsingModel.zero_field(CouplingMatrix(J))) == []

    def test_nonzero_diagonal_named(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = 0.1
        errors = validation_errors(bad)
        assert any("nonzero diagonal at 0" in e for e in errors)
        with pytest.raises(ValidationError):
            CouplingMatrix(bad)

    def test_field_length_mismatch_named(self):
        errors = validation_errors(np.zeros((3, 3)), field=np.zeros(2))
        assert any("field length mismatch" in e for e in errors)
        with pytest.raises(ValidationError, match="length mismatch"):
            IsingModel(CouplingMatrix.zeros(3), np.zeros(2))

    def test_asymmetry_and_nan_named(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0  # not mirrored
        assert any("asymmetric pair at (0,1)" in e for e in validation_errors(bad))
        nan = np.zeros((2, 2))
        nan[0, 1] = nan[1, 0] = np.nan
        assert any("non-finite" in e for e in validation_errors(nan))

    def test_entries_are_read_only(self):
        J = CouplingMatrix.zeros(3)
        with pytest.raises(ValueError):
            J.entries[0, 1] = 1.0


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        model = IsingModel(random_coupling(7, rng), rng.normal(size=7))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.coupling.entries, model.coupling.entries)
        assert np.array_equal(loaded.field, model.field)

    def test_triplets_encode_same_model(self, rng, tmp_path):
        model = IsingModel.zero_field(random_coupling(5, rng))
        dense_path, trip_path = tmp_path / "d.json", tmp_path / "t.json"
        save_model(model, dense_path)
        a = model.coupling.entries
        i, j = np.triu_indices(5, k=1)
        trips = [[int(p), int(q), float(a[p, q])] for p, q in zip(i, j)]
        trip_path.write_text(json.dumps({"n": 5, "h": [0.0] * 5, "J": {"triplets": trips}}))
        assert load_model(dense_path) == load_model(trip_path)

    def test_missing_n_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"h": [0.0], "J": {"dense": [[0.0]]}}')
        with pytest.raises(ParseError, match='"n"'):
            load_model(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1,\n "h": [0.0,]}')
        with pytest.raises(ParseError, match="line"):
            load_model(path)

    def test_bad_triplet_indices(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"n": 3, "h": [0, 0, 0], "J": {"triplets": [[2, 1, 0.5]]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="triplets"):
            load_model(path)

    def test_seventeen_digit_floats(self, tmp_path):
        # a value whose shortest repr is long; 17 significant digits round-trip
        v = 0.1 + 0.2
        model = IsingModel.zero_field(CouplingMatrix([[0.0, v], [v, 0.0]]))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).coupling.entries[0, 1] == v


class TestSampleFiles:
    def test_round_trip(self, rng, tmp_path):
        spins = rng.choice([-1, 1], size=(10, 4)).astype(np.int8)
        batch = SampleBatch(spins)
        path = tmp_path / "samples.csv"
        save_samples(batch, path)
        assert np.array_equal(load_samples(path).spins, spins)
        first_line = path.read_text().splitlines()[0]
        assert set(first_line.split(",")) <= {"-1", "1"}

    def test_rejects_bad_entries(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1,-1\n1,0\n")
        with pytest.raises(ParseError, match="-1 or 1"):
            load_samples(path)

    @pytest.mark.parametrize("bad_line, message", [
        ("1,x,1", "non-integer entry"),
        ("1,0,1", "entries must be -1 or 1"),
        ("1,-1", "rows have inconsistent lengths"),
    ])
    def test_bad_line_named_after_blank_line(self, tmp_path, bad_line, message):
        path = tmp_path / "samples.csv"
        path.write_text(f"1,-1,1\n\n{bad_line}\n-1,1,1\n")
        with pytest.raises(ParseError, match=f"samples.csv:3: {message}"):
            load_samples(path)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 6).flatmap(lambda n: st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n), min_size=1, max_size=8)),
        pad=st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=2, max_size=2),
        blanks=st.lists(st.sampled_from(["", "  ", "\t"]), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_line_by_line_parse(self, rows, pad, blanks, seed):
        # the reference is the plain loop: skip blank lines, split on commas, int()
        rng = np.random.default_rng(seed)
        lines = [",".join(f"{pad[0]}{v}{pad[1]}" for v in row) for row in rows]
        for blank in blanks:
            lines.insert(int(rng.integers(0, len(lines) + 1)), blank)
        text = "\n".join(lines) + "\n"
        expected = [[int(v) for v in line.split(",")] for line in text.splitlines() if line.strip()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            path.write_text(text)
            assert load_samples(path).spins.tolist() == expected

    def test_batch_validation(self):
        with pytest.raises(ValidationError):
            SampleBatch(np.array([[1, 2]]))


def test_validate_model_roundtrip_on_all_good_models(rng):
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = IsingModel(random_coupling(n, rng), rng.normal(size=n))
        assert validate_model(m) == []
        assert core.matrix_norms(m.coupling).frobenius >= 0
