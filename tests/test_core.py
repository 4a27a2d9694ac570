import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfit import core, diagnostics, ensembles, exact
from isingfit.core import (
    CouplingMatrix,
    IsingModel,
    ParameterError,
    ParseError,
    SampleBatch,
    ValidationError,
    load_model,
    load_samples,
    save_model,
    save_samples,
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


def coupling_norms(J):
    """Frobenius and operator norms of J, as the error of J against a zero-coupling truth."""
    zero = IsingModel.zero_field(CouplingMatrix.zeros(J.n))
    return diagnostics.pair_metrics(zero, IsingModel.zero_field(J), ["frobenius", "op_norm_err"])


class TestMatrixNorms:
    def test_zero_matrix(self):
        norms = coupling_norms(CouplingMatrix.zeros(5))
        assert norms == {"frobenius": 0.0, "op_norm_err": 0.0}

    def test_two_by_two_closed_form(self):
        norms = coupling_norms(CouplingMatrix([[0.0, 2.0], [2.0, 0.0]]))
        assert norms["op_norm_err"] == pytest.approx(2.0, rel=1e-12)
        assert norms["frobenius"] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)

    def test_against_power_iteration_and_entry_sums(self, rng):
        J = random_coupling(6, rng)
        norms = coupling_norms(J)
        a = J.entries
        assert norms["op_norm_err"] == pytest.approx(power_iteration_norm(a), rel=1e-9)
        assert norms["frobenius"] == pytest.approx(np.sqrt(np.sum(a * a)), rel=1e-12)
        op, frob = norms["op_norm_err"], norms["frobenius"]
        assert op <= frob <= np.sqrt(6) * op + 1e-12

    def test_norm_inequalities_random_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            norms = coupling_norms(random_coupling(n, rng))
            assert norms["op_norm_err"] <= norms["frobenius"] + 1e-12


class TestValidation:
    def test_curie_weiss_is_valid(self):
        n, beta = 4, 1.5
        J = (beta / n) * (np.ones((n, n)) - np.eye(n))
        model = IsingModel.zero_field(CouplingMatrix(J))
        np.testing.assert_array_equal(model.coupling.entries, J)

    def test_nonzero_diagonal_named(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = 0.1
        with pytest.raises(ValidationError, match="nonzero diagonal at 0"):
            CouplingMatrix(bad)

    def test_field_length_mismatch_named(self):
        with pytest.raises(ValidationError, match="field length mismatch"):
            IsingModel(CouplingMatrix.zeros(3), np.zeros(2))

    def test_asymmetry_and_nan_named(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0  # not mirrored
        with pytest.raises(ValidationError, match=r"asymmetric pair at \(0,1\)"):
            CouplingMatrix(bad)
        nan = np.zeros((2, 2))
        nan[0, 1] = nan[1, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            CouplingMatrix(nan)

    def test_entries_are_read_only(self):
        J = CouplingMatrix.zeros(3)
        with pytest.raises(ValueError):
            J.entries[0, 1] = 1.0


def per_entry_coupling_errors(arr):
    """The per-entry check written out entry by entry: the oracle for which
    matrices are valid and what a bad one's messages say."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        return ["coupling matrix must be square and non-empty"]
    bad = np.argwhere(~np.isfinite(arr))
    errors = [f"non-finite coupling at ({i},{j})" for i, j in bad[:5]]
    if len(bad) > 5:
        errors.append(f"... {len(bad) - 5} more non-finite couplings")
    if errors:
        return errors
    errors = [f"asymmetric pair at ({i},{j})" for i, j in np.argwhere(arr != arr.T)[:5] if i < j]
    return errors + [f"nonzero diagonal at {i}" for i in np.nonzero(np.diag(arr))[0][:5]]


_EDIT_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, np.nan, np.inf, -np.inf])


class TestCouplingCheck:
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 7),
        data=st.data(),
        edits=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _EDIT_VALUES, st.booleans()),
                       max_size=8),
    )
    def test_same_verdict_and_messages_as_per_entry_check(self, n, data, edits):
        # a symmetric zero-diagonal matrix, then edits that may break finiteness,
        # symmetry (unless mirrored) or the diagonal (unless a signed zero)
        upper = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n))
        a = np.triu(np.reshape(upper, (n, n)), k=1)
        a = a + a.T
        for i, j, v, mirror in edits:
            a[i % n, j % n] = v
            if mirror:
                a[j % n, i % n] = v
        assert core._coupling_errors(a) == per_entry_coupling_errors(a)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_bad_shapes_keep_their_message(self, shape):
        assert core._coupling_errors(np.zeros(shape)) == per_entry_coupling_errors(np.zeros(shape))


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

    @settings(max_examples=40, deadline=None)
    @given(l=st.sampled_from([1, 7, core._CSV_BLOCK_ROWS + 1]), n=st.sampled_from([1, 2, 30]),
           fill=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**32 - 1))
    def test_bytes_of_savetxt(self, l, n, fill, seed):
        # the block writer gives np.savetxt's bytes; fill 0 draws entries, +-1 repeats one
        rng = np.random.default_rng(seed)
        spins = rng.choice([-1, 1], size=(l, n)) if fill == 0 else np.full((l, n), fill)
        with tempfile.TemporaryDirectory() as tmp:
            ours, numpy_text = Path(tmp) / "ours.csv", Path(tmp) / "savetxt.csv"
            save_samples(SampleBatch(spins), ours)
            np.savetxt(numpy_text, SampleBatch(spins).spins, fmt="%d", delimiter=",")
            assert ours.read_bytes() == numpy_text.read_bytes()

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
        again = IsingModel(m.coupling.entries, m.field)
        np.testing.assert_array_equal(again.field, m.field)
        assert again.coupling == m.coupling


@pytest.mark.parametrize("seed", [2.5, True])
def test_seed_must_be_an_integer(seed):
    # core.stream is the one RNG constructor, so its check covers every seeded function
    m = IsingModel.zero_field(CouplingMatrix(0.1 * (np.ones((4, 4)) - np.eye(4))))
    calls = [
        lambda: core.stream(seed),
        lambda: diagnostics.regularity_probe(m, gamma=0.1, num_perturbations=1, seed=seed),
        lambda: diagnostics.gradient_concentration_probe(m, m.coupling, l=5, batches=2, seed=seed),
        lambda: diagnostics.subset_decomposition(m.coupling, M=2.0, eta=0.2, seed=seed),
        lambda: exact.hubbard_stratonovich_check(m, draws=10, seed=seed),
        lambda: ensembles.random_regular_graph(4, 2, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="seed must be an integer"):
            call()
