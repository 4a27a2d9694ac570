import numpy as np
import pytest

from isingfit import CouplingMatrix, IsingModel, exact, projections


def random_coupling(n, rng, scale=1.0):
    """Random symmetric zero-diagonal matrix with N(0, scale^2) upper triangle."""
    raw = np.triu(rng.normal(size=(n, n)) * scale, k=1)
    return CouplingMatrix(raw + raw.T)


def rescale_spread(entries, s):
    """Scale a symmetric zero-diag matrix so lambda_max - lambda_min == s."""
    w = np.linalg.eigvalsh(entries)
    return entries * (s / (w[-1] - w[0]))


def rescale_width(entries, width):
    """Scale so the max row l1 norm equals width."""
    return entries * (width / np.abs(entries).sum(axis=1).max())


def dobrushin_model(n, width, seed):
    rng = np.random.default_rng(seed)
    return IsingModel.zero_field(
        CouplingMatrix(rescale_width(random_coupling(n, rng).entries, width))
    )


def spread_model(n, s, seed):
    rng = np.random.default_rng(seed)
    return IsingModel.zero_field(
        CouplingMatrix(rescale_spread(random_coupling(n, rng).entries, s))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def distribution_calls(monkeypatch):
    """List that grows by one model size per table ``exact.distribution`` stores;
    a streamed table (``streamed=True``) stores none and is not counted."""
    calls = []
    original = exact.distribution

    def counted(m, *, streamed=False):
        if not streamed:
            calls.append(m.n)
        return original(m, streamed=streamed)

    monkeypatch.setattr(exact, "distribution", counted)
    return calls


@pytest.fixture
def projection_calls(monkeypatch):
    """List that grows by the tolerance of each ``projections.project_array`` call:
    its ``tol`` keyword, or the default when the call passes none."""
    calls = []
    original = projections.project_array

    def counted(cs, a, **kwargs):
        calls.append(kwargs.get("tol", projections.DEFAULT_TOL))
        return original(cs, a, **kwargs)

    monkeypatch.setattr(projections, "project_array", counted)
    return calls
