"""Constrained pseudolikelihood estimation of Ising models.

Submodules: core (types and files), ensembles (matrix generators), sampler
(heat-bath and exact samplers), exact (2^n brute-force evaluators), mple
(objective and derivatives), projections (constraint sets), optimizer
(projected gradient descent), diagnostics (structural probes), cli.
"""

import importlib

from . import (  # noqa: F401
    core,
    diagnostics,
    ensembles,
    exact,
    mple,
    optimizer,
    projections,
    sampler,
)
from .core import (  # noqa: F401
    CouplingMatrix,
    IsingModel,
    SampleBatch,
    load_model,
    load_samples,
    matrix_norms,
    save_model,
    save_samples,
)
from .ensembles import EnsembleSpec, generate  # noqa: F401
from .optimizer import FitConfig, FitReport, fit_mple  # noqa: F401
from .projections import (  # noqa: F401
    FAMILIES,
    AntiferroSpike,
    ConstraintSet,
    OpNormBall,
    SpectralSpread,
    WidthBall,
    membership,
    project,
)

__version__ = "0.1.0"


def __getattr__(name):  # cli loads on first use: `python -m isingfit.cli` runs one copy
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
