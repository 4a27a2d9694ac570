"""Names that callers outside the library look up at run time.

``perfbench`` replaces the functions listed in ``perfbench/spans.py`` ``TRACED``
by name and reads ``projections.membership`` and ``cli.main``; a deleted or
renamed name would only fail there, as a benchmark run that cannot start.
"""

import importlib.util
from pathlib import Path

import pytest

import isingfit

MODULES = ["core", "ensembles", "exact", "mple", "optimizer", "projections", "sampler",
           "diagnostics", "cli"]


def traced_names():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_names() + [("projections", "membership"),
                                                           ("cli", "main")])
def test_benchmark_names_resolve(module, attr):
    assert callable(getattr(getattr(isingfit, module), attr))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = getattr(isingfit, module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
