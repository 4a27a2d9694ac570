"""Names that callers outside the library look up at run time, and the private
names that one module of the library reads from another.

``perfbench`` replaces the functions listed in ``perfbench/spans.py`` ``TRACED``
by name and reads ``projections.membership`` and ``cli.main``; a deleted or
renamed name would only fail there, as a benchmark run that cannot start.
"""

import ast
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


def sibling_private_reads():
    """(reader, "module._name") for every private name a module reads from a sibling."""
    reads = set()
    for path in sorted(Path(isingfit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES and node.value.id != path.stem
                    and node.attr.startswith("_")):
                reads.add((path.stem, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                reads.update((path.stem, f"{node.module}.{a.name}")
                             for a in node.names if a.name.startswith("_"))
    return sorted(reads)


def test_private_names_read_across_modules():
    # the exact layer's half split, among others, stays inside its module
    assert sibling_private_reads() == sorted(
        ("diagnostics", name) for name in ["exact._table", "sampler._check_count",
                                           "sampler._exact_indices", "mple._fold", "mple._first"])
