"""Names that callers outside the library look up at run time, and the private
names that one module of the library reads from another.

``perfbench`` replaces the functions listed in ``perfbench/spans.py`` ``TRACED``
by name and reads ``projections.membership`` and ``cli.main``; a deleted or
renamed name would only fail there, as a benchmark run that cannot start. Its
spans also read their calls' positional arguments, so a changed call shape is
checked here too.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

import isingfit
from isingfit import cli, diagnostics, sampler

MODULES = ["core", "ensembles", "exact", "mple", "optimizer", "projections", "sampler",
           "diagnostics", "cli"]


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_names():
    return [(module, attr) for module, attr, _ in load_spans().TRACED]


@pytest.mark.parametrize("module, attr", traced_names() + [("projections", "membership"),
                                                           ("cli", "main")])
def test_benchmark_names_resolve(module, attr):
    assert callable(getattr(getattr(isingfit, module), attr))


def test_benchmark_call_shapes_give_span_attributes(tmp_path):
    # One small op of each CLI shape the benchmark workloads run, traced as a
    # benchmark run traces them: a span that cannot read its call's arguments
    # fails the command here, not only a benchmark run.
    spans = load_spans()
    tracer, original = spans.Tracer(), sampler.glauber_sample
    inst = spans.Instrumentation(isingfit, tracer)
    ensemble = {"kind": "SK", "n": 8, "beta": 0.5, "seed": 0}
    config, sweep = tmp_path / "config.json", tmp_path / "sweep.json"
    config.write_text(json.dumps({"ensemble": ensemble}))
    sweep.write_text(json.dumps({
        "ensemble": ensemble, "constraint": {"kind": "OpNormBall", "lam": 0.5},
        "sampler": {"method": "exact"},
        "sweep": {"l_values": [200], "seeds": [1], "metrics": list(diagnostics.PAIR_METRICS)}}))
    model, samples, est = (str(tmp_path / name) for name in ("m.json", "s.csv", "e.json"))
    commands = [
        ["sweep", "--config", str(sweep), "--out", str(tmp_path / "cells.csv")],
        ["generate", "--config", str(config), "--out", model],
        ["sample", "--model", model, "--method", "glauber", "--l", "40", "--seed", "3",
         "--out", samples],
        ["fit", "--samples", samples, "--constraint", '{"kind": "OpNormBall", "lam": 0.5}',
         "--out", est, "--report", str(tmp_path / "fit.json")],
        ["evaluate", "--model-a", model, "--model-b", est, "--metrics", "frobenius,op_norm_err",
         "--out", str(tmp_path / "eval.csv")],
        ["diagnose", "--probe", "gradconc", "--model", model, "--l", "100", "--batches", "5",
         "--out", str(tmp_path / "gradconc.csv")],
        ["diagnose", "--probe", "regularity", "--model", model, "--gamma", "0.05", "--num", "5",
         "--out", str(tmp_path / "regularity.csv")],
    ]
    try:
        for op, argv in enumerate(commands):
            tracer.op = op
            assert cli.main(argv) == 0, argv[0]
        summary = spans.summarize(tracer, len(commands), len(commands))
    finally:
        inst.remove()
    assert sampler.glauber_sample is original
    attributed = {"projections", "exact.distribution", "sampler.glauber", "sampler.exact",
                  "optimizer.fit", "core.load", "core.save"}
    names = {s[0] for s in tracer.spans}
    assert attributed | {"mple.objective_and_gradient", "ensembles.generate",
                         "diagnostics.gradconc", "diagnostics.regularity"} <= names
    for name, *_, attrs in tracer.spans:
        assert (attrs is not None) == (name in attributed or name.startswith("mple.")), name
    (glauber,) = [s[5] for s in tracer.spans if s[0] == "sampler.glauber"]
    assert glauber["site_updates"] == sampler.site_updates(8, 40, sampler.default_config())
    assert summary["sampler.site_updates"] * len(commands) == glauber["site_updates"]


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


def process_imports():
    """(module.function, imported name) for every import of ``multiprocessing`` or
    ``concurrent`` in the library; the function is ``<module>`` outside any function."""
    found = set()
    for path in sorted(Path(isingfit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk visits outer functions first, so a node keeps its innermost function
        scope = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found.update((f"{path.stem}.{scope.get(id(node), '<module>')}", name) for name in names
                         if name.split(".")[0] in ("multiprocessing", "concurrent"))
    return sorted(found)


def test_process_machinery_imported_only_by_the_fork_helper():
    # one way to run work on processes: no executor, and multiprocessing loads only
    # where a run forks, so that importing the library loads neither
    assert process_imports() == [("sampler.chain_processes", "multiprocessing"),
                                 ("sampler.run_forked", "multiprocessing")]


def test_private_names_read_across_modules():
    # the exact layer's half split, among others, stays inside its module
    assert sibling_private_reads() == sorted(
        ("diagnostics", name) for name in ["exact._table", "sampler._check_count",
                                           "sampler._exact_indices", "mple._fold", "mple._first"])
