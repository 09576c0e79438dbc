"""Every qsgames name the benchmark harness imports still exists, and
every per-layer metric the benchmark declares still gets a value.

The layer sweep in perfbench/ imports package symbols inside its
functions, and the tracer leaves a metric absent when the calls it
times no longer happen, so a deleted, renamed or bypassed symbol would
only turn metrics absent there; here it fails the suite instead.
"""

import ast
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from qsgames import experiments

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def perfbench_module(name):
    """Load perfbench/<name>.py, which imports nothing else of perfbench."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = perfbench_module("spans")
workloads = perfbench_module("workloads")


def package_imports():
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("qsgames"):
                found += [(path.name, node.lineno, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, node.lineno, alias.name, None)
                          for alias in node.names if alias.name.startswith("qsgames")]
    return found


def test_harness_imports_something():
    assert {module for _, _, module, _ in package_imports()} >= {"qsgames.rng", "qsgames.prf"}


@pytest.mark.parametrize("where, line, module, name", package_imports())
def test_import_resolves(where, line, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"perfbench/{where}:{line} imports {name} from {module}"


def declared_layer_metrics():
    """The per-layer metrics BENCHMARK.json lists that come from the
    traced workload passes, not from the layer sweep or the tracer."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return sorted(m["name"] for m in declared if not m["name"].startswith(("sweep.", "tracing.")))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_workload_gives_every_declared_metric(workload):
    # each entry at 2 trials, traced as perfbench/run.py --trace 1 traces a pass
    tracer = spans.Tracer()
    tracer.install(spans.default_specs())
    start = time.perf_counter()
    try:
        for entry, exp in workloads.resolve(workloads.WORKLOADS[workload], experiments):
            tracer.call(f"experiments.{entry.label}", exp.run, (2, 1, dict(entry.overrides)))
    finally:
        tracer.uninstall()
    values = spans.layer_metrics(tracer, tracer.counts(), time.perf_counter() - start)
    missing = [name for name in declared_layer_metrics() if name not in values]
    assert not missing, f"{workload}: no value for {missing}"
