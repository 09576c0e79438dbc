"""Every qsgames name the benchmark harness imports still exists.

The layer sweep in perfbench/ imports package symbols inside its
functions, so a deleted or renamed symbol would only turn its metrics
absent there; here it fails the suite instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
