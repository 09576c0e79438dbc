"""The package imports NumPy and the standard library, nothing else.

sympy in particular once took 60% of the import time of
`qsgames.experiments` for three small number-theory calls; the test
fails if any module brings it, or any other third-party package, back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qsgames

SRC = Path(qsgames.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import qsgames
names = sorted(m.name for m in pkgutil.iter_modules(qsgames.__path__))
for name in names:
    importlib.import_module("qsgames." + name)
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps({"modules": names, "sympy": "sympy" in sys.modules,
                  "third_party": sorted(added - set(sys.stdlib_module_names) - {"numpy", "qsgames"})}))
"""


def test_fresh_interpreter_imports_no_third_party_package_but_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    found = json.loads(out.stdout.splitlines()[-1])
    assert {"cli", "experiments", "rng", "schemes", "fiatshamir"} <= set(found["modules"])
    assert not found["sympy"]
    assert found["third_party"] == []
