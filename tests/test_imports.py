"""The numpy layer runs without Spark: importing every baseline, the
local SimPush engine, the dataset suite and the sweep harness must not
import pyspark."""
import os
import subprocess
import sys

import repro

CODE = """
import importlib, pkgutil, sys
import repro.baselines
for m in pkgutil.iter_modules(repro.baselines.__path__):
    importlib.import_module("repro.baselines." + m.name)
import repro.core.simpush_local
import repro.graphs.datasets
import repro.eval.harness
print(sorted(k for k in sys.modules if k.split(".")[0] == "pyspark"))
"""


def test_numpy_layer_imports_no_pyspark():
    # A fresh interpreter: this one imported pyspark for the spark fixture.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", CODE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"
