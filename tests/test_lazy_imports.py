"""SciPy loads on first use, not with ``import repro``.

The two-speed model is closed-form NumPy, so importing the package and
running a ``firstorder`` study must leave SciPy unloaded; the numeric
solvers (``exact`` backend, renewal error models) import it when they
first run.  Checked in a fresh interpreter, since this test process
has long since loaded SciPy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

import repro
from repro.api import Experiment, Scenario
assert scipy_modules() == [], scipy_modules()

results = Experiment.over(
    configs=("hera-xscale", "atlas-crusoe"), rhos=(1.5, 3.0), error_rates=(None, 1e-4)
).solve(cache=False)
assert len(results) == 8
assert scipy_modules() == [], scipy_modules()

exact = Scenario(config="hera-xscale", rho=3.0).solve(backend="exact", cache=False)
weibull = Scenario(
    config="hera-xscale", rho=3.0, errors="weibull:shape=0.7,mtbf=3e5"
).solve(cache=False)
assert exact.feasible and weibull.feasible
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_scipy_is_imported_on_first_use():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
