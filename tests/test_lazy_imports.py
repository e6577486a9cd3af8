"""SciPy loads on first use, not with ``import repro``.

The two-speed model is closed-form NumPy, so importing the package and
running a ``firstorder`` study must leave SciPy unloaded; the numeric
solvers (``exact`` backend, renewal error models) import it when they
first run.  Likewise ``repro.reporting`` (and the JSON encoder in it)
loads with the first export, and a whole two-speed batch with its
exports never touches ``numpy.ma`` (a 1-D *integer* ``np.unique``
imports it; the batch's float ``np.unique`` does not).  Checked in
fresh interpreters, since this test process has long since loaded
all of them.
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


BATCH_SCRIPT = """
import sys
import tempfile
from pathlib import Path

import repro
assert "repro.reporting" not in sys.modules

rhos = tuple(1.3 + i * (3.5 - 1.3) / 39 for i in range(40))
results = repro.Experiment.over(
    configs=tuple(repro.configuration_names()), rhos=rhos, error_rates=(None, 1e-5, 1e-4)
).solve(cache=False)
assert len(results) == 960
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    results.frontier().to_json(out / "frontier.json")
    results.sensitivity().to_json(out / "sensitivity.json")
    results.to_csv(out / "results.csv")
    from repro.reporting.serialize import dump_json

    dump_json(out / "results.json", {"results": results.to_dicts()})
assert "numpy.ma" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy.ma"))
print("ok")
"""


def _run(script: str) -> None:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_scipy_is_imported_on_first_use():
    _run(SCRIPT)


def test_paper_grid_batch_and_exports_leave_numpy_ma_unloaded():
    _run(BATCH_SCRIPT)
