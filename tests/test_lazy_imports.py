"""What loads when: ``import repro`` is light, and each layer loads on first use.

``import repro`` resolves its public names lazily (PEP 562) and loads
no NumPy; reading the catalog and the CLI's ``--help``/``configs`` need
none either.  The two-speed model is closed-form NumPy, so running a
``firstorder`` study must leave SciPy unloaded, and so must a Section-5
(``combined``/``failstop``) study, which runs on the grid kernel; the
numeric solvers (``exact`` backend, renewal error models) import it
when they first run.  Likewise ``repro.reporting`` (and the JSON
encoder in it) loads with the first export, and a whole two-speed batch
with its exports never touches ``numpy.ma`` (a 1-D *integer*
``np.unique`` imports it; the batch's float ``np.unique`` does not), the
warm pool (``multiprocessing``), the service or the simulator.  Checked
in fresh interpreters, since this test process has long since loaded all
of them.  These pins say which modules load, not how long anything takes.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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

# The Section-5 modes solve on the grid kernel: no SciPy, no scalar
# pair solver.
section5 = Experiment.over(
    configs=("hera-xscale",), rhos=(1.01, 3.0), modes=("combined", "failstop"),
    failstop_fractions=(0.5,),
).solve(cache=False)
assert len(section5) == 4
assert scipy_modules() == [], scipy_modules()
assert "repro.failstop.solver" not in sys.modules

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
unwanted = ("multiprocessing", "repro.exec.warm", "repro.service", "socket", "repro.simulation")
assert not [m for m in unwanted if m in sys.modules], [m for m in unwanted if m in sys.modules]
print("ok")
"""

IMPORT_SCRIPT = """
import sys

import repro

def loaded(*names):
    return [m for m in names if m in sys.modules]

heavy = ("numpy", "repro.api", "repro.exec", "repro.service", "repro.schedules",
         "repro.analysis.verbs", "multiprocessing", "socket")
assert loaded(*heavy) == [], loaded(*heavy)
names = repro.configuration_names()
cfg = repro.get_configuration(names[0])
assert cfg.name == "Hera/Intel XScale" and len(names) == 8
assert loaded("numpy") == [], loaded("numpy")
print("ok")
"""

WARM_SCRIPT = """
import sys

import repro.exec.warm

before = set(sys.modules)
from repro.api.backends import get_backend
from repro.api.scenario import Scenario

rows = [Scenario(config=c, rho=r) for c in ("hera-xscale", "atlas-crusoe") for r in (1.5, 3.0)]
sched = [Scenario(config="hera-xscale", rho=r, schedule="geom:0.4,1.5,1") for r in (3.0, 4.0)]
sched.append(Scenario(config="hera-xscale", rho=3.0, mode="combined", failstop_fraction=0.5))
get_backend("firstorder").solve_batch(rows)
get_backend("schedule-grid").solve_batch(sched)
new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert new == [], new
print("ok")
"""


SERVICE_SCRIPT = """
import sys

from repro.api.cache import SolveCache
from repro.service import ServiceApp, ServiceConfig
from repro.service.artifacts import InMemoryArtifactStore
from repro.service.testing import InProcessClient

app = ServiceApp(ServiceConfig(transport="inline"), cache=SolveCache(),
                 artifacts=InMemoryArtifactStore())
client = InProcessClient(app)
before = set(sys.modules)
spec = {"name": "g", "grid": {"configs": ["hera-xscale"],
        "rhos": {"start": 2.6, "stop": 5.0, "count": 5},
        "schedules": [None, "geom:0.4,1.5,1"]},
        "artifacts": ["csv", "json"], "analyses": ["frontier", "crossover", "sensitivity"]}
assert client.wait_job(client.submit(spec)["id"])["state"] == "succeeded"
new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert new == [], new
print("ok")
"""


def _python(*args: str) -> subprocess.CompletedProcess[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _run(script: str) -> None:
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def _packages() -> list[str]:
    return ["repro"] + [
        f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
    ]


def _type_checking_imports(package: str) -> dict[str, str]:
    """name -> relative module of the ``if TYPE_CHECKING:`` imports."""
    init = Path(importlib.import_module(package).__file__)
    found: dict[str, str] = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for imp in node.body:
                assert isinstance(imp, ast.ImportFrom), ast.dump(imp)
                for alias in imp.names:
                    found[alias.asname or alias.name] = "." * imp.level + (imp.module or "")
    return found


def test_scipy_is_imported_on_first_use():
    _run(SCRIPT)


def test_paper_grid_batch_and_exports_leave_numpy_ma_unloaded():
    _run(BATCH_SCRIPT)


def test_import_repro_and_the_catalog_load_no_numpy():
    _run(IMPORT_SCRIPT)


@pytest.mark.parametrize("command", ["--help", "configs"])
def test_cli_help_and_configs_load_no_numpy(command):
    out = _python("-X", "importtime", "-m", "repro", command)
    assert out.returncode == 0, out.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()]
    assert "repro.platforms.catalog" in imported
    assert not [m for m in imported if m == "numpy" or m.startswith("numpy.")]


def test_warm_pool_parent_holds_every_solver_import():
    """Workers fork from a parent that already imported the solve path,
    so neither the first workers nor their recycled successors import
    any of it per shard."""
    _run(WARM_SCRIPT)


def test_service_job_pays_no_import():
    """The job path's lazy imports load with the service, not per job."""
    _run(SERVICE_SCRIPT)


@pytest.mark.parametrize("package", _packages())
def test_public_names_come_from_one_table(package):
    mod = importlib.import_module(package)
    table = mod._EXPORTS
    extra = ["__version__"] if package == "repro" else []
    assert dir(mod) == sorted([*extra, *table])
    assert list(mod.__all__) == [*extra, *table]
    namespace: dict[str, object] = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == {*extra, *table}
    # The typing view names the same objects from the same modules.
    assert _type_checking_imports(package) == table
    submodules = {m.name for m in pkgutil.iter_modules(mod.__path__)}
    assert not submodules & set(table)
    for name, module in table.items():
        defining = importlib.import_module(module, package)
        assert getattr(mod, name) is getattr(defining, name), name


def test_cli_parser_literals_match_their_registries():
    from repro.cli import AXIS_NAMES, FIGURE_IDS
    from repro.sweep.axes import AXIS_NAMES as REGISTERED_AXES
    from repro.sweep.figures import FIGURES

    assert AXIS_NAMES == REGISTERED_AXES
    assert FIGURE_IDS == tuple(sorted(FIGURES, key=lambda f: int(f[3:])))
