"""Fixtures for the transport/crash-recovery suite.

The ``chaos`` test backend is registered for the whole package (an
autouse package-scoped fixture) — in the parent process, before any
worker exists, so every warm pool's workers (forked when a plan first
starts them, under the ``fork`` start method) inherit it in the
registry; it is popped again on package teardown so the registry stays
clean for the rest of the session (the ``repro backends`` CLI tests
pin the listing).  Its behaviour is scripted per scenario through the
``label`` field, which crosses the process boundary with the scenario
itself:

* ``kill:<path>`` — if ``<path>`` exists, delete it and ``SIGKILL``
  the current process (the flag file makes the crash one-shot: a
  retried or re-executed shard finds the file gone and solves
  normally);
* ``poison`` — always raise (a deterministic shard exception);
* ``unpicklable`` — raise an exception that cannot be pickled;
* ``unloadable`` — raise an exception that pickles but cannot be
  unpickled (its ``__init__`` takes more arguments than its ``args``);
* ``sleep:<seconds>`` — delay before solving (completion-order tests);
* anything else — solve like the ``firstorder`` backend.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.api.backends import (
    FirstOrderBackend,
    SolverBackend,
    _REGISTRY,
    register_backend,
)
from repro.api.result import Result
from repro.api.scenario import Scenario
from repro.exceptions import ConvergenceError

CHAOS_BACKEND = "chaos-test-backend"

_first_order = FirstOrderBackend()


class UnpicklableError(RuntimeError):
    """A shard failure that cannot cross a process boundary."""

    def __init__(self) -> None:
        super().__init__("unpicklable shard failure (chaos test backend)")
        self.lock = threading.Lock()


class UnloadableError(RuntimeError):
    """Pickles as ``(cls, args)``, but ``cls(*args)`` is one short."""

    def __init__(self, what: str, why: str) -> None:
        super().__init__(f"{what}: {why}")


class ChaosBackend(SolverBackend):
    """Label-scripted backend for fault injection (see module doc)."""

    name = CHAOS_BACKEND
    modes = frozenset({"silent"})

    def _solve(self, scenario: Scenario) -> Result:
        for part in (scenario.label or "").split(";"):
            if part.startswith("kill:"):
                flag = part[len("kill:") :]
                if os.path.exists(flag):
                    os.remove(flag)
                    os.kill(os.getpid(), signal.SIGKILL)
            elif part.startswith("sleep:"):
                time.sleep(float(part[len("sleep:") :]))
            elif part == "poison":
                raise ConvergenceError("poisoned shard (chaos test backend)")
            elif part == "unpicklable":
                raise UnpicklableError()
            elif part == "unloadable":
                raise UnloadableError("unloadable shard failure", "chaos test backend")
        res = _first_order._solve(scenario)
        return replace(
            res, provenance=replace(res.provenance, backend=self.name)
        )


@pytest.fixture(autouse=True, scope="package")
def _chaos_backend_registered():
    fresh = CHAOS_BACKEND not in _REGISTRY
    if fresh:
        register_backend(ChaosBackend())
    try:
        yield
    finally:
        if fresh:
            _REGISTRY.pop(CHAOS_BACKEND, None)


@pytest.fixture
def chaos_scenarios(hera_xscale):
    """A small grid routed through the chaos backend, all feasible."""

    def make(labels: list[str], rho: float = 3.0) -> list[Scenario]:
        return [
            Scenario(
                config=hera_xscale,
                rho=rho + 0.1 * i,
                backend=CHAOS_BACKEND,
                label=label,
            )
            for i, label in enumerate(labels)
        ]

    return make
