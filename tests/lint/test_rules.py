"""Fixture pins for every repro-lint rule.

Each rule gets (at least) one *true positive* — a minimal snippet that
must trigger it — and one *false positive guard* — the closest
conforming snippet, which must stay clean.  These pins are the rules'
regression contract: a rule edit that widens or narrows matching
behaviour fails here before it flags (or stops flagging) the real tree.
"""

import textwrap
from pathlib import Path

import pytest

from repro._lint import lint_source


def run(source: str, path: str = "src/repro/example.py", select: str | None = None):
    codes = [select] if select else None
    return lint_source(textwrap.dedent(source), Path(path), select=codes)


def codes_of(diags) -> list[str]:
    return [d.code for d in diags]


# ----------------------------------------------------------------------
# RPR000 — syntax errors still produce a diagnostic
# ----------------------------------------------------------------------
class TestSyntaxError:
    def test_unparsable_file_reports_rpr000(self):
        diags = run("def broken(:\n")
        assert codes_of(diags) == ["RPR000"]
        assert "does not parse" in diags[0].message


# ----------------------------------------------------------------------
# RPR001 — registered-policy contract
# ----------------------------------------------------------------------
_POLICY_OK = """
    @_register_kind
    class MySchedule(SpeedSchedule):
        kind = "mine"

        def spec(self) -> str: ...
        def to_dict(self) -> dict: ...
        @classmethod
        def _from_spec_args(cls, args): ...
        @classmethod
        def _from_dict(cls, payload): ...
"""

_POLICY_UNREGISTERED = """
    class MySchedule(SpeedSchedule):
        kind = "mine"

        def spec(self) -> str: ...
        def to_dict(self) -> dict: ...
        @classmethod
        def _from_spec_args(cls, args): ...
        @classmethod
        def _from_dict(cls, payload): ...
"""

_POLICY_MISSING_METHODS = """
    @_register_kind
    class MyArrivals(ArrivalProcess):
        kind = "mine"

        def _params(self): ...
"""

_POLICY_ABSTRACT = """
    class RampBase(SpeedSchedule):
        @abc.abstractmethod
        def ramp(self) -> float: ...
"""


class TestPolicyContract:
    def test_conforming_subclass_is_clean(self):
        assert run(_POLICY_OK, select="RPR001") == []

    def test_unregistered_subclass_flagged(self):
        diags = run(_POLICY_UNREGISTERED, select="RPR001")
        assert codes_of(diags) == ["RPR001"]
        assert "_register_kind" in diags[0].message

    def test_missing_round_trip_methods_flagged(self):
        diags = run(_POLICY_MISSING_METHODS, select="RPR001")
        assert codes_of(diags) == ["RPR001"]
        assert "_from_spec_kv" in diags[0].message

    def test_missing_kind_flagged(self):
        source = _POLICY_OK.replace('kind = "mine"\n', "")
        diags = run(source, select="RPR001")
        assert any("kind" in d.message for d in diags)

    def test_abstract_intermediate_exempt(self):
        assert run(_POLICY_ABSTRACT, select="RPR001") == []

    def test_unrelated_class_exempt(self):
        assert run("class Point:\n    pass\n", select="RPR001") == []


# ----------------------------------------------------------------------
# RPR002 — memoryless guard in failstop modules
# ----------------------------------------------------------------------
_FAILSTOP_PATH = "src/repro/failstop/closed.py"

_GUARD_MISSING = """
    def expected_time(cfg, errors, work):
        return errors.total_rate * work
"""

_GUARD_PRESENT = """
    def expected_time(cfg, errors, work):
        errors = require_memoryless(errors, "repro.failstop.closed.expected_time")
        return errors.total_rate * work
"""

_GUARD_DELEGATED = """
    def time_overhead(cfg, errors, work):
        return expected_time(cfg, errors, work) / errors.total_rate
"""


class TestMemorylessGuard:
    def test_unguarded_attribute_read_flagged(self):
        diags = run(_GUARD_MISSING, path=_FAILSTOP_PATH, select="RPR002")
        assert codes_of(diags) == ["RPR002"]
        assert "require_memoryless" in diags[0].message

    def test_guarded_function_clean(self):
        assert run(_GUARD_PRESENT, path=_FAILSTOP_PATH, select="RPR002") == []

    def test_delegation_counts_as_guarded(self):
        assert run(_GUARD_DELEGATED, path=_FAILSTOP_PATH, select="RPR002") == []

    def test_rule_scoped_to_failstop_package(self):
        assert run(_GUARD_MISSING, path="src/repro/core/closed.py", select="RPR002") == []


# ----------------------------------------------------------------------
# RPR003 — backend capability flags
# ----------------------------------------------------------------------
_BACKEND_OK = """
    class MyBackend(SolverBackend):
        name = "mine"
        modes = ("silent",)
        handles_schedules = True

        def _solve(self, scenario):
            return solve(scenario.schedule)
"""

_BACKEND_ASSIGNS_BATCHED = """
    class MyBackend(SolverBackend):
        name = "mine"
        modes = ("silent",)
        batched = True

        def _solve(self, scenario):
            return solve(scenario)
"""

_BACKEND_FALSE_CAPABILITY = """
    class MyBackend(SolverBackend):
        name = "mine"
        modes = ("silent",)
        handles_error_models = True

        def _solve(self, scenario):
            return solve(scenario.rho)
"""

_BACKEND_NON_LITERAL = """
    class MyBackend(SolverBackend):
        name = "mine"
        modes = ("silent",)
        handles_schedules = compute_flag()

        def _solve(self, scenario):
            return solve(scenario.schedule)
"""

_BACKEND_MISSING_NAME = """
    class MyBackend(SolverBackend):
        modes = ("silent",)

        def _solve(self, scenario):
            return solve(scenario)
"""

_BACKEND_INDIRECT_SUBCLASS_OK = """
    class GridTierBackend(ScheduleGridBackend):
        name = "mine-grid"
        modes = ("silent",)

        def _solve(self, scenario):
            return solve(scenario)
"""

_BACKEND_INDIRECT_ASSIGNS_BATCHED = """
    class GridTierBackend(ScheduleGridBackend):
        name = "mine-grid"
        modes = ("silent",)
        batched = True

        def _solve(self, scenario):
            return solve(scenario)
"""


class TestBackendCapabilities:
    def test_conforming_backend_clean(self):
        assert run(_BACKEND_OK, select="RPR003") == []

    def test_direct_batched_assignment_flagged(self):
        diags = run(_BACKEND_ASSIGNS_BATCHED, select="RPR003")
        assert codes_of(diags) == ["RPR003"]
        assert "solve_batch" in diags[0].message

    def test_capability_without_usage_flagged(self):
        diags = run(_BACKEND_FALSE_CAPABILITY, select="RPR003")
        assert codes_of(diags) == ["RPR003"]
        assert "handles_error_models" in diags[0].message

    def test_non_literal_capability_flagged(self):
        diags = run(_BACKEND_NON_LITERAL, select="RPR003")
        assert codes_of(diags) == ["RPR003"]
        assert "non-literal" in diags[0].message

    def test_missing_registry_name_flagged(self):
        diags = run(_BACKEND_MISSING_NAME, select="RPR003")
        assert codes_of(diags) == ["RPR003"]
        assert "`name`" in diags[0].message

    def test_indirect_backend_subclass_clean(self):
        assert run(_BACKEND_INDIRECT_SUBCLASS_OK, select="RPR003") == []

    def test_indirect_backend_subclass_batched_flagged(self):
        diags = run(_BACKEND_INDIRECT_ASSIGNS_BATCHED, select="RPR003")
        assert codes_of(diags) == ["RPR003"]
        assert "solve_batch" in diags[0].message


# ----------------------------------------------------------------------
# RPR004 — typed exceptions
# ----------------------------------------------------------------------
class TestTypedExceptions:
    @pytest.mark.parametrize("builtin", ["ValueError", "TypeError"])
    def test_bare_builtin_raise_flagged(self, builtin):
        diags = run(f"def f(x):\n    raise {builtin}('bad')\n", select="RPR004")
        assert codes_of(diags) == ["RPR004"]

    def test_typed_raise_clean(self):
        source = "def f(x):\n    raise InvalidParameterError('bad')\n"
        assert run(source, select="RPR004") == []

    def test_re_raise_clean(self):
        source = "def f(x):\n    try:\n        g()\n    except ValueError:\n        raise\n"
        assert run(source, select="RPR004") == []


# ----------------------------------------------------------------------
# RPR005 — float equality in kernel modules
# ----------------------------------------------------------------------
_KERNEL_PATH = "src/repro/schedules/evaluator.py"


class TestFloatEquality:
    def test_nonintegral_literal_equality_flagged(self):
        diags = run("def f(x):\n    return x == 0.4\n", path=_KERNEL_PATH, select="RPR005")
        assert codes_of(diags) == ["RPR005"]

    def test_integral_sentinels_exempt(self):
        source = "def f(x):\n    return x == 0.0 or x == 1.0\n"
        assert run(source, path=_KERNEL_PATH, select="RPR005") == []

    def test_tolerance_comparison_clean(self):
        source = "def f(x):\n    return math.isclose(x, 0.4)\n"
        assert run(source, path=_KERNEL_PATH, select="RPR005") == []

    def test_rule_scoped_to_kernel_basenames(self):
        source = "def f(x):\n    return x == 0.4\n"
        assert run(source, path="src/repro/reporting/tables.py", select="RPR005") == []


# ----------------------------------------------------------------------
# RPR006 — deterministic identity paths
# ----------------------------------------------------------------------
class TestIdentityDeterminism:
    def test_time_call_in_cache_key_flagged(self):
        source = "def cache_key(self):\n    return (self.rho, time.time())\n"
        diags = run(source, select="RPR006")
        assert codes_of(diags) == ["RPR006"]
        assert "time.time" in diags[0].message

    def test_id_call_in_canonical_flagged(self):
        source = "def canonical(self):\n    return id(self)\n"
        diags = run(source, select="RPR006")
        assert codes_of(diags) == ["RPR006"]

    def test_id_call_in_canonical_builder_flagged(self):
        # canonical() memoises what _canonical() builds.
        source = "def _canonical(self):\n    return (self.kind, id(self))\n"
        diags = run(source, select="RPR006")
        assert codes_of(diags) == ["RPR006"]

    def test_pure_identity_clean(self):
        source = "def cache_key(self):\n    return (self.kind, self.rho)\n"
        assert run(source, select="RPR006") == []

    def test_cache_module_checked_whole_file(self):
        source = "def evict(self):\n    self.stamp = time.monotonic()\n"
        diags = run(source, path="src/repro/api/cache.py", select="RPR006")
        assert codes_of(diags) == ["RPR006"]

    def test_non_identity_function_elsewhere_clean(self):
        source = "def bench(self):\n    return time.monotonic()\n"
        assert run(source, path="src/repro/api/study.py", select="RPR006") == []


# ----------------------------------------------------------------------
# RPR007 — complete annotations
# ----------------------------------------------------------------------
class TestAnnotations:
    def test_unannotated_parameter_flagged(self):
        diags = run("def f(x) -> int:\n    return x\n", select="RPR007")
        assert codes_of(diags) == ["RPR007"]
        assert "x" in diags[0].message

    def test_missing_return_flagged(self):
        diags = run("def f(x: int):\n    return x\n", select="RPR007")
        assert codes_of(diags) == ["RPR007"]
        assert "return" in diags[0].message

    def test_fully_annotated_clean(self):
        assert run("def f(x: int) -> int:\n    return x\n", select="RPR007") == []

    def test_self_and_cls_exempt(self):
        source = (
            "class C:\n"
            "    def m(self, x: int) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def n(cls) -> int:\n"
            "        return 1\n"
        )
        assert run(source, select="RPR007") == []

    def test_init_return_exempt(self):
        source = "class C:\n    def __init__(self, x: int):\n        self.x = x\n"
        assert run(source, select="RPR007") == []

    def test_star_args_need_annotations(self):
        diags = run("def f(*args, **kwargs) -> None:\n    pass\n", select="RPR007")
        assert codes_of(diags) == ["RPR007"]
        assert "*args" in diags[0].message and "**kwargs" in diags[0].message


# ----------------------------------------------------------------------
# Cross-cutting engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_select_filters_other_rules(self):
        source = "def f(x):\n    raise ValueError('bad')\n"
        assert codes_of(run(source, select="RPR004")) == ["RPR004"]
        assert codes_of(run(source, select="RPR007")) == ["RPR007"]
        both = run(source)
        assert set(codes_of(both)) == {"RPR004", "RPR007"}

    def test_diagnostics_sorted_and_renderable(self):
        source = "def g(y):\n    raise TypeError('x')\n\ndef f(x):\n    raise ValueError('x')\n"
        diags = run(source)
        assert diags == sorted(diags)
        rendered = diags[0].render()
        assert "RPR" in rendered and ":" in rendered

    def test_rule_catalog_complete(self):
        from repro._lint import all_rules

        assert [r.code for r in all_rules()] == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
        ]
        for r in all_rules():
            assert r.summary and r.fixit
