"""The repo-specific rule catalog (``RPR001`` ... ``RPR007``).

Each rule statically enforces one convention the solver stack's
correctness rests on; the catalog with rationale and examples lives in
``docs/static-analysis.md``.  Rules are deliberately *syntactic* — an
AST pass cannot prove semantic properties, so each one checks the
structural footprint of the convention (a decorator, a guard call, an
annotation) and offers a suppression escape hatch for the rare
legitimate exception.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .diagnostics import Diagnostic
from .engine import LintContext, rule

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _name_of(node: ast.expr) -> str:
    """The dotted name of a Name/Attribute chain (``"np.random.seed"``),
    or ``""`` for anything more exotic (subscripts, calls, ...)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _last_segment(node: ast.expr) -> str:
    """The final identifier of a Name/Attribute chain (``"seed"``)."""
    dotted = _name_of(node)
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _base_names(cls: ast.ClassDef) -> set[str]:
    """Final identifiers of every base class expression."""
    return {_last_segment(b) for b in cls.bases}


def _decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(_last_segment(target))
    return names


def _class_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_attr_assigns(cls: ast.ClassDef) -> dict[str, ast.stmt]:
    """Class-level ``name = value`` / ``name: T = value`` statements."""
    out: dict[str, ast.stmt] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out[stmt.target.id] = stmt
    return out


def _is_abstract_class(cls: ast.ClassDef) -> bool:
    """Heuristic: declares abstract methods or an ABC metaclass."""
    if cls.name.startswith("_"):
        return True
    for kw in cls.keywords:
        if kw.arg == "metaclass":
            return True
    return any(
        "abstractmethod" in _decorator_names(stmt)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _attr_names_used(node: ast.AST) -> set[str]:
    """Every attribute name accessed anywhere under ``node``."""
    return {
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    }


# ----------------------------------------------------------------------
# RPR001 — registered-policy contract
# ----------------------------------------------------------------------

#: Required method surface per registered-policy base class.
_POLICY_CONTRACTS: dict[str, tuple[str, ...]] = {
    "SpeedSchedule": ("spec", "to_dict", "_from_spec_args", "_from_dict"),
    "ArrivalProcess": ("_params", "_from_spec_kv"),
}


@rule(
    "RPR001",
    "SpeedSchedule/ArrivalProcess subclasses must be registered and round-trip",
    "decorate with @_register_kind, set a unique `kind`, and implement the "
    "spec/dict round-trip constructors",
)
def check_policy_contract(ctx: LintContext) -> Iterator[Diagnostic]:
    """Every concrete schedule/arrival policy must join the spec grammar.

    The solve cache, the CLI spec strings and the JSON payloads all key
    off the registration decorator plus the ``kind`` tag and the
    round-trip constructors; a subclass that forgets any of them
    *works* interactively but silently falls out of
    serialisation/cache identity.  Abstract intermediates (underscore
    names, declared abstract methods) are exempt.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        contract_bases = _base_names(node) & set(_POLICY_CONTRACTS)
        if not contract_bases or _is_abstract_class(node):
            continue
        required: set[str] = set()
        for base in contract_bases:
            required |= set(_POLICY_CONTRACTS[base])
        methods = _class_methods(node)
        attrs = _class_attr_assigns(node)

        if "_register_kind" not in _decorator_names(node):
            yield ctx.diagnostic(
                node,
                "RPR001",
                f"policy class {node.name!r} is not registered in the spec "
                f"grammar (missing @_register_kind)",
                "add the @_register_kind decorator above the class",
            )
        if "kind" not in attrs:
            yield ctx.diagnostic(
                node,
                "RPR001",
                f"policy class {node.name!r} does not declare a `kind` "
                f"spec-prefix",
                'add a class attribute like `kind = "myname"`',
            )
        missing = sorted(required - set(methods))
        if missing:
            yield ctx.diagnostic(
                node,
                "RPR001",
                f"policy class {node.name!r} is missing the round-trip "
                f"method(s): {', '.join(missing)}",
                "implement them so spec strings and JSON payloads round-trip",
            )


# ----------------------------------------------------------------------
# RPR002 — memoryless guard on failstop closed forms
# ----------------------------------------------------------------------


@rule(
    "RPR002",
    "failstop closed forms must guard with require_memoryless",
    "call `errors = require_memoryless(errors, where)` before using the "
    "model, or delegate `errors` to an already-guarded entry point",
)
def check_memoryless_guard(ctx: LintContext) -> Iterator[Diagnostic]:
    """The closed forms in ``repro/failstop`` assume exponential arrivals.

    Any function there that consumes an ``errors`` model's attributes
    without first normalising it through ``require_memoryless`` (or
    handing it to another function that does) would compute the
    paper's memoryless formulas on a Weibull/Gamma/trace model and
    return silently wrong numbers.  The check is structural: reading
    ``errors.<attr>`` obliges the function to either call the guard or
    forward ``errors`` onward.
    """
    if not ctx.in_package_dir("failstop"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        all_args = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if "errors" not in all_args:
            continue
        reads_attrs = any(
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "errors"
            for sub in ast.walk(node)
        )
        if not reads_attrs:
            continue
        guarded = False
        delegated = False
        for call in _calls_in(node):
            if _last_segment(call.func) == "require_memoryless":
                guarded = True
                break
            operands = list(call.args) + [kw.value for kw in call.keywords]
            if any(
                isinstance(op, ast.Name) and op.id == "errors" for op in operands
            ):
                delegated = True
        if not guarded and not delegated:
            yield ctx.diagnostic(
                node,
                "RPR002",
                f"{node.name!r} reads `errors.*` in a failstop closed form "
                f"without a require_memoryless guard",
                "call `errors = require_memoryless(errors, "
                f"'repro.failstop...{node.name}')` first",
            )


# ----------------------------------------------------------------------
# RPR003 — backend capability consistency
# ----------------------------------------------------------------------


@rule(
    "RPR003",
    "SolverBackend capability flags must match the overridden surface",
    "derive `batched` from solve_batch; declare capabilities as boolean "
    "literals and only when the backend actually inspects that field",
)
def check_backend_capabilities(ctx: LintContext) -> Iterator[Diagnostic]:
    """A backend's declared capabilities are routing facts.

    ``ExecutionPlan`` shards work by ``batched`` and route
    scheduled / explicit-error-model scenarios by the two ``handles_*``
    flags, so a flag that disagrees with the class's actual method
    surface silently misroutes whole batches.  Enforced shape:

    * ``batched`` is *derived* (the base property checks whether
      ``solve_batch`` is overridden) — assigning it is always wrong;
    * ``handles_schedules``/``handles_error_models`` must be literal
      ``True``/``False`` (the registry reads them off the class), and a
      ``True`` declaration obliges the class body to actually touch
      ``schedule`` / ``errors`` (``resolved_errors``);
    * every concrete subclass must declare its registry ``name`` and
      accepted ``modes``.

    The rule matches indirect subclasses too — any class whose base
    list names ``SolverBackend`` *or* ends in ``Backend`` (e.g. a tier
    deriving from ``ScheduleGridBackend``) carries the same routing
    contract.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = _base_names(node)
        if "SolverBackend" not in bases and not any(
            b.endswith("Backend") for b in bases
        ):
            continue
        attrs = _class_attr_assigns(node)
        abstract = _is_abstract_class(node)

        if "batched" in attrs:
            yield ctx.diagnostic(
                attrs["batched"],
                "RPR003",
                f"backend {node.name!r} assigns `batched` directly; the flag "
                f"is derived from overriding solve_batch",
                "delete the assignment and override solve_batch instead",
            )

        if not abstract:
            for required in ("name", "modes"):
                if required not in attrs:
                    yield ctx.diagnostic(
                        node,
                        "RPR003",
                        f"backend {node.name!r} does not declare `{required}`",
                        f"set the `{required}` class attribute (registry "
                        f"contract)",
                    )

        used = _attr_names_used(node)
        for flag, needles in (
            ("handles_schedules", {"schedule"}),
            ("handles_error_models", {"errors", "resolved_errors"}),
        ):
            stmt = attrs.get(flag)
            if stmt is None:
                continue
            value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
            literal = isinstance(value, ast.Constant) and isinstance(value.value, bool)
            if not literal:
                yield ctx.diagnostic(
                    stmt,
                    "RPR003",
                    f"backend {node.name!r} sets `{flag}` to a non-literal "
                    f"value; the registry reads it off the class",
                    "assign a literal True/False",
                )
                continue
            if value.value is True and not abstract and not (used & needles):
                yield ctx.diagnostic(
                    stmt,
                    "RPR003",
                    f"backend {node.name!r} declares `{flag} = True` but its "
                    f"body never inspects {'/'.join(sorted(needles))}",
                    "handle the capability in _solve/solve_batch or drop the "
                    "declaration",
                )


# ----------------------------------------------------------------------
# RPR004 — typed exceptions only
# ----------------------------------------------------------------------

_BARE_EXCEPTIONS = ("ValueError", "TypeError")


@rule(
    "RPR004",
    "no bare ValueError/TypeError raises in src/repro",
    "raise a repro.exceptions type (InvalidParameterError subclasses "
    "ValueError; UnsupportedErrorModelError subclasses TypeError)",
)
def check_typed_exceptions(ctx: LintContext) -> Iterator[Diagnostic]:
    """Library errors must be catchable as :class:`repro.exceptions.ReproError`.

    The exception hierarchy multiply-inherits the builtin types, so a
    typed raise keeps every legacy ``except ValueError`` working while
    giving callers one umbrella to catch.  A bare builtin raise opts
    out of that umbrella and out of the pickle support the
    multiprocessing shards rely on.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = _name_of(target)
        if name in _BARE_EXCEPTIONS:
            yield ctx.diagnostic(
                node,
                "RPR004",
                f"bare `raise {name}` in library code",
                f"use a repro.exceptions type (e.g. InvalidParameterError) "
                f"so the error stays under the ReproError umbrella",
            )


# ----------------------------------------------------------------------
# RPR005 — tolerance discipline in kernel modules
# ----------------------------------------------------------------------

#: Module basenames holding numeric kernels / evaluators / solvers.
_KERNEL_BASENAMES = {"evaluator.py", "vectorized.py", "numeric.py", "solver.py"}


def _is_nonintegral_float(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != int(node.value)
    )


@rule(
    "RPR005",
    "no float-literal == comparisons in kernel/evaluator modules",
    "compare against a tolerance (math.isclose / np.isclose / an explicit "
    "epsilon), or restructure so the sentinel is exact (0.0, 1.0, ...)",
)
def check_float_equality(ctx: LintContext) -> Iterator[Diagnostic]:
    """Numeric kernels must not gate logic on inexact float equality.

    ``x == 0.4`` inside an evaluator is a latent heisenbug: the value
    arrives through arithmetic that does not round-trip the literal.
    Integral sentinels (``0.0``, ``1.0``) are exempt — they are exact
    in binary floating point and idiomatic as mode flags.
    """
    if ctx.path.name not in _KERNEL_BASENAMES:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        for operand in operands:
            if _is_nonintegral_float(operand):
                yield ctx.diagnostic(
                    node,
                    "RPR005",
                    f"equality comparison against float literal "
                    f"{operand.value!r} in a kernel module",
                    "use a tolerance comparison instead",
                )
                break


# ----------------------------------------------------------------------
# RPR006 — deterministic identity paths
# ----------------------------------------------------------------------

#: Function names that compute canonical identity / cache keys.
_IDENTITY_FUNCTIONS = {"canonical", "_canonical", "cache_key", "normalized", "spec", "_key"}

#: Dotted-prefix denylist: anything here is nondeterministic state.
_NONDETERMINISTIC_PREFIXES = (
    "time.",
    "uuid.",
    "random.",
    "np.random.",
    "numpy.random.",
    "secrets.",
)
_NONDETERMINISTIC_EXACT = {
    "id",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}


@rule(
    "RPR006",
    "no nondeterministic calls in canonical-identity / cache-key code",
    "identity must be a pure function of the model parameters; move "
    "timing/randomness out of the identity path",
)
def check_identity_determinism(ctx: LintContext) -> Iterator[Diagnostic]:
    """Cache keys must be reproducible across processes and runs.

    The solve cache, the plan deduplicator and the multiprocessing
    shards all assume two equal scenarios produce one key forever; a
    ``time.time()`` / global-RNG / ``id()`` call inside ``canonical``/
    ``cache_key``/``spec`` (or anywhere in ``api/cache.py``) breaks
    replay, resume and cross-request sharing at once.
    """
    whole_file = ctx.path.name == "cache.py"
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not whole_file and node.name not in _IDENTITY_FUNCTIONS:
            continue
        for call in _calls_in(node):
            dotted = _name_of(call.func)
            if not dotted:
                continue
            bad = dotted in _NONDETERMINISTIC_EXACT or any(
                dotted.startswith(p) for p in _NONDETERMINISTIC_PREFIXES
            )
            if bad:
                yield ctx.diagnostic(
                    call,
                    "RPR006",
                    f"nondeterministic call `{dotted}(...)` inside identity "
                    f"code ({node.name})",
                    "derive identity from model parameters only",
                )


# ----------------------------------------------------------------------
# RPR007 — fully annotated defs (local disallow_untyped_defs proxy)
# ----------------------------------------------------------------------

#: Dunders whose return annotation mypy does not insist on.
_RETURN_EXEMPT = {"__init__", "__post_init__", "__init_subclass__", "__new__"}


@rule(
    "RPR007",
    "every function must have complete parameter and return annotations",
    "annotate all parameters and the return type (the mypy "
    "disallow_untyped_defs gate enforces the same contract in CI)",
)
def check_annotations(ctx: LintContext) -> Iterator[Diagnostic]:
    """The local, dependency-free proxy for the strict mypy gate.

    CI runs mypy with ``disallow_untyped_defs``; this rule keeps the
    same contract enforceable in environments without mypy installed
    (and inside this checker's own test fixtures).  ``self``/``cls``
    are exempt, as is the return annotation of ``__init__`` and
    friends.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        missing: list[str] = []
        for i, arg in enumerate(positional):
            if i == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(a.arg for a in args.kwonlyargs if a.annotation is None)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        needs_return = node.returns is None and node.name not in _RETURN_EXEMPT
        if not missing and not needs_return:
            continue
        pieces: list[str] = []
        if missing:
            pieces.append(f"unannotated parameter(s): {', '.join(missing)}")
        if needs_return:
            pieces.append("missing return annotation")
        yield ctx.diagnostic(
            node,
            "RPR007",
            f"function {node.name!r} has {'; '.join(pieces)}",
            "add the missing annotations",
        )
