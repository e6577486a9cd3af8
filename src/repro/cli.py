"""Command-line interface: ``python -m repro <command>``.

The solving commands are wired through the unified :mod:`repro.api`
(``Scenario``/``Experiment`` + the backend registry); ``--backend`` flags
select a registered solver backend where more than one applies.

Commands
--------
``configs``
    List the eight catalog configurations.
``backends``
    List the registered solver backends.
``schedules``
    List the re-execution speed-schedule policies and their spec
    grammar.
``errors``
    List the pluggable error-model families (renewal arrival
    processes) and their spec grammar.
``solve``
    Solve one scenario, optionally under a per-attempt speed schedule
    (``repro solve --config hera-xscale --rho 3 --schedule geom:0.4,1.5,1``);
    repeating ``--schedule`` sweeps a whole schedule axis in one
    batched ``schedule-grid`` solve (``--csv`` exports every row).
    ``--errors weibull:shape=0.7,mtbf=5e3,failstop=0.2`` solves under
    a non-exponential renewal error model (speed pairs are enumerated
    through the batched ``schedule-grid`` backend when no schedule is
    given).
``table``
    Regenerate a Section-4.2 speed-pair table
    (``repro table --config hera-xscale --rho 3``).
``sweep``
    Run one parameter sweep and print/export the series
    (``repro sweep --config atlas-crusoe --axis C --csv out.csv``).
``figure``
    Run every panel of one paper figure
    (``repro figure fig2``).
``validate``
    Monte-Carlo vs model agreement check
    (``repro validate --config hera-xscale --work 2764 --sigma1 0.4``).
``theorem2``
    Demonstrate the Theta(lambda^{-2/3}) scaling of Theorem 2.
``frontier`` (alias ``pareto``)
    Trace the energy-vs-time Pareto frontier, its winning speed pairs
    and its knee, for any schedule x error-model scenario: one
    deduplicated Experiment plan over the batched backends, with
    CSV/JSON export
    (``repro frontier --errors weibull:shape=0.7,mtbf=3e5 --schedule
    geom:0.4,1.5,1``).
``savings``
    Energy savings over the baseline along a sweep axis — two-speed vs
    one-speed, or (with ``--errors``) pair enumeration vs the best
    constant-speed schedule under a renewal error model.
``fraction``
    Sweep the fail-stop fraction f of the Section-5 combined model.
``multiverif``
    Optimise the number of verifications per checkpoint (extension).
``trace``
    Simulate a short application run and render a Figure-1 timeline.
``report``
    Regenerate the headline reproduction report (Markdown).
``pool``
    The process-wide warm-worker execution pool behind
    ``transport="warm"`` (:mod:`repro.exec`): ``repro pool status``
    reports workers, health and lifetime counters (``--start`` spawns
    the fleet first); ``repro pool stop`` shuts it down.
``cache``
    The process-wide solve cache (:mod:`repro.api.cache`):
    ``repro cache stats`` prints size, totals and the per-backend
    hit/miss breakdown; ``repro cache clear`` resets it.
``serve``
    The solver-as-a-service HTTP job API (:mod:`repro.service`):
    ``repro serve --port 8337`` boots the async job layer — JSON
    experiment specs in, SSE progress and CSV/JSON artifacts out —
    over the warm worker pool and the shared solve cache
    (docs/service.md).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

# The parser is built from light modules only: each handler imports
# what its command needs, so ``--help`` and ``configs`` load no NumPy.
from . import __version__
from .exceptions import (
    InfeasibleBoundError,
    InvalidParameterError,
    UnknownBackendError,
    UnsupportedScenarioError,
)
from .platforms.catalog import configuration_names, get_configuration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api.result import ResultSet

__all__ = ["main", "build_parser"]

#: ``repro.sweep.axes.AXIS_NAMES`` and the ids of ``repro.sweep.figures.FIGURES``
#: (pinned equal by the CLI tests), spelled out so the parser needs neither.
AXIS_NAMES = ("C", "V", "lambda", "rho", "Pidle", "Pio")
FIGURE_IDS = tuple(f"fig{i}" for i in range(2, 15))


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A different re-execution speed can help' (ICPP 2016).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("configs", help="list catalog configurations")

    sub.add_parser("backends", help="list registered solver backends")

    sub.add_parser("schedules", help="list speed-schedule policies and spec grammar")

    sub.add_parser("errors", help="list error-model families and spec grammar")

    p_solve = sub.add_parser(
        "solve", help="solve one scenario (optionally with a speed schedule)"
    )
    p_solve.add_argument("--config", default="hera-xscale", help="configuration name")
    p_solve.add_argument("--rho", type=float, default=3.0, help="performance bound")
    p_solve.add_argument(
        "--mode", choices=("silent", "combined", "failstop"), default="silent"
    )
    p_solve.add_argument("--failstop-fraction", type=float, default=None)
    p_solve.add_argument("--rate", type=float, default=None, help="override error rate")
    p_solve.add_argument(
        "--schedule", action="append", default=None, metavar="SPEC",
        help="per-attempt speed schedule spec, e.g. two:0.4,0.6 or geom:0.4,1.5,1 "
             "(see 'repro schedules'); omit to enumerate speed pairs; repeat the "
             "flag to sweep a schedule axis in one batched solve "
             "(general schedules go through the vectorised schedule-grid backend)",
    )
    p_solve.add_argument(
        "--errors", default=None, metavar="SPEC",
        help="explicit error model spec, e.g. weibull:shape=0.7,mtbf=5e3,failstop=0.2 "
             "(see 'repro errors'); carries its own rate/split, so it conflicts "
             "with --mode/--failstop-fraction/--rate",
    )
    p_solve.add_argument("--backend", default=None, help="solver backend override")
    p_solve.add_argument(
        "--analyze", choices=("frontier", "savings"), default=None,
        help="run an analysis verb on the solved scenario(s): 'savings' compares "
             "against the schedule-less pair enumeration of the same scenario, "
             "'frontier' reads the energy-vs-time trade-off off a --schedule axis",
    )
    p_solve.add_argument("--csv", default=None, help="also write a one-row results CSV")
    p_solve.add_argument(
        "--simulate", type=int, default=0, metavar="N",
        help="Monte-Carlo cross-check the solution with N samples",
    )
    p_solve.add_argument("--seed", type=int, default=12345, help="simulation seed")

    p_table = sub.add_parser("table", help="Section-4.2 speed-pair table")
    p_table.add_argument("--config", default="hera-xscale", help="configuration name")
    p_table.add_argument("--rho", type=float, default=3.0, help="performance bound")
    p_table.add_argument("--csv", default=None, help="also write CSV to this path")

    p_sweep = sub.add_parser("sweep", help="parameter sweep (one figure panel)")
    p_sweep.add_argument("--config", default="atlas-crusoe")
    p_sweep.add_argument("--axis", choices=AXIS_NAMES, default="C")
    p_sweep.add_argument("--rho", type=float, default=3.0)
    p_sweep.add_argument("--points", type=int, default=None, help="axis resolution")
    p_sweep.add_argument("--csv", default=None, help="also write CSV to this path")

    p_fig = sub.add_parser("figure", help="run all panels of one paper figure")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--rho", type=float, default=3.0)
    p_fig.add_argument("--points", type=int, default=None)
    p_fig.add_argument("--csv-dir", default=None, help="write one CSV per panel here")

    p_val = sub.add_parser("validate", help="Monte-Carlo vs model agreement")
    p_val.add_argument("--config", default="hera-xscale")
    p_val.add_argument("--work", type=float, default=2764.0)
    p_val.add_argument("--sigma1", type=float, default=0.4)
    p_val.add_argument("--sigma2", type=float, default=None)
    p_val.add_argument(
        "--schedule", default=None, metavar="SPEC",
        help="per-attempt speed schedule spec (overrides --sigma1/--sigma2)",
    )
    p_val.add_argument("--failstop-fraction", type=float, default=0.0)
    p_val.add_argument(
        "--errors", default=None, metavar="SPEC",
        help="explicit error model spec (e.g. gamma:shape=2,mtbf=5e3); "
             "overrides --failstop-fraction",
    )
    p_val.add_argument("--samples", type=int, default=20000)
    p_val.add_argument("--seed", type=int, default=12345)

    p_t2 = sub.add_parser("theorem2", help="Theta(lambda^-2/3) scaling demo")
    p_t2.add_argument("--checkpoint", type=float, default=300.0, help="C (s)")
    p_t2.add_argument("--sigma", type=float, default=0.5, help="first speed")
    p_t2.add_argument("--points", type=int, default=7)

    p_fr = sub.add_parser(
        "frontier",
        aliases=["pareto"],
        help="energy-vs-time Pareto frontier through the Experiment pipeline "
             "(any schedule x error-model scenario, batched backends)",
    )
    # Dispatch an alias under its canonical name (the subparser's
    # defaults overwrite the name argparse stores for the alias).
    p_fr.set_defaults(command="frontier")
    p_fr.add_argument("--config", default="hera-xscale")
    p_fr.add_argument("--rho-min", type=float, default=None,
                      help="tightest bound (default: the feasibility edge)")
    p_fr.add_argument("--rho-max", type=float, default=10.0)
    p_fr.add_argument("--points", type=int, default=60)
    p_fr.add_argument(
        "--schedule", default=None, metavar="SPEC",
        help="trace the frontier under this per-attempt speed schedule",
    )
    p_fr.add_argument(
        "--errors", default=None, metavar="SPEC",
        help="trace the frontier under this renewal error model "
             "(e.g. weibull:shape=0.7,mtbf=3e5)",
    )
    p_fr.add_argument("--backend", default=None, help="force one solver backend")
    p_fr.add_argument("--explain", action="store_true",
                      help="print the deduplicated execution plan first")
    p_fr.add_argument("--csv", default=None, help="export the frontier as CSV")
    p_fr.add_argument("--json", default=None, help="export the frontier as JSON")

    p_sav = sub.add_parser(
        "savings",
        help="energy savings over the baseline along a sweep axis "
             "(two-speed vs one-speed; with --errors: pair enumeration "
             "vs the best constant-speed schedule)",
    )
    p_sav.add_argument("--config", default="atlas-crusoe")
    p_sav.add_argument("--axis", choices=AXIS_NAMES, default="C")
    p_sav.add_argument("--rho", type=float, default=3.0)
    p_sav.add_argument("--points", type=int, default=None, help="axis resolution")
    p_sav.add_argument(
        "--errors", default=None, metavar="SPEC",
        help="compute the savings under this error model (baseline becomes "
             "the best constant-speed schedule per point)",
    )
    p_sav.add_argument("--backend", default=None, help="force one solver backend")
    p_sav.add_argument("--csv", default=None, help="export the per-point savings CSV")
    p_sav.add_argument("--json", default=None, help="export the savings as JSON")

    p_frac = sub.add_parser("fraction", help="fail-stop fraction sweep (Section 5)")
    p_frac.add_argument("--config", default="hera-xscale")
    p_frac.add_argument("--rho", type=float, default=3.0)
    p_frac.add_argument("--rate", type=float, default=None, help="total error rate")
    p_frac.add_argument("--points", type=int, default=11)
    p_frac.add_argument(
        "--processes", type=int, default=None,
        help="fan the numeric solves out over this many worker processes",
    )

    p_mv = sub.add_parser("multiverif", help="optimise verifications per checkpoint")
    p_mv.add_argument("--config", default="hera-xscale")
    p_mv.add_argument("--rho", type=float, default=3.0)
    p_mv.add_argument("--max-q", type=int, default=6)
    p_mv.add_argument("--recall", type=float, default=1.0)
    p_mv.add_argument("--rate", type=float, default=None, help="override error rate")

    p_tr = sub.add_parser("trace", help="Figure-1 timeline of a simulated run")
    p_tr.add_argument("--config", default="hera-xscale")
    p_tr.add_argument("--rate", type=float, default=2e-4, help="error rate (amplified default for visibility)")
    p_tr.add_argument("--failstop-fraction", type=float, default=0.0)
    p_tr.add_argument("--patterns", type=int, default=4)
    p_tr.add_argument("--sigma1", type=float, default=0.4)
    p_tr.add_argument("--sigma2", type=float, default=0.8)
    p_tr.add_argument("--seed", type=int, default=20160601)
    p_tr.add_argument("--width", type=int, default=100)

    p_rep = sub.add_parser("report", help="regenerate the reproduction report")
    p_rep.add_argument("--out", default=None, help="write Markdown here (default stdout)")
    p_rep.add_argument("--montecarlo-samples", type=int, default=0,
                       help="add a simulation-agreement section with this many samples")

    p_pool = sub.add_parser(
        "pool", help="inspect/control the warm-worker execution pool"
    )
    pool_sub = p_pool.add_subparsers(dest="pool_command", required=True)
    pp_status = pool_sub.add_parser(
        "status",
        help="show the process-wide warm pool (workers, health, counters)",
    )
    pp_status.add_argument(
        "--start", action="store_true",
        help="start the pool's workers before reporting",
    )
    pp_status.add_argument(
        "--workers", type=int, default=None,
        help="fleet size when --start creates the pool (default: CPU-capped)",
    )
    pool_sub.add_parser(
        "stop", help="shut the default warm pool's workers down"
    )

    p_cache = sub.add_parser(
        "cache", help="inspect/reset the process-wide solve cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry count, totals, and per-backend hit/miss breakdown",
    )
    cache_sub.add_parser("clear", help="drop all entries and counters")

    p_serve = sub.add_parser(
        "serve", help="run the solver-as-a-service HTTP job API (docs/service.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8337, help="bind port")
    p_serve.add_argument(
        "--transport", default="warm", choices=("warm", "inline"),
        help="where solve shards execute (default: the warm worker pool)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="worker processes in the warm pool (default: auto)",
    )
    p_serve.add_argument(
        "--job-workers", type=int, default=2,
        help="concurrent job executor threads (default: 2)",
    )
    p_serve.add_argument(
        "--token", action="append", default=None, metavar="TOKEN",
        help="accepted bearer token (repeatable; default: REPRO_SERVICE_TOKENS "
        "env, or open access)",
    )
    p_serve.add_argument(
        "--artifact-dir", default=None,
        help="directory for job artifacts (default: REPRO_SERVICE_ARTIFACT_DIR "
        "env, or in-memory)",
    )
    p_serve.add_argument(
        "--max-points", type=int, default=None,
        help="per-job scenario cap (default: 200000)",
    )
    p_serve.add_argument(
        "--json-logs", action="store_true",
        help="emit structured JSON log lines on stderr",
    )

    p_lint = sub.add_parser(
        "lint", help="run the repo-specific static checks (docs/static-analysis.md)"
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories (default: src/repro, benchmarks/harness)")
    p_lint.add_argument("--select", default=None, help="comma-separated rule codes")
    p_lint.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    p_lint.add_argument("--all", action="store_true",
                        help="also run ruff + mypy when installed")

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: delegate to the repro._lint CLI verbatim."""
    from ._lint.cli import main as lint_main

    argv: list[str] = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv.append("--list-rules")
    if args.all:
        argv.append("--all")
    return lint_main(argv)


def _cmd_configs(_: argparse.Namespace) -> int:
    for name in configuration_names():
        cfg = get_configuration(name)
        print(
            f"{name:22s} lambda={cfg.lam:.3g}  C={cfg.checkpoint_time:g}s  "
            f"V={cfg.verification_time:g}s  speeds={cfg.speeds}"
        )
    return 0


def _cmd_backends(_: argparse.Namespace) -> int:
    from .api.backends import available_backends, get_backend

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    print(
        f"{'backend':26s} {'modes':29s} {'schedules':>9s} "
        f"{'errors':>7s} {'batched':>8s}"
    )
    for name in available_backends():
        backend = get_backend(name)
        if backend.name != name:
            print(f"{name:26s} alias of {backend.name}")
            continue
        modes = ", ".join(sorted(backend.modes))
        print(
            f"{name:26s} {modes:29s} {yn(backend.handles_schedules):>9s} "
            f"{yn(backend.handles_error_models):>7s} {yn(backend.batched):>8s}"
        )
    print()
    print("batched backends solve whole Experiment groups in one")
    print("broadcast pass.  Unless --backend forces one, schedule-less")
    print("silent/single-speed scenarios without --errors solve on")
    print("firstorder and every other scenario on schedule-grid.")
    return 0


def _cmd_schedules(_: argparse.Namespace) -> int:
    from .schedules.base import schedule_kinds

    print("re-execution speed-schedule policies (spec grammar: kind:args)")
    print()
    examples = {
        "two": "two:0.4,0.6",
        "const": "const:0.5",
        "esc": "esc:0.4,0.6,0.8  or  esc:0.4,0.6@0.8",
        "geom": "geom:0.4,1.5,1  or  geom:0.8,0.5,1,0.2",
    }
    for kind, cls in schedule_kinds().items():
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{kind:8s} {cls.__name__:12s} {summary}")
        print(f"{'':8s} e.g. {examples.get(kind, '')}")
    print()
    print("use with: repro solve --schedule SPEC, repro validate --schedule SPEC,")
    print("or Scenario(schedule=...) from Python (see docs/schedules.md)")
    return 0


def _cmd_errors(_: argparse.Namespace) -> int:
    from .errors.models import error_model_kinds

    print("pluggable error-model families (spec grammar: kind:key=value,...)")
    print()
    examples = {
        "exp": "exp:mtbf=1e4  or  exp:rate=1e-4,failstop=0.2",
        "weibull": "weibull:shape=0.7,mtbf=5e3,failstop=0.2",
        "gamma": "gamma:shape=2,mtbf=5e3",
        "trace": "trace:file=failures.log  or  trace:times=900;4e3;1.2e4",
    }
    for kind, cls in error_model_kinds().items():
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{kind:8s} {cls.__name__:20s} {summary}")
        print(f"{'':8s} e.g. {examples.get(kind, '')}")
    print()
    print("failstop=f splits the total process into fail-stop/silent sources;")
    print("each attempt draws a fresh inter-arrival (renewal semantics).")
    print("exp models keep the closed-form fast paths; other families route")
    print("through the schedule backends (see docs/errors.md).")
    print()
    print("use with: repro solve --errors SPEC, repro validate --errors SPEC,")
    print("or Scenario(errors=...) from Python")
    return 0


def _solve_schedule_axis(args: argparse.Namespace, specs: list[str]) -> int:
    """Several ``--schedule`` flags: one batched solve over the axis."""
    from .api.experiment import Experiment
    from .api.scenario import Scenario
    from .schedules.base import parse_schedule

    try:
        scenarios = tuple(
            Scenario(
                config=args.config,
                rho=args.rho,
                mode=args.mode,
                failstop_fraction=args.failstop_fraction,
                error_rate=args.rate,
                schedule=parse_schedule(spec),
                errors=args.errors,
                backend=args.backend,
            )
            for spec in specs
        )
    except InvalidParameterError as exc:
        print(f"invalid scenario: {exc}")
        return 1
    try:
        results = Experiment.from_scenarios(scenarios, name="schedule-axis").solve()
    except (UnknownBackendError, UnsupportedScenarioError) as exc:
        print(f"bad backend routing: {exc}")
        return 1
    print(f"schedule axis   : {len(results)} policies  "
          f"(config {args.config}, rho {args.rho:g}, mode {args.mode})")
    print(f"{'schedule':24s} {'backend':14s} {'W':>9s} {'E/W':>9s} {'T/W':>8s}")
    for res in results:
        spec = res.scenario.schedule.spec()
        if res.feasible:
            print(f"{spec:24s} {res.provenance.backend:14s} "
                  f"{res.best.work:>9.0f} {res.best.energy_overhead:>9.2f} "
                  f"{res.best.time_overhead:>8.4f}")
        else:
            bound = f"rho_min={res.rho_min:.3f}" if res.rho_min else "infeasible"
            print(f"{spec:24s} {res.provenance.backend:14s} {bound:>28s}")
    feasible = [r for r in results if r.feasible]
    if feasible:
        best = min(feasible, key=lambda r: r.best.energy_overhead)
        print(f"best            : {best.scenario.schedule.spec()}  "
              f"E/W = {best.best.energy_overhead:.2f} mJ/work")
    if args.analyze == "frontier" and feasible:
        frontier = results.frontier()
        knee = frontier.knee()
        print(f"frontier        : {len(frontier)} non-dominated of "
              f"{len(feasible)} feasible policies; knee at "
              f"{knee.result.scenario.schedule.spec()} "
              f"(T/W = {knee.x:.4f}, E/W = {knee.y:.2f})")
    elif args.analyze == "savings":
        _print_schedule_savings(args, results)
    if args.simulate > 0:
        print("(--simulate applies to single-schedule solves; skipped)")
    if args.csv:
        path = results.to_csv(args.csv)
        print(f"wrote {path}")
    return 0 if feasible else 1


def _print_schedule_savings(args: argparse.Namespace, results: "ResultSet") -> None:
    """``solve --analyze savings``: each scheduled row vs the
    schedule-less pair enumeration of the same scenario."""
    from .api.result import ResultSet
    from .api.scenario import Scenario

    try:
        baseline = Scenario(
            config=args.config,
            rho=args.rho,
            mode=args.mode,
            failstop_fraction=args.failstop_fraction,
            error_rate=args.rate,
            errors=args.errors,
        ).solve()
    except InfeasibleBoundError:
        print("savings         : baseline pair enumeration infeasible")
        return
    base_set = ResultSet(results=(baseline,) * len(results), name="pair-baseline")
    savings = results.savings(base_set, values=range(len(results)), axis="index")
    print(f"savings vs pair enumeration (E/W = "
          f"{baseline.best.energy_overhead:.2f} mJ/work):")
    for res, pct in zip(results, savings.percent):
        spec = res.scenario.schedule.spec() if res.scenario.schedule else "-"
        if math.isnan(pct):
            print(f"  {spec:24s} infeasible")
        else:
            print(f"  {spec:24s} {pct:+7.2f}%")


def _cmd_solve(args: argparse.Namespace) -> int:
    from .api.result import ResultSet
    from .api.scenario import Scenario
    from .schedules.base import parse_schedule

    specs = args.schedule or []
    if len(specs) > 1:
        return _solve_schedule_axis(args, specs)
    try:
        schedule = parse_schedule(specs[0]) if specs else None
        scenario = Scenario(
            config=args.config,
            rho=args.rho,
            mode=args.mode,
            failstop_fraction=args.failstop_fraction,
            error_rate=args.rate,
            schedule=schedule,
            errors=args.errors,
            backend=args.backend,
        )
    except InvalidParameterError as exc:
        print(f"invalid scenario: {exc}")
        return 1
    try:
        result = scenario.solve()
    except InfeasibleBoundError as exc:
        print(f"infeasible: {exc}")
        return 1
    except (UnknownBackendError, UnsupportedScenarioError) as exc:
        print(f"bad backend routing: {exc}")
        return 1
    best = result.best
    print(f"scenario        : {scenario.describe()}")
    print(f"backend         : {result.provenance.backend}")
    if schedule is not None:
        print(f"schedule        : {schedule.spec()}  "
              f"(attempts 1..4: {schedule.speeds_for_attempts(4)})")
    print(f"speed pair      : ({best.sigma1:g}, {best.sigma2:g})")
    print(f"pattern size    : W = {best.work:.0f} work units")
    print(f"energy overhead : E/W = {best.energy_overhead:.2f} mJ/work")
    print(f"time overhead   : T/W = {best.time_overhead:.4f} s/work  (bound {args.rho:g})")
    if args.analyze == "frontier":
        print("(--analyze frontier needs a --schedule axis; repeat --schedule, "
              "or use 'repro frontier' for a rho sweep)")
    elif args.analyze == "savings":
        if schedule is None:
            print("(--analyze savings compares a schedule against the pair "
                  "enumeration; nothing to compare without --schedule)")
        else:
            _print_schedule_savings(
                args, ResultSet(results=(result,), name="solve")
            )
    if args.csv:
        path = ResultSet(results=(result,), name="solve").to_csv(args.csv)
        print(f"wrote {path}")
    if args.simulate > 0:
        report = result.simulate(n=args.simulate, rng=args.seed)
        s = report.summary
        print(f"simulated time  : {s.mean_time/best.work:.4f} s/work  "
              f"(z={report.time_zscore:+.2f})")
        print(f"simulated energy: {s.mean_energy/best.work:.2f} mJ/work  "
              f"(z={report.energy_zscore:+.2f})")
        ok = report.agrees()
        print(f"agreement (|z| <= 4): {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .api.scenario import Scenario
    from .reporting.csvio import write_table_csv
    from .reporting.tables import format_speed_pair_table
    from .sweep.tables import infeasible_table, speed_pair_table

    cfg = get_configuration(args.config)
    try:
        # Uncached standalone solve: the table needs every candidate.
        solution = Scenario(config=cfg, rho=args.rho).solve(cache=False).raw
    except InfeasibleBoundError:
        table = infeasible_table(cfg, args.rho)
    else:
        table = speed_pair_table(cfg, args.rho, solution=solution)
    print(format_speed_pair_table(table))
    if args.csv:
        path = write_table_csv(args.csv, table)
        print(f"\nwrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.savings import summarize_savings
    from .reporting.csvio import write_series_csv
    from .reporting.tables import format_savings_line, format_sweep_series
    from .sweep.axes import axis_by_name
    from .sweep.runner import run_sweep

    cfg = get_configuration(args.config)
    kwargs = {"n": args.points} if args.points else {}
    axis = axis_by_name(args.axis, **kwargs)
    series = run_sweep(cfg, args.rho, axis)
    print(format_sweep_series(series, max_rows=40))
    try:
        s = summarize_savings(series)
        print()
        print(format_savings_line(s.config_name, s.axis_name, s.max_savings_percent, s.argmax_value))
    except ValueError:
        print("\n(no point feasible for both solvers)")
    if args.csv:
        path = write_series_csv(args.csv, series)
        print(f"wrote {path}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .analysis.savings import summarize_savings
    from .reporting.csvio import write_series_csv
    from .reporting.tables import format_savings_line, format_sweep_series
    from .sweep.figures import run_figure

    panels = run_figure(args.figure_id, rho=args.rho, n=args.points)
    for panel, series in panels.items():
        print(format_sweep_series(series, max_rows=16))
        try:
            s = summarize_savings(series)
            print(format_savings_line(s.config_name, s.axis_name, s.max_savings_percent, s.argmax_value))
        except ValueError:
            print("(no point feasible for both solvers)")
        print()
        if args.csv_dir:
            path = write_series_csv(
                f"{args.csv_dir}/{args.figure_id}_{panel}.csv", series
            )
            print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .errors.combined import CombinedErrors
    from .schedules.base import parse_schedule
    from .simulation.estimators import check_agreement

    cfg = get_configuration(args.config)
    errors = None
    if args.failstop_fraction > 0:
        errors = CombinedErrors(cfg.lam, args.failstop_fraction)
    if args.errors:
        from .errors.models import parse_error_model

        try:
            errors = parse_error_model(args.errors)
        except InvalidParameterError as exc:
            print(f"invalid error model: {exc}")
            return 1
    if args.schedule:
        try:
            schedule = parse_schedule(args.schedule)
        except InvalidParameterError as exc:
            print(f"invalid schedule: {exc}")
            return 1
        report = check_agreement(
            cfg,
            work=args.work,
            schedule=schedule,
            errors=errors,
            n=args.samples,
            rng=args.seed,
        )
    else:
        report = check_agreement(
            cfg,
            work=args.work,
            sigma1=args.sigma1,
            sigma2=args.sigma2,
            errors=errors,
            n=args.samples,
            rng=args.seed,
        )
    s = report.summary
    print(f"config          : {cfg.name}")
    if args.errors:
        print(f"error model     : {errors.spec()}")
    if report.schedule is not None:
        print(f"pattern         : W={report.work:g}  schedule={report.schedule.spec()}")
    else:
        print(f"pattern         : W={report.work:g}  s1={report.sigma1}  s2={report.sigma2}")
    print(f"samples         : {s.n}")
    print(f"expected time   : {report.expected_time:.3f} s")
    print(f"simulated time  : {s.mean_time:.3f} +- {s.sem_time:.3f} s  (z={report.time_zscore:+.2f})")
    print(f"expected energy : {report.expected_energy:.3f} mJ")
    print(f"simulated energy: {s.mean_energy:.3f} +- {s.sem_energy:.3f} mJ  (z={report.energy_zscore:+.2f})")
    print(f"mean re-execs   : {s.mean_reexecutions:.4f}")
    ok = report.agrees()
    print(f"agreement (|z| <= 4): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_theorem2(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.scaling import fit_power_law
    from .errors.combined import CombinedErrors
    from .failstop.secondorder import theorem2_work
    from .failstop.solver import time_optimal_work
    from .platforms.catalog import XSCALE
    from .platforms.configuration import Configuration
    from .platforms.platform import Platform

    lams = np.logspace(-6, -3, args.points)
    works = []
    print(f"{'lambda':>10}  {'W numeric':>12}  {'W theorem2':>12}  {'ratio':>7}")
    for lam in lams:
        plat = Platform(
            "theorem2", error_rate=float(lam),
            checkpoint_time=args.checkpoint, verification_time=0.0,
        )
        cfg = Configuration(platform=plat, processor=XSCALE)
        w_num = time_optimal_work(
            cfg, CombinedErrors(float(lam), 1.0), args.sigma, 2.0 * args.sigma
        )
        w_th = theorem2_work(float(lam), args.checkpoint, args.sigma)
        works.append(w_num)
        print(f"{lam:>10.2e}  {w_num:>12.1f}  {w_th:>12.1f}  {w_num / w_th:>7.4f}")
    fit = fit_power_law(lams, np.array(works))
    print(f"\nfitted exponent: {fit.exponent:.4f}  (Theorem 2 predicts -2/3 = {-2/3:.4f};")
    print("Young/Daly would give -1/2)")
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    import numpy as np

    from .api.experiment import Experiment
    from .core.feasibility import min_performance_bound_config

    cfg = get_configuration(args.config)
    rho_lo = args.rho_min
    if rho_lo is None:
        # With a schedule/model the two-speed feasibility edge is only a
        # hint; infeasible head points simply drop out of the frontier.
        rho_lo = min_performance_bound_config(cfg) * 1.0001
    if not rho_lo < args.rho_max:
        print(f"need rho-min < rho-max, got [{rho_lo:g}, {args.rho_max:g}]")
        return 1
    try:
        experiment = Experiment.over(
            configs=(cfg,),
            rhos=tuple(float(r) for r in np.linspace(rho_lo, args.rho_max, args.points)),
            schedules=(args.schedule,),
            error_models=(args.errors,),
            name=f"frontier:{cfg.name}",
        )
        plan = experiment.plan(args.backend)
    except (InvalidParameterError, UnknownBackendError, UnsupportedScenarioError) as exc:
        print(f"invalid frontier spec: {exc}")
        return 1
    if args.explain:
        print(plan.describe())
        print()
    frontier = plan.execute().frontier()
    if len(frontier) == 0:
        print(f"{cfg.name}: no feasible point in [{rho_lo:g}, {args.rho_max:g}]")
        return 1

    bits = [f"{cfg.name}"]
    if args.schedule:
        bits.append(f"schedule {args.schedule}")
    if args.errors:
        bits.append(f"errors {args.errors}")
    knee = frontier.knee()
    print(f"{' '.join(bits)}: Pareto frontier with {len(frontier)} distinct "
          f"trade-offs (backends: {', '.join(frontier.provenance.backends)})")
    print(f"{'rho':>8}  {'T/W':>8}  {'E/W':>10}  pair")
    for p in frontier.points:
        marker = "  <- knee" if p is knee else ""
        s1, s2 = p.result.speed_pair or (np.nan, np.nan)  # points are feasible
        print(f"{p.rho:>8.3f}  {p.x:>8.4f}  {p.y:>10.2f}  ({s1:g}, {s2:g}){marker}")
    if args.csv:
        print(f"wrote {frontier.to_csv(args.csv)}")
    if args.json:
        print(f"wrote {frontier.to_json(args.json)}")
    return 0


def _best_per_block(results: "ResultSet", block: int) -> "ResultSet":
    """Reduce a ResultSet of per-point candidate blocks to the best
    (lowest-energy feasible) result per block."""
    from .api.result import ResultSet

    best = []
    for start in range(0, len(results), block):
        rows = [results[k] for k in range(start, start + block)]
        feasible = [r for r in rows if r.feasible]
        best.append(
            min(feasible, key=lambda r: r.best.energy_overhead)
            if feasible
            else rows[0]
        )
    return ResultSet(results=tuple(best), name=f"{results.name}:best-per-point")


def _cmd_savings(args: argparse.Namespace) -> int:
    from .api.experiment import Experiment
    from .api.scenario import Scenario
    from .schedules.base import Constant
    from .sweep.axes import axis_by_name

    cfg = get_configuration(args.config)
    kwargs = {"n": args.points} if args.points else {}
    axis = axis_by_name(args.axis, **kwargs)

    try:
        if args.errors is None:
            candidate = Experiment.over_axis(
                cfg, args.rho, axis, name=f"savings:{cfg.name}:{axis.name}"
            ).solve(args.backend)
            baseline = Experiment.over_axis(
                cfg, args.rho, axis, modes=("single-speed",),
                name="single-speed-baseline",
            ).solve(args.backend)
            baseline_desc = "one-speed optimum"
        else:
            # Under an explicit error model the one-speed baseline is
            # the best *constant* schedule per point, solved in the
            # same batched pass as the pair enumeration.
            points = [axis.apply(cfg, args.rho, v) for v in axis.values]
            candidate = Experiment.from_scenarios(
                (
                    Scenario(config=c, rho=r, errors=args.errors)
                    for c, r in points
                ),
                name=f"savings:{cfg.name}:{axis.name}",
            ).solve(args.backend)
            speeds = cfg.speeds
            baseline = _best_per_block(
                Experiment.from_scenarios(
                    (
                        Scenario(config=c, rho=r, errors=args.errors,
                                 schedule=Constant(s))
                        for c, r in points
                        for s in speeds
                    ),
                    name="const-baseline",
                ).solve(args.backend),
                block=len(speeds),
            )
            baseline_desc = "best constant-speed schedule"
    except (
        InvalidParameterError,
        UnknownBackendError,
        UnsupportedScenarioError,
    ) as exc:
        print(f"invalid savings spec: {exc}")
        return 1

    savings = candidate.savings(baseline, values=axis.values, axis=axis.name)
    model = f"  errors {args.errors}" if args.errors else ""
    print(f"{cfg.name}: savings vs {baseline_desc} along {axis.label} "
          f"(rho = {args.rho:g}){model}")
    print(f"{'value':>12}  {'E candidate':>11}  {'E baseline':>11}  {'saving %':>9}")
    for v, c, b, p in zip(
        savings.values, savings.candidate_y, savings.baseline_y, savings.percent
    ):
        if math.isnan(p):
            print(f"{v:>12.4g}  {'-':>11}  {'-':>11}  {'-':>9}")
        else:
            print(f"{v:>12.4g}  {c:>11.2f}  {b:>11.2f}  {p:>9.2f}")
    if savings.finite_mask.any():
        print(f"max saving      : {savings.max_savings_percent:.2f}% "
              f"at {axis.name} = {savings.argmax_value:g} "
              f"(mean {savings.mean_savings_percent:.2f}%, "
              f"{savings.num_points_with_savings()} point(s) > 0.01%)")
    else:
        print("(no point feasible for both candidate and baseline)")
    if args.csv:
        print(f"wrote {savings.to_csv(args.csv)}")
    if args.json:
        print(f"wrote {savings.to_json(args.json)}")
    return 0 if savings.finite_mask.any() else 1


def _cmd_fraction(args: argparse.Namespace) -> int:
    import numpy as np

    from .sweep.fraction import sweep_failstop_fraction

    cfg = get_configuration(args.config)
    sweep = sweep_failstop_fraction(
        cfg,
        args.rho,
        total_rate=args.rate,
        fractions=np.linspace(0.0, 1.0, args.points),
        processes=args.processes,
    )
    print(
        f"{cfg.name}: combined-error optimum vs fail-stop fraction "
        f"(rho = {args.rho:g}, lambda = {sweep.total_rate:g}/s)"
    )
    print(f"{'f':>5}  {'s1':>5} {'s2':>5}  {'Wopt':>9}  {'E/W':>9}  {'T/W':>7}")
    for f, s1, s2, w, e, t in zip(
        sweep.fractions, sweep.sigma1(), sweep.sigma2(),
        sweep.work(), sweep.energy_overhead(), sweep.time_overhead(),
    ):
        if np.isnan(e):
            print(f"{f:>5.2f}  {'-':>5} {'-':>5}  {'-':>9}  {'-':>9}  {'-':>7}")
        else:
            print(f"{f:>5.2f}  {s1:>5.2f} {s2:>5.2f}  {w:>9.0f}  {e:>9.1f}  {t:>7.3f}")
    return 0


def _cmd_multiverif(args: argparse.Namespace) -> int:
    from .core.numeric import solve_bicrit_exact
    from .extensions.multiverif import solve_bicrit_multiverif

    cfg = get_configuration(args.config)
    if args.rate is not None:
        cfg = cfg.with_error_rate(args.rate)
    best = solve_bicrit_multiverif(cfg, args.rho, max_q=args.max_q, recall=args.recall)
    single = solve_bicrit_exact(cfg, args.rho)
    print(f"{cfg.name}  rho = {args.rho:g}  lambda = {cfg.lam:g}/s  recall = {args.recall:g}")
    print(f"  best q           : {best.q} verifications per checkpoint")
    print(f"  speed pair       : ({best.sigma1}, {best.sigma2})")
    print(f"  pattern size     : {best.work:.0f} work units")
    print(f"  energy overhead  : {best.energy_overhead:.2f} mJ/work")
    print(f"  single-verif ref : {single.energy_overhead:.2f} mJ/work "
          f"(pair ({single.sigma1}, {single.sigma2}))")
    gain = (1 - best.energy_overhead / single.energy_overhead) * 100
    print(f"  gain over q = 1  : {gain:.2f}%")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.solver import solve_bicrit
    from .errors.combined import CombinedErrors
    from .reporting.gantt import format_timeline, format_trace
    from .simulation.application import ApplicationSimulator

    cfg = get_configuration(args.config).with_error_rate(args.rate)
    errors = None
    if args.failstop_fraction > 0:
        errors = CombinedErrors(args.rate, args.failstop_fraction)
    sim = ApplicationSimulator(cfg, errors=errors, rng=args.seed)
    best = solve_bicrit(cfg, 3.0).best
    work = best.work
    result = sim.run(
        total_work=args.patterns * work, work=work,
        sigma1=args.sigma1, sigma2=args.sigma2,
    )
    print(format_timeline(result, width=args.width))
    print()
    print(format_trace(result, max_events=30))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting.summary import build_report, write_report

    if args.out:
        result = write_report(args.out, montecarlo_samples=args.montecarlo_samples)
        print(f"wrote {args.out}")
    else:
        result = build_report(montecarlo_samples=args.montecarlo_samples)
        print(result.markdown)
    return 0 if result.ok else 1


def _cmd_pool(args: argparse.Namespace) -> int:
    """``repro pool``: status/stop of the process-wide warm pool.

    The pool is process-local state: a bare ``status`` in a fresh CLI
    process reports that no pool exists yet; ``--start`` spawns the
    fleet and reports how many workers are alive — the shape embedding
    callers (and the CI smoke test) exercise.
    """
    from .exec import default_pool_or_none, get_default_pool, shutdown_default_pool

    if args.pool_command == "stop":
        if default_pool_or_none() is None:
            print("warm pool: not running in this process")
            return 0
        shutdown_default_pool()
        print("warm pool: stopped")
        return 0

    # status
    if default_pool_or_none() is None and not args.start:
        print(
            "warm pool: not created in this process "
            '(run a plan with transport="warm", or pass --start)'
        )
        return 0
    pool = get_default_pool(max_workers=args.workers)
    if args.start:
        pool.start()
        workers = pool.status().workers
        alive = sum(1 for w in workers if w.alive)
        print(f"{alive}/{len(workers)} worker(s) alive")
    print(pool.status().describe())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache``: stats/clear of the process-wide solve cache.

    Like the warm pool, the cache is process-local state: a bare
    ``stats`` in a fresh CLI process reports empty counters.  The
    per-backend breakdown shows a repeated sweep's replays under the
    canonical backend that solved it (aliases are counted under the
    name they resolve to), not folded into one global number.
    """
    from .api.cache import DEFAULT_CACHE, clear_default_cache

    if args.cache_command == "clear":
        entries = len(DEFAULT_CACHE)
        clear_default_cache()
        print(f"solve cache: cleared {entries} entry(ies)")
        return 0

    # stats
    hits, misses = DEFAULT_CACHE.stats()
    bound = DEFAULT_CACHE.maxsize if DEFAULT_CACHE.maxsize is not None else "unbounded"
    print(f"solve cache: {len(DEFAULT_CACHE)} entry(ies) (maxsize {bound})")
    print(f"  total: {hits} hit(s), {misses} miss(es)")
    breakdown = DEFAULT_CACHE.stats_by_backend()
    if breakdown:
        print(f"  {'backend':26s} {'hits':>8s} {'misses':>8s} {'hit rate':>9s}")
        for name, (h, m) in breakdown.items():
            rate = f"{h / (h + m):8.1%}" if h + m else "       -"
            print(f"  {name:26s} {h:>8d} {m:>8d} {rate:>9s}")
    else:
        print("  (no lookups yet in this process)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: boot the solver service in the foreground.

    Flags override the ``REPRO_SERVICE_*`` environment; the service
    runs on the dependency-free stdlib carrier.
    """
    from .service import ServiceApp, ServiceConfig, make_server

    overrides: dict[str, object] = {
        "transport": args.transport,
        "job_workers": args.job_workers,
        "json_logs": bool(args.json_logs),
    }
    if args.token is not None:
        overrides["tokens"] = tuple(args.token)
    if args.artifact_dir is not None:
        overrides["artifact_dir"] = args.artifact_dir
    if args.workers is not None:
        overrides["max_workers"] = args.workers
    if args.max_points is not None:
        overrides["max_points"] = args.max_points
    config = ServiceConfig.from_env(**overrides)
    server = make_server(ServiceApp(config), host=args.host, port=args.port)
    auth = "bearer-token" if config.auth_enabled else "open (no tokens configured)"
    print(f"repro service listening on {server.url}")
    print(f"  transport: {config.transport}  job workers: {config.job_workers}")
    print(f"  auth: {auth}")
    print("  docs: docs/service.md  (Ctrl-C to stop)")
    server.serve_forever()
    return 0


_COMMANDS = {
    "configs": _cmd_configs,
    "backends": _cmd_backends,
    "schedules": _cmd_schedules,
    "errors": _cmd_errors,
    "solve": _cmd_solve,
    "table": _cmd_table,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
    "theorem2": _cmd_theorem2,
    "frontier": _cmd_frontier,
    "savings": _cmd_savings,
    "fraction": _cmd_fraction,
    "multiverif": _cmd_multiverif,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "pool": _cmd_pool,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
