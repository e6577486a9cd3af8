"""Command-line entry point: ``python -m repro._lint`` / ``repro lint``.

Default invocation runs the custom ``RPR*`` rules over ``src/repro``
and the bench harness ``benchmarks/harness`` (or the installed
``repro`` package when no source checkout is visible) and exits
non-zero on any diagnostic.  ``--all`` chains the full local gate —
ruff, mypy, then the custom rules — skipping tools the environment
does not have so the command stays usable in minimal containers; CI
installs both, so there the chain is complete.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from collections.abc import Sequence

from .engine import all_rules, lint_paths

__all__ = ["main"]


def _default_paths() -> list[Path]:
    """The tree to lint when none is given.

    Prefer a source checkout's ``src/repro`` and ``benchmarks/harness``
    (rule paths in docs and CI assume them); fall back to the installed
    package directory so the command still works from anywhere.
    """
    checkout = Path("src/repro")
    if checkout.is_dir():
        return [checkout, *(p for p in [Path("benchmarks/harness")] if p.is_dir())]
    return [Path(__file__).resolve().parents[1]]


def _project_root(start: Path) -> Path | None:
    """The nearest ancestor holding ``pyproject.toml`` (tool config)."""
    for candidate in [start, *start.resolve().parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _run_external(tool: str, args: list[str], cwd: Path | None) -> int | None:
    """Run ``python -m <tool> <args>``; ``None`` = tool not installed.

    The tools run as subprocesses of the same interpreter so the gate
    exercises exactly the environment's versions, and a missing tool
    is a *skip*, not a failure — minimal environments can still run
    the custom rules while CI (which installs the `lint`/`typecheck`
    extras) gets the full chain.
    """
    if importlib.util.find_spec(tool) is None:
        print(f"repro-lint: {tool} not installed; skipping (pip install "
              f"'.[lint,typecheck]' for the full gate)")
        return None
    proc = subprocess.run(
        [sys.executable, "-m", tool, *args],
        cwd=str(cwd) if cwd is not None else None,
    )
    return proc.returncode


def _list_rules() -> None:
    for r in all_rules():
        print(f"{r.code}  {r.summary}")
        print(f"       fix: {r.fixit}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Repo-specific static analysis for the repro solver stack "
            "(rule catalog: docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro, benchmarks/harness)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the full local gate: ruff + mypy + custom rules "
        "(missing tools are skipped with a notice)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    paths = args.paths or _default_paths()
    select = (
        [c.strip() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )

    failures = 0

    if args.all:
        root = _project_root(Path.cwd())
        ruff_rc = _run_external("ruff", ["check", "."], cwd=root)
        if ruff_rc:
            failures += 1
        mypy_rc = _run_external("mypy", [], cwd=root)
        if mypy_rc:
            failures += 1

    diagnostics = lint_paths(paths, select=select)
    for diag in diagnostics:
        print(diag.render())
    if diagnostics:
        files = len({d.path for d in diagnostics})
        print(f"repro-lint: {len(diagnostics)} issue(s) in {files} file(s)")
        failures += 1
    else:
        shown = ", ".join(str(p) for p in paths)
        print(f"repro-lint: clean ({shown})")

    return 1 if failures else 0
