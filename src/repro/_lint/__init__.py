"""`repro-lint`: repo-specific static analysis for the solver stack.

The solver stack's correctness story rests on conventions that unit
tests cannot enforce exhaustively: canonical cache keys, memoryless
guards on the closed-form paths, backend capability flags, typed
exceptions, tolerance discipline in the vectorised kernels.  This
package checks those invariants *statically* — an AST pass over
``src/repro`` with one rule per convention, each with a stable code
(``RPR001``...), a fix-it message and a per-line/per-file suppression
syntax (see :mod:`repro._lint.suppressions`).

Run it locally with ``python -m repro._lint`` (custom rules only) or
``python -m repro._lint --all`` (ruff + mypy + custom rules, skipping
tools the environment does not have).  ``repro lint`` is the same
entry point through the main CLI.  The rule catalog lives in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".diagnostics": ("Diagnostic",),
    ".engine": ("LintContext", "Rule", "all_rules", "lint_file", "lint_paths", "lint_source"),
    ".cli": ("main",),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .cli import main
    from .diagnostics import Diagnostic
    from .engine import LintContext, Rule, all_rules, lint_file, lint_paths, lint_source
