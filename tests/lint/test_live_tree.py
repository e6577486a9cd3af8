"""The shipped source tree must satisfy its own lint gate.

This is the test CI's ``repro-lint`` job duplicates as a process-level
check; having it in the suite means a plain ``pytest`` run catches a
rule regression (or a convention violation in new code) without any
extra tooling installed.
"""

from pathlib import Path

from repro._lint import lint_paths

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
HARNESS = ROOT / "benchmarks" / "harness"


def test_source_checkout_present():
    assert SRC.is_dir(), "live-tree lint test requires a source checkout"


def test_shipped_tree_is_lint_clean():
    diagnostics = lint_paths([SRC, HARNESS])
    rendered = "\n".join(d.render() for d in diagnostics)
    assert not diagnostics, f"repro-lint violations in shipped tree:\n{rendered}"
