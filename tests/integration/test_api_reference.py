"""docs/api.md's public-name list is rendered from ``repro._EXPORTS``.

The name table in ``src/repro/__init__.py`` is the one list of the
package's public names: ``repro.__all__``, ``dir(repro)`` and the
section of docs/api.md between the markers below all come from it, so
the test fails when a name is added, moved or dropped without the
reference following.  Run this module as a script to rewrite that
section from the live table::

    PYTHONPATH=src python tests/integration/test_api_reference.py
"""

from __future__ import annotations

from pathlib import Path

import repro

API_MD = Path(__file__).resolve().parents[2] / "docs" / "api.md"
BEGIN = (
    "<!-- public-names: generated from repro._EXPORTS by "
    "tests/integration/test_api_reference.py -->"
)
END = "<!-- /public-names -->"


def render() -> str:
    """One row per defining module, in table order."""
    by_module: dict[str, list[str]] = {}
    for name, module in repro._EXPORTS.items():
        by_module.setdefault(f"repro{module}", []).append(name)
    lines = [BEGIN, "", "| module | public names |", "|---|---|"]
    lines += [
        f"| `{module}` | {', '.join(f'`{n}`' for n in names)} |"
        for module, names in by_module.items()
    ]
    return "\n".join([*lines, "", END])


def _section(text: str) -> str:
    start, end = text.index(BEGIN), text.index(END) + len(END)
    return text[start:end]


def test_api_reference_lists_the_name_table():
    assert _section(API_MD.read_text()) == render(), (
        "docs/api.md's public-name list is stale: rewrite it with "
        "`PYTHONPATH=src python tests/integration/test_api_reference.py`"
    )


if __name__ == "__main__":
    text = API_MD.read_text()
    API_MD.write_text(text.replace(_section(text), render()))
    print(f"wrote {API_MD}")
