"""``docs/cli.md`` is the rendered argparse tree of ``repro.cli.build_parser()``.

The test fails when a subcommand, alias, option, default or help text
changes without the reference following.  Run this module as a script
to rewrite the file from the live parser::

    PYTHONPATH=src python tests/integration/test_cli_reference.py
"""

from __future__ import annotations

import argparse
from collections.abc import Iterator
from pathlib import Path

from repro.cli import build_parser

CLI_MD = Path(__file__).resolve().parents[2] / "docs" / "cli.md"

_HEADER = """\
# CLI reference

<!-- Generated from repro.cli.build_parser() by
     tests/integration/test_cli_reference.py; run that file as a script
     to rewrite it, never edit it by hand. -->

Every command runs as `python -m repro <command>` (or `repro <command>`
once the package is installed).  `repro <command> --help` prints the
same options.
"""


def _subcommands(
    parser: argparse.ArgumentParser,
) -> Iterator[tuple[str, list[str], str, argparse.ArgumentParser]]:
    """``(name, aliases, help, parser)`` per subcommand, declaration order."""
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        helps = {choice.dest: choice.help or "" for choice in action._choices_actions}
        seen: set[int] = set()
        for name, sub in action.choices.items():
            if id(sub) in seen:
                continue  # an alias of a subcommand already listed
            seen.add(id(sub))
            aliases = [n for n, p in action.choices.items() if p is sub and n != name]
            yield name, aliases, helps.get(name, ""), sub


def _options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        a for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def _metavar(action: argparse.Action) -> str:
    """How an option's value is spelled (argparse's own rule)."""
    if action.metavar is not None:
        return str(action.metavar)
    if action.choices is not None:
        return "{" + ",".join(str(c) for c in action.choices) + "}"
    return action.dest.upper()


def _usage_token(action: argparse.Action) -> str:
    if not action.option_strings:
        return f"[{action.dest} ...]" if action.nargs == "*" else action.dest
    token = action.option_strings[-1]
    if action.nargs != 0:
        token += f" {_metavar(action)}"
    return token if action.required else f"[{token}]"


def _describe(action: argparse.Action) -> str:
    details = []
    if action.help:
        details.append(f"{action.help}.")
    if not action.option_strings:
        spelled = action.dest
        if action.choices is not None:
            details.append("One of " + ", ".join(f"`{c}`" for c in action.choices) + ".")
    else:
        spelled = ", ".join(
            s if action.nargs == 0 else f"{s} {_metavar(action)}"
            for s in action.option_strings
        )
        if isinstance(action, argparse._AppendAction):
            details.append("Repeatable.")
        if action.nargs != 0 and action.default is not None:
            details.append(f"Default: `{action.default}`.")
    return f"- `{spelled}`" + (" — " + " ".join(details) if details else "")


def _render_command(path: str, aliases: list[str], help_text: str,
                    parser: argparse.ArgumentParser) -> list[str]:
    title = f"### `{path}`"
    if aliases:
        title += " (alias: " + ", ".join(f"`{a}`" for a in aliases) + ")"
    lines = [title, ""]
    if help_text:
        lines += [help_text[0].upper() + help_text[1:] + ".", ""]
    children = list(_subcommands(parser))
    options = _options(parser)
    usage = [path, *(_usage_token(a) for a in options)]
    if children:
        usage.append("{" + ",".join(name for name, *_ in children) + "}")
    lines += ["```", " ".join(usage), "```", ""]
    if options:
        lines += ["**Options:**", "", *(_describe(a) for a in options), ""]
    for name, child_aliases, child_help, child in children:
        lines += _render_command(f"{path} {name}", child_aliases, child_help, child)
    return lines


def render(parser: argparse.ArgumentParser) -> str:
    """The Markdown reference of ``parser``'s whole subcommand tree."""
    commands = list(_subcommands(parser))
    lines = [_HEADER, "## Global options", "", *(_describe(a) for a in _options(parser)), ""]
    lines += ["## Commands", "", "| command | aliases | what it does |", "|---|---|---|"]
    for name, aliases, help_text, _ in commands:
        lines.append(
            f"| `{name}` | {', '.join(f'`{a}`' for a in aliases)} | {help_text} |"
        )
    lines.append("")
    for name, aliases, help_text, sub in commands:
        lines += _render_command(f"repro {name}", aliases, help_text, sub)
    return "\n".join(lines).rstrip("\n") + "\n"


def test_cli_reference_matches_parser():
    expected = render(build_parser())
    assert CLI_MD.read_text() == expected, (
        "docs/cli.md is stale: rewrite it with "
        "`PYTHONPATH=src python tests/integration/test_cli_reference.py`"
    )


def test_reference_lists_every_subcommand_and_alias():
    text = CLI_MD.read_text()
    for name, aliases, _, _ in _subcommands(build_parser()):
        assert f"### `repro {name}`" in text
        for alias in aliases:
            assert f"`{alias}`" in text
    assert "### `repro frontier` (alias: `pareto`)" in text


if __name__ == "__main__":
    CLI_MD.write_text(render(build_parser()))
    print(f"wrote {CLI_MD}")
