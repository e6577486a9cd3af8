"""PEP 562 lazy exports: a package's public names load on first access.

Each package ``__init__`` lists which of its modules defines each public
name.  The first ``package.name`` imports that one module and stores
the value in the package's globals, so later lookups are plain global
reads that never reach ``__getattr__``.  ``dir(package)`` and
``from package import *`` list exactly the listed names (plus any
``extra`` names the package defines itself).  Type checkers and IDEs see
the same names through each ``__init__``'s ``if TYPE_CHECKING:``
imports.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["exports", "attach"]


def exports(by_module: Mapping[str, tuple[str, ...]]) -> dict[str, str]:
    """The name -> module table of a module -> names listing."""
    table = {name: module for module, names in by_module.items() for name in names}
    assert len(table) == sum(map(len, by_module.values())), "a name listed twice"
    return table


def attach(
    package: str, table: Mapping[str, str], extra: tuple[str, ...] = ()
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` over ``table``.

    Module paths in ``table`` are relative to ``package``.
    """
    namespace = sys.modules[package].__dict__
    public = [*extra, *table]

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return list(public)

    return __getattr__, __dir__, public
