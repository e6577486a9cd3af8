"""Indent-2 JSON, byte for byte what ``json.dumps(obj, indent=2)`` writes.

``json.dumps`` runs its C encoder only without ``indent``; every
pretty-printed artifact (``results.json``, the verb exports, the service
documents, ``BENCH_*.json``) therefore went through the stdlib's
generator-based Python encoder, which cost more than solving for the
numbers it printed.  :func:`encode_json` renders the same text with one
recursive function that appends to a list:

* strings go through ``json.encoder.encode_basestring_ascii`` (the C
  function the stdlib itself uses), floats through ``float.__repr__``
  with json's ``NaN``/``Infinity``/``-Infinity`` spelling, ints through
  ``int.__repr__``;
* the ``",\\n" + indent + key + ": "`` prefix is built once per
  (depth, key) — result rows repeat the same keys thousands of times;
* values that subclass ``str``/``int``/``float``/``list``/``tuple``
  take the same stdlib operations (``int.__repr__``, ``iter(lst)``) as
  ``json.dumps`` does.

Anything else — a type json would hand to ``default``, a ``dict``
subclass, an invalid or subclassed key, unsortable keys under
``sort_keys``, a circular structure (it ends in ``RecursionError``) —
discards what was rendered and lets ``json.dumps`` produce the output
or raise its own error, so the result and every failure are exactly
the stdlib's.

:func:`write_json` streams the chunks to a temporary file next to the
target and renames it over the target: a failed or killed write never
leaves a truncated file, and the whole document is never held in
memory at once.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import IO, Any

__all__ = ["encode_json", "write_json"]

_INDENT = "  "
_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__

#: Rendered chunks held before they are written out (bounds a write's peak memory).
_SPILL_CHUNKS = 4096


class _Fallback(Exception):
    """A value the fast path does not render; ``json.dumps`` takes over."""


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return _float_repr(o)


def _key_text(k: Any) -> str:
    """A non-``str`` dict key as json spells it.

    Only exact ``float``/``int``/``bool``/``None`` keys: their ``==`` is
    consistent with their hash, which lets :func:`_render` sort a dict's
    keys alone where json sorts its items.  A key subclass (or an
    invalid key) falls back to ``json.dumps``.
    """
    t = type(k)
    if t is float:
        return _float_text(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if t is int:
        return _int_repr(k)
    raise _Fallback


def _render(obj: object, sort_keys: bool, out: list[str], spill: Callable[[], None]) -> None:
    """Append the indent-2 rendering of ``obj`` to ``out``, calling
    ``spill`` whenever ``out`` holds more than ``_SPILL_CHUNKS`` chunks
    after a nested container (``spill`` is expected to empty ``out``).
    """
    append = out.append
    # Per depth d >= 1: the item separator ",\n" + d indents, the
    # closing "\n" + (d - 1) indents, and the key -> prefix cache.
    seps = [""]
    closers = [""]
    prefixes: list[dict[str, str]] = [{}]

    def deeper(depth: int) -> None:
        while len(seps) <= depth:
            d = len(seps)
            seps.append(",\n" + _INDENT * d)
            closers.append("\n" + _INDENT * (d - 1))
            prefixes.append({})

    def value(o: Any, depth: int) -> None:
        t = type(o)
        if t is str:
            append(_esc(o))
        elif t is float:
            append(_float_repr(o) if o - o == 0.0 else _float_text(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif t is int:
            append(_int_repr(o))
        elif t is dict:
            obj_(o, depth)
        elif t is list or t is tuple:
            arr(o, depth)
        elif isinstance(o, str):
            append(_esc(o))
        elif isinstance(o, int):
            append(_int_repr(o))
        elif isinstance(o, float):
            append(_float_text(o))
        elif isinstance(o, (list, tuple)):
            arr(o, depth)
        else:
            raise _Fallback

    def arr(lst: Any, depth: int) -> None:
        if not lst:
            append("[]")
            return
        depth += 1
        if depth >= len(seps):
            deeper(depth)
        sep = seps[depth]
        first = True
        for v in lst:
            if first:
                append("[" + sep[1:])
                first = False
            else:
                append(sep)
            t = type(v)
            if t is str:
                append(_esc(v))
            elif t is float:
                append(_float_repr(v) if v - v == 0.0 else _float_text(v))
            else:
                value(v, depth)
                if len(out) > _SPILL_CHUNKS:
                    spill()
        append(closers[depth] + "]")

    def obj_(dct: dict[Any, Any], depth: int) -> None:
        if not dct:
            append("{}")
            return
        depth += 1
        if depth >= len(seps):
            deeper(depth)
        sep = seps[depth]
        cache = prefixes[depth]
        # Keys are exact str/int/float/bool/None (else _Fallback below):
        # no two distinct keys compare equal, so sorting the keys alone
        # gives the order of json's ``sorted(dct.items())`` without
        # building a tuple per item.
        keys: Iterable[Any] = sorted(dct) if sort_keys else dct
        first = True
        for k in keys:
            v = dct[k]
            if type(k) is str:
                p = cache.get(k)
                if p is None:
                    p = cache[k] = sep + _esc(k) + ": "
            else:
                p = sep + _esc(_key_text(k)) + ": "
            if first:
                append("{" + p[1:])
                first = False
            else:
                append(p)
            t = type(v)
            if t is float:
                append(_float_repr(v) if v - v == 0.0 else _float_text(v))
            elif t is str:
                append(_esc(v))
            elif v is None:
                append("null")
            else:
                value(v, depth)
                if len(out) > _SPILL_CHUNKS:
                    spill()
        append(closers[depth] + "}")

    value(obj, 0)


def encode_json(obj: object, *, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)``, rendered faster.

    The text (or the exception) is always exactly the stdlib's.

    >>> encode_json({"b": [1.5, None], "a": float("nan")}, sort_keys=True)
    '{\\n  "a": NaN,\\n  "b": [\\n    1.5,\\n    null\\n  ]\\n}'
    """
    buf = io.StringIO()
    _stream(buf, obj, sort_keys)
    return buf.getvalue()


def write_json(
    path: str | Path, obj: object, *, sort_keys: bool = False, end: str = ""
) -> Path:
    """Write ``encode_json(obj, sort_keys=sort_keys) + end`` to ``path``.

    Parent directories are created.  The text streams to a temporary
    file in the target's directory, which then replaces the target
    (``os.replace``): readers see the old file or the new one, never a
    partial one.  On any error the temporary file is removed, an
    existing target is left as it was, and the error propagates.  The
    file is created with the default mode (``0o666`` less the umask), as
    :meth:`pathlib.Path.write_text` would.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            _stream(fh, obj, sort_keys)
            fh.write(end)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _stream(fh: IO[str], obj: object, sort_keys: bool) -> None:
    """Render ``obj`` into ``fh`` (at its start) in spilled chunks; on
    anything the fast path does not render, start over with
    ``json.dumps``."""
    out: list[str] = []

    def spill() -> None:
        fh.write("".join(out))
        out.clear()

    try:
        _render(obj, sort_keys, out, spill)
    except Exception:  # noqa: BLE001 - json.dumps renders it or raises its own error
        fh.seek(0)
        fh.truncate()
        fh.write(json.dumps(obj, indent=2, sort_keys=sort_keys))
        return
    spill()
