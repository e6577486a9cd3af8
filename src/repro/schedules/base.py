"""Per-attempt re-execution speed schedules (the `SpeedSchedule` subsystem).

The paper's model fixes one speed ``sigma1`` for the first execution of
a pattern and one speed ``sigma2`` for *all* re-executions.  That is the
minimal instance of a much richer policy space: a **speed schedule**
maps the attempt index ``k`` (1 = first execution, ``k >= 2`` =
re-executions) to the DVFS speed used for that attempt.  This module
defines the abstraction and the concrete policies:

``TwoSpeed(sigma1, sigma2)``
    Exactly the paper: attempt 1 at ``sigma1``, every later attempt at
    ``sigma2``.  The default everywhere; solvers keep the Theorem-1
    closed form as a fast path for it.
``Constant(sigma)``
    Every attempt at the same speed (the single-speed baseline).
``Escalating(speeds, terminal=None)``
    An explicit per-attempt list; attempts beyond the list run at the
    ``terminal`` speed (default: the last list entry).
``Geometric(sigma1, ratio, sigma_max, sigma_min=None)``
    A multiplicative ramp ``sigma1 * ratio**(k-1)`` clamped to
    ``sigma_max`` (and to ``sigma_min`` for back-off ramps with
    ``ratio < 1``).

Every schedule is **eventually constant**: after a finite *head* of
attempts it settles on a *tail speed* forever.  That structural fact is
what makes the general expectation evaluator exact (the attempt series
ends in a geometric sum with a closed form — see
:mod:`repro.schedules.evaluator`) and the Monte-Carlo replay trivially
vectorisable (all samples in re-execution round ``k`` share one speed).

Schedules compare equal (and hash equal) by their *canonical form* —
the normalised ``(head, tail)`` pair — so ``TwoSpeed(s, s)``,
``Constant(s)`` and ``Escalating((s,))`` are the same policy and share
one solve-cache entry.  (The :meth:`~SpeedSchedule.spec` string stays
policy-shaped — ``two:0.4,0.4`` vs ``const:0.4`` — so exports show the
policy the caller wrote; group by :meth:`~SpeedSchedule.canonical` when
identity matters.)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Iterable
from typing import Any

from .._identity import CanonicalIdentity
from ..exceptions import InvalidParameterError, SpeedNotAvailableError
from ..quantities import fmt_round_trip as _fmt
from ..quantities import require_positive

__all__ = [
    "SpeedSchedule",
    "TwoSpeed",
    "Constant",
    "Escalating",
    "Geometric",
    "parse_schedule",
    "schedule_from_dict",
    "schedule_kinds",
    "as_schedule",
]

#: Schema tag for :meth:`SpeedSchedule.to_dict` payloads.
_SCHEDULE_SCHEMA = "repro/speed-schedule/v1"

#: Registered policy kinds, spec-prefix -> class (filled at import time).
_KINDS: dict[str, type["SpeedSchedule"]] = {}


class SpeedSchedule(CanonicalIdentity, abc.ABC):
    """A per-attempt re-execution speed policy.

    Subclasses are frozen dataclasses describing *eventually constant*
    attempt->speed maps: a finite :meth:`head_speeds` prefix followed by
    a constant :attr:`tail_speed`.  Attempt indices are 1-based
    (attempt 1 is the first execution; attempts >= 2 are re-executions).

    Equality, hashing and the solve-cache key all go through
    :meth:`canonical`, so two schedules that assign the same speed to
    every attempt are the same schedule regardless of policy class.
    """

    #: Spec-string prefix of the policy (``"two"``, ``"const"``, ...).
    kind: str = "abstract"

    # ------------------------------------------------------------------
    # Structure every policy must expose
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def head_speeds(self) -> tuple[float, ...]:
        """Speeds of attempts ``1 .. len(head)`` (may be empty)."""

    @property
    @abc.abstractmethod
    def tail_speed(self) -> float:
        """The speed of every attempt beyond the head."""

    @abc.abstractmethod
    def spec(self) -> str:
        """The canonical one-line spec string (``parse_schedule`` inverse)."""

    @abc.abstractmethod
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable payload (see :func:`schedule_from_dict`)."""

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def speed_for_attempt(self, attempt: int) -> float:
        """The speed used by 1-based attempt ``attempt``."""
        if attempt < 1:
            raise InvalidParameterError(
                f"attempt indices are 1-based, got {attempt!r}"
            )
        head = self.head_speeds()
        if attempt <= len(head):
            return head[attempt - 1]
        return self.tail_speed

    def speeds_for_attempts(self, n: int) -> tuple[float, ...]:
        """The first ``n`` attempt speeds as a tuple."""
        return tuple(self.speed_for_attempt(k) for k in range(1, n + 1))

    def normalized(self) -> tuple[tuple[float, ...], float]:
        """``(head, tail)`` with trailing head entries equal to the tail
        stripped — the minimal description of the attempt->speed map."""
        head = list(self.head_speeds())
        tail = self.tail_speed
        while head and head[-1] == tail:
            head.pop()
        return tuple(head), tail

    def _canonical(self) -> tuple:
        """Canonical serialisation key: policy-independent identity.

        Two schedules with equal canonical forms assign the same speed
        to every attempt; this tuple is what equality, hashing and the
        solve cache use.
        """
        head, tail = self.normalized()
        return ("speed-schedule", head, tail)

    def as_two_speed(self) -> tuple[float, float] | None:
        """``(sigma1, sigma2)`` when this schedule is expressible in the
        paper's two-speed model (first attempt at ``sigma1``, every
        re-execution at ``sigma2``), else ``None``.

        This is the closed-form fast-path test: solvers route two-speed
        schedules through Theorem 1 / the pair solvers and only fall
        back to the numeric evaluator when this returns ``None``.
        """
        head, tail = self.normalized()
        if not head:
            return (tail, tail)
        if len(head) == 1:
            return (head[0], tail)
        return None

    @property
    def is_constant(self) -> bool:
        """True when every attempt runs at the same speed."""
        head, _ = self.normalized()
        return not head

    # ------------------------------------------------------------------
    # Validity against a platform's discrete speed set
    # ------------------------------------------------------------------
    def distinct_speeds(self) -> tuple[float, ...]:
        """All speeds the schedule can ever use, first-use order."""
        head, tail = self.normalized()
        seen: dict[float, None] = {}
        for s in (*head, tail):
            seen.setdefault(s, None)
        return tuple(seen)

    def is_valid_for(self, speeds: Iterable[float]) -> bool:
        """True when every schedule speed belongs to ``speeds``."""
        allowed = set(float(s) for s in speeds)
        return all(s in allowed for s in self.distinct_speeds())

    def validate_against(self, speeds: Iterable[float]) -> None:
        """Raise :class:`SpeedNotAvailableError` for the first schedule
        speed outside the platform's discrete DVFS set ``speeds``."""
        allowed = tuple(float(s) for s in speeds)
        allowed_set = set(allowed)
        for s in self.distinct_speeds():
            if s not in allowed_set:
                raise SpeedNotAvailableError(s, allowed)

    def quantized(self, speeds: Iterable[float]) -> "Escalating":
        """The nearest schedule realisable on the discrete set ``speeds``.

        Each attempt speed snaps to the closest available DVFS speed
        (ties break toward the lower speed); the result is returned as
        an explicit :class:`Escalating` policy.
        """
        allowed = sorted(float(s) for s in speeds)
        if not allowed:
            raise InvalidParameterError("speeds must be a non-empty set")

        def snap(s: float) -> float:
            return min(allowed, key=lambda a: (abs(a - s), a))

        head, tail = self.normalized()
        return Escalating(
            speeds=tuple(snap(s) for s in (*head, tail)),
            terminal=snap(tail),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short human-readable tag (the spec string)."""
        return self.spec()

    # ------------------------------------------------------------------
    # Shared serialisation plumbing
    # ------------------------------------------------------------------
    def _dict_payload(self, **fields: Any) -> dict[str, Any]:
        return {"schema": _SCHEDULE_SCHEMA, "kind": self.kind, **fields}


def _register_kind(cls: type[SpeedSchedule]) -> type[SpeedSchedule]:
    """Class decorator: add a policy to the spec/serialisation registry."""
    if cls.kind in _KINDS:  # pragma: no cover - programming error
        raise InvalidParameterError(f"schedule kind {cls.kind!r} already registered")
    _KINDS[cls.kind] = cls
    return cls


# ----------------------------------------------------------------------
# Concrete policies
# ----------------------------------------------------------------------
@_register_kind
@dataclass(frozen=True, eq=False)
class TwoSpeed(SpeedSchedule):
    """The paper's model: ``sigma1`` once, then ``sigma2`` forever.

    Examples
    --------
    >>> TwoSpeed(0.4, 0.6).speeds_for_attempts(4)
    (0.4, 0.6, 0.6, 0.6)
    >>> TwoSpeed(0.4, 0.4) == Constant(0.4)
    True
    """

    sigma1: float
    sigma2: float

    kind = "two"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma1", require_positive(self.sigma1, "sigma1"))
        object.__setattr__(self, "sigma2", require_positive(self.sigma2, "sigma2"))

    def head_speeds(self) -> tuple[float, ...]:
        return (self.sigma1,)

    @property
    def tail_speed(self) -> float:
        return self.sigma2

    def spec(self) -> str:
        return f"two:{_fmt(self.sigma1)},{_fmt(self.sigma2)}"

    def to_dict(self) -> dict[str, Any]:
        return self._dict_payload(sigma1=self.sigma1, sigma2=self.sigma2)

    @classmethod
    def _from_spec_args(cls, args: str) -> "TwoSpeed":
        s1, s2 = _parse_floats(args, expected=2, kind=cls.kind)
        return cls(sigma1=s1, sigma2=s2)

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "TwoSpeed":
        return cls(sigma1=data["sigma1"], sigma2=data["sigma2"])


@_register_kind
@dataclass(frozen=True, eq=False)
class Constant(SpeedSchedule):
    """Every attempt at the same speed (the single-speed baseline).

    Examples
    --------
    >>> Constant(0.5).speed_for_attempt(7)
    0.5
    """

    sigma: float

    kind = "const"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", require_positive(self.sigma, "sigma"))

    def head_speeds(self) -> tuple[float, ...]:
        return ()

    @property
    def tail_speed(self) -> float:
        return self.sigma

    def spec(self) -> str:
        return f"const:{_fmt(self.sigma)}"

    def to_dict(self) -> dict[str, Any]:
        return self._dict_payload(sigma=self.sigma)

    @classmethod
    def _from_spec_args(cls, args: str) -> "Constant":
        (s,) = _parse_floats(args, expected=1, kind=cls.kind)
        return cls(sigma=s)

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "Constant":
        return cls(sigma=data["sigma"])


@_register_kind
@dataclass(frozen=True, eq=False)
class Escalating(SpeedSchedule):
    """An explicit per-attempt speed list with a terminal speed.

    Attempt ``k <= len(speeds)`` runs at ``speeds[k-1]``; every later
    attempt runs at ``terminal`` (default: the last list entry).

    Examples
    --------
    >>> Escalating((0.4, 0.6, 0.8)).speeds_for_attempts(5)
    (0.4, 0.6, 0.8, 0.8, 0.8)
    >>> Escalating((0.4,), terminal=0.8) == TwoSpeed(0.4, 0.8)
    True
    """

    speeds: tuple[float, ...]
    terminal: float | None = None

    kind = "esc"

    def __post_init__(self) -> None:
        speeds = tuple(require_positive(s, "speed") for s in self.speeds)
        if not speeds:
            raise InvalidParameterError("Escalating needs at least one speed")
        object.__setattr__(self, "speeds", speeds)
        terminal = self.terminal
        if terminal is None:
            terminal = speeds[-1]
        object.__setattr__(self, "terminal", require_positive(terminal, "terminal"))

    def head_speeds(self) -> tuple[float, ...]:
        return self.speeds

    @property
    def tail_speed(self) -> float:
        return float(self.terminal)  # __post_init__ guarantees non-None

    def spec(self) -> str:
        head = ",".join(_fmt(s) for s in self.speeds)
        if self.terminal == self.speeds[-1]:
            return f"esc:{head}"
        return f"esc:{head}@{_fmt(self.tail_speed)}"

    def to_dict(self) -> dict[str, Any]:
        return self._dict_payload(speeds=list(self.speeds), terminal=self.terminal)

    @classmethod
    def _from_spec_args(cls, args: str) -> "Escalating":
        head_part, _, term_part = args.partition("@")
        speeds = _parse_floats(head_part, expected=None, kind=cls.kind)
        terminal = None
        if term_part:
            (terminal,) = _parse_floats(term_part, expected=1, kind=cls.kind)
        return cls(speeds=tuple(speeds), terminal=terminal)

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "Escalating":
        return cls(speeds=tuple(data["speeds"]), terminal=data["terminal"])


@_register_kind
@dataclass(frozen=True, eq=False)
class Geometric(SpeedSchedule):
    """A multiplicative speed ramp clamped to ``sigma_max``.

    Attempt ``k`` runs at ``sigma1 * ratio**(k-1)`` clamped into
    ``[sigma_min, sigma_max]``.  ``ratio > 1`` escalates toward
    ``sigma_max`` (re-execute ever faster, bounded by the platform's top
    speed); ``ratio < 1`` backs off toward ``sigma_min`` (which must
    then be given); ``ratio == 1`` degenerates to :class:`Constant`.

    Examples
    --------
    >>> Geometric(0.4, 1.5, sigma_max=1.0).speeds_for_attempts(4)
    (0.4, 0.6000000000000001, 0.9000000000000001, 1.0)
    >>> Geometric(0.8, 0.5, sigma_max=1.0, sigma_min=0.2).speeds_for_attempts(4)
    (0.8, 0.4, 0.2, 0.2)
    """

    sigma1: float
    ratio: float
    sigma_max: float
    sigma_min: float | None = None

    kind = "geom"

    #: Safety cap on the ramp length before the clamp must bite.
    _MAX_HEAD = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma1", require_positive(self.sigma1, "sigma1"))
        object.__setattr__(self, "ratio", require_positive(self.ratio, "ratio"))
        object.__setattr__(self, "sigma_max", require_positive(self.sigma_max, "sigma_max"))
        if self.sigma_min is not None:
            object.__setattr__(
                self, "sigma_min", require_positive(self.sigma_min, "sigma_min")
            )
            if self.sigma_min > self.sigma_max:
                raise InvalidParameterError(
                    f"sigma_min {self.sigma_min} exceeds sigma_max {self.sigma_max}"
                )
        if self.sigma1 > self.sigma_max or (
            self.sigma_min is not None and self.sigma1 < self.sigma_min
        ):
            raise InvalidParameterError(
                f"sigma1 {self.sigma1} outside the clamp window "
                f"[{self.sigma_min}, {self.sigma_max}]"
            )
        if self.ratio < 1.0 and self.sigma_min is None:
            raise InvalidParameterError(
                "a back-off ramp (ratio < 1) needs an explicit sigma_min floor"
            )
        # Materialise the ramp once; it is tiny (the clamp bites after
        # O(log(sigma_max/sigma1)/log(ratio)) attempts).
        object.__setattr__(self, "_head", self._ramp())

    def _clamp(self, s: float) -> float:
        lo = self.sigma_min if self.sigma_min is not None else 0.0
        return min(max(s, lo), self.sigma_max)

    def _ramp(self) -> tuple[float, ...]:
        if self.ratio == 1.0:
            return ()
        head: list[float] = []
        s = self.sigma1
        limit = self.sigma_max if self.ratio > 1.0 else float(self.sigma_min)
        for _ in range(self._MAX_HEAD):
            clamped = self._clamp(s)
            if clamped == limit:
                break
            head.append(clamped)
            s *= self.ratio
        else:  # pragma: no cover - ratio ~ 1 pathologies only
            raise InvalidParameterError(
                f"geometric ramp failed to reach its clamp within "
                f"{self._MAX_HEAD} attempts (ratio too close to 1?)"
            )
        return tuple(head)

    def head_speeds(self) -> tuple[float, ...]:
        return self._head  # type: ignore[attr-defined]

    @property
    def tail_speed(self) -> float:
        if self.ratio == 1.0:
            return self.sigma1
        if self.ratio > 1.0:
            return self.sigma_max
        return float(self.sigma_min)

    def spec(self) -> str:
        base = f"geom:{_fmt(self.sigma1)},{_fmt(self.ratio)},{_fmt(self.sigma_max)}"
        if self.sigma_min is not None:
            return f"{base},{_fmt(self.sigma_min)}"
        return base

    def to_dict(self) -> dict[str, Any]:
        return self._dict_payload(
            sigma1=self.sigma1,
            ratio=self.ratio,
            sigma_max=self.sigma_max,
            sigma_min=self.sigma_min,
        )

    @classmethod
    def _from_spec_args(cls, args: str) -> "Geometric":
        values = _parse_floats(args, expected=None, kind=cls.kind)
        if len(values) == 3:
            return cls(sigma1=values[0], ratio=values[1], sigma_max=values[2])
        if len(values) == 4:
            return cls(
                sigma1=values[0], ratio=values[1],
                sigma_max=values[2], sigma_min=values[3],
            )
        raise InvalidParameterError(
            f"geom takes 3 or 4 comma-separated values "
            f"(sigma1,ratio,sigma_max[,sigma_min]), got {len(values)}"
        )

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "Geometric":
        return cls(
            sigma1=data["sigma1"],
            ratio=data["ratio"],
            sigma_max=data["sigma_max"],
            sigma_min=data.get("sigma_min"),
        )


# ----------------------------------------------------------------------
# Parsing / serialisation front doors
# ----------------------------------------------------------------------
def _parse_floats(text: str, expected: int | None, kind: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if expected is not None and len(parts) != expected:
        raise InvalidParameterError(
            f"schedule kind {kind!r} takes {expected} comma-separated "
            f"value(s), got {len(parts)} in {text!r}"
        )
    if not parts:
        raise InvalidParameterError(f"schedule kind {kind!r} needs at least one value")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidParameterError(f"bad schedule number in {text!r}: {exc}") from None


def parse_schedule(spec: str) -> SpeedSchedule:
    """Parse a spec string (``"two:0.4,0.6"``, ``"geom:0.4,1.5,1"`` ...).

    The inverse of :meth:`SpeedSchedule.spec`; the grammar is
    ``<kind>:<comma-separated numbers>`` with the per-kind argument
    lists documented on each policy class (``repro schedules`` lists
    them from the CLI).
    """
    kind, sep, args = spec.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in _KINDS:
        raise InvalidParameterError(
            f"unknown schedule spec {spec!r}; valid kinds: "
            f"{', '.join(sorted(_KINDS))} (e.g. 'two:0.4,0.6')"
        )
    return _KINDS[kind]._from_spec_args(args)


def schedule_from_dict(data: dict[str, Any]) -> SpeedSchedule:
    """Restore a schedule from :meth:`SpeedSchedule.to_dict` output."""
    if data.get("schema") != _SCHEDULE_SCHEMA:
        raise InvalidParameterError(f"not a speed-schedule payload: {data.get('schema')!r}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown schedule kind {kind!r}")
    return _KINDS[kind]._from_dict(data)


def schedule_kinds() -> dict[str, type[SpeedSchedule]]:
    """The registered policy kinds, spec-prefix -> class (sorted copy)."""
    return dict(sorted(_KINDS.items()))


def as_schedule(value: "SpeedSchedule | str | None") -> SpeedSchedule | None:
    """Coerce ``value`` to a schedule: specs parse, ``None`` passes through."""
    if value is None or isinstance(value, SpeedSchedule):
        return value
    if isinstance(value, str):
        return parse_schedule(value)
    raise InvalidParameterError(
        f"schedule must be a SpeedSchedule or a spec string, got {type(value).__name__}"
    )