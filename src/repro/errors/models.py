"""Pluggable renewal arrival processes (the error-model subsystem).

The paper — and, until this module, every layer of this repo — models
error arrivals as a Poisson process: memoryless, with per-attempt
failure probability ``1 - exp(-lambda t)``.  Real HPC failure traces
are famously *not* exponential (Weibull fits with shape < 1 are the
standard finding), but the pattern structure rescues generality:
**recovery restarts the arrival pattern**, so each attempt draws a
fresh inter-arrival time — a *renewal process* — and every per-attempt
quantity the schedule evaluator needs reduces to two primitives of the
inter-arrival distribution:

* ``failure_probability(t)`` — the CDF: probability that the first
  arrival lands within ``t`` seconds of the attempt's start;
* ``expected_exposure(t)`` — ``E[min(X, t)]``: the expected busy time
  before the first arrival or the window's end (what an interrupting
  fail-stop error actually costs).

This module defines the :class:`ArrivalProcess` abstraction plus four
concrete families — :class:`ExponentialArrivals` (the paper's Poisson
arrivals), :class:`WeibullArrivals`, :class:`GammaArrivals` and
:class:`TraceArrivals` (empirical CDF from a failure log) — and the
:class:`ErrorModel`: a total arrival process split into fail-stop and
silent sources.  ``ErrorModel`` is the one error type the evaluator,
the grid kernel and the simulators handle; the paper's Section-5 model
is ``ErrorModel(ExponentialArrivals(lambda), f)``, and
:func:`as_error_model` lifts the Section-5 parameter object
:class:`~repro.errors.combined.CombinedErrors` into it.

**Splitting semantics.**  Section 5 splits a Poisson process of rate
``lambda`` into independent Poisson sources ``f lambda`` and
``(1-f) lambda``; for a Poisson process that *is* what independent
thinning produces.  For a general renewal family thinning does not stay
in the family, so the model *defines* the split the same way the
exponential case comes out: each source is an independent renewal
process of the same family with its MTBF scaled to ``mu / f`` (resp.
``mu / (1-f)``).  :meth:`ArrivalProcess.thinned` implements this
scaling, and with :class:`ExponentialArrivals` the definition coincides
exactly with the classical split.

**Serialisation.**  Models round-trip through one-line spec strings
(``weibull:shape=0.7,mtbf=5e3,failstop=0.2``; grammar:
``<kind>:<key>=<value>,...`` — see :func:`parse_error_model` and
``repro errors`` on the CLI) and JSON dicts, and carry a canonical
identity (:meth:`ErrorModel.canonical`) that equality, hashing and the
solve cache all share.

**What keeps working closed-form.**  The per-attempt geometric tail of
the schedule evaluator survives for *any* renewal process: once the
schedule reaches its constant tail speed, the per-attempt failure
probability is the constant ``CDF(tau)``, so the attempt series still
ends in an exactly-summable geometric tail.  What does *not* survive is
the two-speed closed forms (Theorem 1, Section 5) — those rest on
memorylessness, and their entry points raise
:class:`~repro.exceptions.UnsupportedErrorModelError` via
:func:`require_memoryless` instead of silently computing with the
wrong formula.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable
from typing import Any

import numpy as np

from .._identity import CanonicalIdentity
from ..exceptions import InvalidParameterError, UnsupportedErrorModelError
from ..quantities import (
    FloatArray,
    ScalarOrArray,
    as_float_array,
    fmt_round_trip as _fmt,
    is_scalar,
    require_positive,
    require_probability,
)
from .combined import CombinedErrors
from .exponential import capped_exposure

__all__ = [
    "ArrivalProcess",
    "ExponentialArrivals",
    "WeibullArrivals",
    "GammaArrivals",
    "TraceArrivals",
    "ErrorModel",
    "parse_error_model",
    "error_model_from_dict",
    "error_model_kinds",
    "as_error_model",
    "require_memoryless",
]

#: Schema tag for :meth:`ErrorModel.to_dict` payloads.
_MODEL_SCHEMA = "repro/error-model/v1"

#: Registered arrival families, spec-prefix -> class (filled at import).
_KINDS: dict[str, type["ArrivalProcess"]] = {}


def _nonneg_exposure(exposure: ScalarOrArray) -> FloatArray:
    t = as_float_array(exposure)
    if (t < 0).any():  # the method, not np.any: every kernel probe runs this
        raise InvalidParameterError("exposure must be >= 0")
    return t


class ArrivalProcess(CanonicalIdentity, abc.ABC):
    """One renewal error-arrival family: fresh inter-arrival per attempt.

    Subclasses are frozen dataclasses describing the distribution of the
    inter-arrival time ``X`` (seconds).  The per-attempt primitives —
    :meth:`failure_probability` (the CDF) and :meth:`expected_exposure`
    (``E[min(X, t)]``) — are what the schedule evaluator, the vectorised
    kernel and the Monte-Carlo engine consume; everything else derives
    from them.  All primitives broadcast over array exposures.

    Equality and hashing go through :meth:`canonical`, so processes of
    the same family with the same parameters are one process for the
    solve cache.
    """

    #: Spec-string prefix of the family (``"exp"``, ``"weibull"``, ...).
    kind: str = "abstract"

    # ------------------------------------------------------------------
    # Primitives every family must provide
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def mtbf(self) -> float:
        """Mean inter-arrival time ``E[X]`` in seconds."""

    @abc.abstractmethod
    def _cdf(self, t: FloatArray) -> FloatArray:
        """The CDF on a float64 array of windows ``t >= 0``, unchecked
        (the kernel's entry; :meth:`failure_probability` wraps it)."""

    @abc.abstractmethod
    def _capped(self, t: FloatArray) -> FloatArray:
        """``E[min(X, t)]`` on a float64 array of windows ``t >= 0``,
        unchecked (:meth:`expected_exposure` wraps it)."""

    def failure_probability(self, exposure: ScalarOrArray) -> ScalarOrArray:
        """CDF: probability of >= 1 arrival within ``exposure`` seconds.

        Broadcasts over ``exposure``; rejects negative windows.
        """
        p = self._cdf(_nonneg_exposure(exposure))
        return float(p) if is_scalar(exposure) else p

    def expected_exposure(self, window: ScalarOrArray) -> ScalarOrArray:
        """``E[min(X, t)]``: expected busy seconds before the first
        arrival or the window's end.  Broadcasts over ``window``."""
        m = self._capped(_nonneg_exposure(window))
        return float(m) if is_scalar(window) else m

    @abc.abstractmethod
    def sample_interarrivals(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FloatArray:
        """Draw fresh first-arrival times ``X`` (seconds), one per attempt."""

    @abc.abstractmethod
    def thinned(self, fraction: float) -> "ArrivalProcess":
        """The same family with its MTBF scaled to ``mtbf / fraction``.

        The source-splitting primitive: a fraction-``f`` sub-source of
        this process (see the module docstring for the semantics).
        """

    @abc.abstractmethod
    def _params(self) -> dict[str, Any]:
        """Ordered parameter dict (spec-string / JSON payload fields)."""

    @classmethod
    @abc.abstractmethod
    def _from_spec_kv(cls, kv: dict[str, str]) -> "ArrivalProcess":
        """Build from the parsed ``key=value`` pairs of a spec string."""

    def _dict_params(self) -> dict[str, Any]:
        """Constructor-kwarg payload for JSON round-trips.

        Defaults to :meth:`_params`; families whose spec parameters are
        not literal constructor kwargs (trace files) override this so
        ``error_model_from_dict`` can rebuild without side lookups.
        """
        return self._params()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_memoryless(self) -> bool:
        """True only for the exponential family.

        Gates the exponential forms (the Section-5 closed forms, the grid
        kernel's rate columns): they key off this flag, never off
        parameter values (a Weibull with shape 1 is mathematically
        exponential but stays on the generic renewal path).
        """
        return False

    def survival_probability(self, exposure: ScalarOrArray) -> ScalarOrArray:
        """``1 - CDF``: probability no arrival strikes within the window."""
        t = _nonneg_exposure(exposure)
        q = 1.0 - self.failure_probability(t)
        return float(q) if is_scalar(exposure) else q

    def expected_time_lost(self, window: ScalarOrArray) -> ScalarOrArray:
        """``E[X | X < t]``: mean arrival time given an in-window strike.

        Derived from the primitives via
        ``E[min(X,t)] = E[X ; X < t] + t S(t)``; the renewal analogue of
        :meth:`ExponentialArrivals.expected_time_lost`.
        Where the strike probability underflows to 0 the conditional is
        returned as ``t / 2`` (the universal small-window limit for a
        locally flat density) rather than NaN.
        """
        t = _nonneg_exposure(window)
        p = np.asarray(self.failure_probability(t), dtype=np.float64)
        m = np.asarray(self.expected_exposure(t), dtype=np.float64)
        s = 1.0 - p
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = (m - t * s) / p
        out = np.where(p > 0.0, cond, t / 2.0)
        return float(out) if is_scalar(window) else out

    # ------------------------------------------------------------------
    # Identity / serialisation
    # ------------------------------------------------------------------
    def _canonical(self) -> tuple:
        """Canonical identity: ``(tag, kind, sorted parameter items)``."""
        items = tuple(
            (k, v if not isinstance(v, (list, np.ndarray)) else tuple(v))
            for k, v in sorted(self._params().items())
        )
        return ("arrival-process", self.kind, items)

    def spec(self) -> str:
        """One-line spec string (:func:`parse_error_model` inverse,
        modulo the ``failstop=`` split the model adds)."""
        args = ",".join(f"{k}={self._spec_value(k, v)}" for k, v in self._params().items())
        return f"{self.kind}:{args}"

    def _spec_value(self, key: str, value: Any) -> str:
        return _fmt(float(value))

    def describe(self) -> str:
        """Short human-readable tag (the spec string)."""
        return self.spec()


def _register_kind(cls: type[ArrivalProcess]) -> type[ArrivalProcess]:
    """Class decorator: add a family to the spec/serialisation registry."""
    if cls.kind in _KINDS:  # pragma: no cover - programming error
        raise InvalidParameterError(f"arrival-process kind {cls.kind!r} already registered")
    _KINDS[cls.kind] = cls
    return cls


def _parse_kv(args: str, kind: str) -> dict[str, str]:
    """Parse ``key=value`` comma-separated spec arguments."""
    kv: dict[str, str] = {}
    for part in (p.strip() for p in args.split(",") if p.strip()):
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        if not sep or not key or not value.strip():
            raise InvalidParameterError(
                f"bad error-model argument {part!r} for kind {kind!r}; "
                f"the grammar is <kind>:<key>=<value>,..."
            )
        if key in kv:
            raise InvalidParameterError(
                f"duplicate error-model argument {key!r} in {args!r}"
            )
        kv[key] = value.strip()
    return kv


def _pop_float(kv: dict[str, str], key: str, kind: str) -> float:
    raw = kv.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise InvalidParameterError(
            f"bad number {raw!r} for {key!r} in error-model kind {kind!r}"
        ) from None


def _reject_unknown(kv: dict[str, str], kind: str) -> None:
    if kv:
        raise InvalidParameterError(
            f"unknown error-model argument(s) {sorted(kv)} for kind {kind!r}"
        )


def _scale_from_spec(
    kv: dict[str, str],
    kind: str,
    mtbf_to_scale: Callable[[float], float],
    *,
    required: bool = True,
) -> float | None:
    """Resolve the ``scale=`` / ``mtbf=`` alternative of a spec string.

    Exactly one of the two keys must be present (``mtbf`` is the sugar
    users think in; ``scale`` is the stored parameter the canonical spec
    emits so round-trips are exact).  ``mtbf_to_scale`` converts.
    """
    has_scale = "scale" in kv
    has_mtbf = "mtbf" in kv
    if has_scale and has_mtbf:
        raise InvalidParameterError(
            f"error-model kind {kind!r} takes scale= or mtbf=, not both"
        )
    if has_scale:
        return _pop_float(kv, "scale", kind)
    if has_mtbf:
        return mtbf_to_scale(_pop_float(kv, "mtbf", kind))
    if required:
        raise InvalidParameterError(
            f"error-model kind {kind!r} needs scale= or mtbf="
        )
    return None


# ----------------------------------------------------------------------
# Concrete families
# ----------------------------------------------------------------------
@_register_kind
@dataclass(frozen=True, eq=False)
class ExponentialArrivals(ArrivalProcess):
    """Memoryless (Poisson) arrivals of rate ``rate``: the paper's model.

    The CDF is ``1 - exp(-rate t)`` (Section 2.1) and the capped
    exposure is :func:`~repro.errors.exponential.capped_exposure`, the
    expressions of the Section-5 closed forms in :mod:`repro.failstop`,
    so every path through this class computes the same floats as they
    do (the equivalence tests pin this).

    Examples
    --------
    >>> p = ExponentialArrivals(rate=1e-4)
    >>> p.mtbf
    10000.0
    >>> p.thinned(0.25).rate
    2.5e-05
    """

    rate: float

    kind = "exp"

    def __post_init__(self) -> None:
        require_positive(self.rate, "rate")

    @property
    def is_memoryless(self) -> bool:
        return True

    @property
    def mtbf(self) -> float:
        return 1.0 / self.rate

    def _cdf(self, t: FloatArray) -> FloatArray:
        return -np.expm1(-self.rate * t)

    def survival_probability(self, exposure: ScalarOrArray) -> ScalarOrArray:
        t = _nonneg_exposure(exposure)
        q = np.exp(-self.rate * t)
        return float(q) if is_scalar(exposure) else q

    def _capped(self, t: FloatArray) -> FloatArray:
        return capped_exposure(self.rate, t)  # type: ignore[return-value]

    def expected_time_lost(self, window: ScalarOrArray) -> ScalarOrArray:
        """``T_lost = 1/lambda - t / (exp(lambda t) - 1)``: the mean
        arrival time of an error that strikes within the window ``t``
        (Section 5.1, citing Herault & Robert).

        For ``lambda * t -> 0`` this tends to ``t / 2`` (an error
        strikes "on average at half the period", the classic Young/Daly
        heuristic); the ``expm1`` form is used, with the Taylor value
        ``t/2 * (1 - lambda t / 6)`` once ``lambda * t`` falls below
        ~1e-8, where ``expm1(x) ~ x`` loses all precision in the
        subtraction.
        """
        t = _nonneg_exposure(window)
        x = self.rate * t
        # For huge lambda*t, expm1 overflows to inf and t/inf -> 0, which
        # is the correct limit (the loss tends to the MTBF).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            exact = 1.0 / self.rate - t / np.expm1(x)
        series = t / 2.0 * (1.0 - x / 6.0)
        out = np.where(x < 1e-8, series, exact)
        return float(out) if is_scalar(window) else out

    def sample_interarrivals(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FloatArray:
        return rng.exponential(scale=self.mtbf, size=size)

    def thinned(self, fraction: float) -> "ExponentialArrivals":
        return ExponentialArrivals(rate=self.rate * require_positive(fraction, "fraction"))

    def _params(self) -> dict[str, Any]:
        return {"rate": self.rate}

    @classmethod
    def _from_spec_kv(cls, kv: dict[str, str]) -> "ExponentialArrivals":
        has_rate = "rate" in kv
        has_mtbf = "mtbf" in kv
        if has_rate and has_mtbf:
            raise InvalidParameterError("exp takes rate= or mtbf=, not both")
        if has_rate:
            rate = _pop_float(kv, "rate", cls.kind)
        elif has_mtbf:
            rate = 1.0 / _pop_float(kv, "mtbf", cls.kind)
        else:
            raise InvalidParameterError("exp needs rate= or mtbf=")
        _reject_unknown(kv, cls.kind)
        return cls(rate=rate)


@_register_kind
@dataclass(frozen=True, eq=False)
class WeibullArrivals(ArrivalProcess):
    """Weibull inter-arrivals: the standard fit for HPC failure traces.

    ``CDF(t) = 1 - exp(-(t/scale)^shape)``.  ``shape < 1`` (the
    empirically typical regime) means a decreasing hazard rate — infant
    mortality: young attempts fail more readily than the exponential
    model predicts; ``shape > 1`` models wear-out; ``shape = 1`` is
    mathematically exponential (but stays on the generic renewal path —
    use :class:`ExponentialArrivals` for the closed-form fast paths).

    ``E[min(X, t)] = mtbf * P(1/shape, (t/scale)^shape)`` with ``P`` the
    regularised lower incomplete gamma function (substitute
    ``v = (u/scale)^shape`` in the survival integral).

    Examples
    --------
    >>> w = WeibullArrivals.from_mtbf(shape=0.7, mtbf=5e3)
    >>> round(w.mtbf, 6)
    5000.0
    """

    shape: float
    scale: float

    kind = "weibull"

    def __post_init__(self) -> None:
        require_positive(self.shape, "shape")
        require_positive(self.scale, "scale")

    @classmethod
    def from_mtbf(cls, shape: float, mtbf: float) -> "WeibullArrivals":
        """The shape-``k`` Weibull with mean ``mtbf``
        (``scale = mtbf / Gamma(1 + 1/k)``)."""
        require_positive(shape, "shape")
        require_positive(mtbf, "mtbf")
        return cls(shape=shape, scale=mtbf / math.gamma(1.0 + 1.0 / shape))

    @property
    def mtbf(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def _cdf(self, t: FloatArray) -> FloatArray:
        return -np.expm1(-((t / self.scale) ** self.shape))

    def survival_probability(self, exposure: ScalarOrArray) -> ScalarOrArray:
        t = _nonneg_exposure(exposure)
        q = np.exp(-((t / self.scale) ** self.shape))
        return float(q) if is_scalar(exposure) else q

    def _capped(self, t: FloatArray) -> FloatArray:
        from scipy.special import gammainc

        return self.mtbf * gammainc(1.0 / self.shape, (t / self.scale) ** self.shape)

    def sample_interarrivals(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FloatArray:
        return self.scale * rng.weibull(self.shape, size=size)

    def thinned(self, fraction: float) -> "WeibullArrivals":
        return WeibullArrivals(
            shape=self.shape,
            scale=self.scale / require_positive(fraction, "fraction"),
        )

    def _params(self) -> dict[str, Any]:
        return {"shape": self.shape, "scale": self.scale}

    @classmethod
    def _from_spec_kv(cls, kv: dict[str, str]) -> "WeibullArrivals":
        if "shape" not in kv:
            raise InvalidParameterError("weibull needs shape=")
        shape = _pop_float(kv, "shape", cls.kind)
        require_positive(shape, "shape")
        scale = _scale_from_spec(
            kv, cls.kind, lambda mtbf: mtbf / math.gamma(1.0 + 1.0 / shape)
        )
        _reject_unknown(kv, cls.kind)
        return cls(shape=shape, scale=scale)


@_register_kind
@dataclass(frozen=True, eq=False)
class GammaArrivals(ArrivalProcess):
    """Gamma inter-arrivals: arrivals gated behind ``shape`` latent stages.

    ``CDF(t) = P(shape, t/scale)`` (regularised lower incomplete gamma).
    ``shape > 1`` models a latency before failures become likely (e.g.
    memory occupancy building up); ``shape < 1`` clusters arrivals near
    the start; ``shape = 1`` is exponential.

    ``E[min(X, t)] = t Q(k, x) + k scale P(k+1, x)`` with ``x = t/scale``
    (integrate the survival function by parts; ``u p_k(u) = k theta
    p_{k+1}(u)`` collapses the density term).

    Examples
    --------
    >>> g = GammaArrivals(shape=2.0, scale=2500.0)
    >>> g.mtbf
    5000.0
    """

    shape: float
    scale: float

    kind = "gamma"

    def __post_init__(self) -> None:
        require_positive(self.shape, "shape")
        require_positive(self.scale, "scale")

    @classmethod
    def from_mtbf(cls, shape: float, mtbf: float) -> "GammaArrivals":
        """The shape-``k`` Gamma with mean ``mtbf`` (``scale = mtbf/k``)."""
        require_positive(shape, "shape")
        require_positive(mtbf, "mtbf")
        return cls(shape=shape, scale=mtbf / shape)

    @property
    def mtbf(self) -> float:
        return self.shape * self.scale

    def _cdf(self, t: FloatArray) -> FloatArray:
        from scipy.special import gammainc

        return gammainc(self.shape, t / self.scale)

    def survival_probability(self, exposure: ScalarOrArray) -> ScalarOrArray:
        from scipy.special import gammaincc

        t = _nonneg_exposure(exposure)
        q = gammaincc(self.shape, t / self.scale)
        return float(q) if is_scalar(exposure) else q

    def _capped(self, t: FloatArray) -> FloatArray:
        from scipy.special import gammainc, gammaincc

        x = t / self.scale
        return t * gammaincc(self.shape, x) + self.mtbf * gammainc(self.shape + 1.0, x)

    def sample_interarrivals(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FloatArray:
        return rng.gamma(self.shape, self.scale, size=size)

    def thinned(self, fraction: float) -> "GammaArrivals":
        return GammaArrivals(
            shape=self.shape,
            scale=self.scale / require_positive(fraction, "fraction"),
        )

    def _params(self) -> dict[str, Any]:
        return {"shape": self.shape, "scale": self.scale}

    @classmethod
    def _from_spec_kv(cls, kv: dict[str, str]) -> "GammaArrivals":
        if "shape" not in kv:
            raise InvalidParameterError("gamma needs shape=")
        shape = _pop_float(kv, "shape", cls.kind)
        require_positive(shape, "shape")
        scale = _scale_from_spec(kv, cls.kind, lambda mtbf: mtbf / shape)
        _reject_unknown(kv, cls.kind)
        return cls(shape=shape, scale=scale)


@_register_kind
@dataclass(frozen=True, eq=False)
class TraceArrivals(ArrivalProcess):
    """Empirical arrivals: the ECDF of observed inter-failure times.

    ``times`` are inter-arrival samples (seconds) from a failure log;
    the process uses their empirical CDF directly, so the model *is*
    the trace — no distributional fit.  Order is irrelevant (a sample
    set); the canonical identity sorts.  ``E[min(X, t)]`` is the exact
    sample mean of ``min(x_i, t)``, computed from a prefix-sum over the
    sorted samples so array windows stay vectorised.

    Build from a log file with :meth:`from_log` (one inter-arrival per
    line, ``#`` comments and blank lines skipped).

    Examples
    --------
    >>> tr = TraceArrivals(times=(1000.0, 3000.0, 8000.0))
    >>> tr.mtbf
    4000.0
    >>> tr.failure_probability(3000.0)  # 2 of 3 samples within window
    0.6666666666666666
    """

    times: tuple[float, ...]
    #: Provenance: the log path when built via :meth:`from_log` (the
    #: spec string then round-trips through the file).
    source: str | None = None
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "trace"

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if not times:
            raise InvalidParameterError("TraceArrivals needs at least one sample")
        for t in times:
            if not math.isfinite(t) or t <= 0.0:
                raise InvalidParameterError(
                    f"trace inter-arrival times must be finite and > 0, got {t!r}"
                )
        object.__setattr__(self, "times", times)
        srt = np.sort(np.asarray(times, dtype=np.float64))
        object.__setattr__(self, "_sorted", srt)
        object.__setattr__(
            self, "_prefix", np.concatenate([[0.0], np.cumsum(srt)])
        )

    @classmethod
    def from_log(cls, path: str | Path) -> "TraceArrivals":
        """Load inter-arrival samples from a failure log file.

        Raises
        ------
        InvalidParameterError
            For unreadable paths and malformed contents alike, so spec
            parsing (``trace:file=...``) surfaces one typed error for
            every bad input instead of leaking ``OSError``.
        """
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot read failure log {p}: {exc}"
            ) from exc
        times: list[float] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            entry = line.split("#", 1)[0].strip()
            if not entry:
                continue
            try:
                times.append(float(entry))
            except ValueError:
                raise InvalidParameterError(
                    f"bad inter-arrival value {entry!r} at {p}:{lineno}"
                ) from None
        if not times:
            raise InvalidParameterError(f"failure log {p} holds no samples")
        return cls(times=tuple(times), source=str(p))

    @property
    def n_samples(self) -> int:
        """Number of trace samples behind the ECDF."""
        return len(self.times)

    @property
    def mtbf(self) -> float:
        return float(self._prefix[-1] / self.n_samples)

    def _cdf(self, t: FloatArray) -> FloatArray:
        return np.searchsorted(self._sorted, t, side="right") / self.n_samples

    def _capped(self, t: FloatArray) -> FloatArray:
        n = self.n_samples
        k = np.searchsorted(self._sorted, t, side="right")
        return (self._prefix[k] + (n - k) * t) / n

    def sample_interarrivals(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FloatArray:
        return rng.choice(self._sorted, size=size, replace=True)

    def thinned(self, fraction: float) -> "TraceArrivals":
        f = require_positive(fraction, "fraction")
        return TraceArrivals(times=tuple(t / f for t in self.times))

    def _params(self) -> dict[str, Any]:
        if self.source is not None:
            return {"file": self.source}
        return {"times": self.times}

    def _dict_params(self) -> dict[str, Any]:
        # JSON payloads always embed the samples (a spec string may
        # defer to the log file, but a serialized result must not
        # depend on the file still existing at load time).
        return {"times": self.times, "source": self.source}

    def _spec_value(self, key: str, value: Any) -> str:
        if key == "file":
            return str(value)
        return ";".join(_fmt(t) for t in value)

    def _canonical(self) -> tuple:
        # Identity is the sample *set*, not its provenance: the same
        # trace loaded from a file or passed inline is one process.
        return ("arrival-process", self.kind, tuple(sorted(self.times)))

    @classmethod
    def _from_spec_kv(cls, kv: dict[str, str]) -> "TraceArrivals":
        has_file = "file" in kv
        has_times = "times" in kv
        if has_file == has_times:
            raise InvalidParameterError("trace needs exactly one of file= or times=")
        if has_file:
            path = kv.pop("file")
            _reject_unknown(kv, cls.kind)
            return cls.from_log(path)
        raw = kv.pop("times")
        _reject_unknown(kv, cls.kind)
        try:
            times = tuple(float(p) for p in raw.split(";") if p.strip())
        except ValueError:
            raise InvalidParameterError(
                f"bad trace times list {raw!r} (semicolon-separated numbers)"
            ) from None
        return cls(times=times)


# ----------------------------------------------------------------------
# The generalised error model (one process per source)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ErrorModel(CanonicalIdentity):
    """Fail-stop/silent error split over an arbitrary renewal family.

    A total arrival ``process`` plus the fraction ``failstop_fraction``
    of errors that are fail-stop, with each source an independent
    renewal process of the same family at MTBF ``mu/f`` resp.
    ``mu/(1-f)`` (exactly the classical split when the family is
    exponential: the paper's Section-5 model is
    ``ErrorModel(ExponentialArrivals(lambda), f)``).

    Fail-stop errors expose the whole ``(W+V)/sigma`` attempt, silent
    errors the ``W/sigma`` computation window.  This is the one error
    type the schedule evaluator, the vectorised kernel and the
    Monte-Carlo engines handle; a memoryless model's primitives are the
    Section-5 closed forms' exponential expressions, bit for bit.

    Examples
    --------
    >>> m = parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=0.2")
    >>> m.failstop_fraction, m.process.kind
    (0.2, 'weibull')
    >>> parse_error_model(m.spec()) == m
    True
    """

    process: ArrivalProcess
    failstop_fraction: float = 0.0
    _failstop: ArrivalProcess | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _silent: ArrivalProcess | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not isinstance(self.process, ArrivalProcess):
            raise InvalidParameterError(
                f"process must be an ArrivalProcess, got "
                f"{type(self.process).__name__}"
            )
        require_probability(self.failstop_fraction, "failstop_fraction")
        f = self.failstop_fraction
        # Cache the per-source processes: thinning a TraceArrivals copies
        # its sample arrays, and the solvers call the primitives in hot
        # bracketing loops.
        object.__setattr__(self, "_failstop", self._source(f))
        object.__setattr__(self, "_silent", self._source(1.0 - f))

    def _source(self, fraction: float) -> ArrivalProcess | None:
        """The fraction-``fraction`` source, ``None`` when it never fires:
        a zero fraction, or an exponential rate that underflows to 0 (a
        denormal split such as ``f = 5e-324``, which the Section-5 closed
        forms take as an absent source)."""
        if fraction == 1.0:
            return self.process
        if fraction == 0.0 or (
            self.process.is_memoryless and self.process.rate * fraction == 0.0  # type: ignore[attr-defined]
        ):
            return None
        return self.process.thinned(fraction)

    # ------------------------------------------------------------------
    @property
    def silent_fraction(self) -> float:
        """``s = 1 - f``: fraction of errors that are silent."""
        return 1.0 - self.failstop_fraction

    @property
    def is_memoryless(self) -> bool:
        """True when the arrival family is exponential (closed forms apply)."""
        return self.process.is_memoryless

    @property
    def mtbf(self) -> float:
        """Mean time between errors of the total process (seconds)."""
        return self.process.mtbf

    @property
    def failstop_arrivals(self) -> ArrivalProcess | None:
        """The fail-stop source process, or ``None`` when it never fires
        (``f = 0``, or an exponential rate ``lambda f`` that underflows
        to 0)."""
        return self._failstop

    @property
    def silent_arrivals(self) -> ArrivalProcess | None:
        """The silent source process, or ``None`` when it never fires
        (``f = 1``, or an exponential rate ``lambda (1 - f)`` that
        underflows to 0)."""
        return self._silent

    def _rates(self) -> tuple[float, float]:
        """``(lambda_f, lambda_s)`` of a memoryless model: each source's
        exponential rate, 0 for an absent source."""
        f, s = self._failstop, self._silent
        return (
            0.0 if f is None else f.rate,  # type: ignore[attr-defined]
            0.0 if s is None else s.rate,  # type: ignore[attr-defined]
        )

    # ------------------------------------------------------------------
    # Bridges to the Section-5 parameter object
    # ------------------------------------------------------------------
    def to_combined(self) -> CombinedErrors:
        """The :class:`CombinedErrors` of a memoryless model (the
        parameter object of the Section-5 closed forms).

        Raises
        ------
        UnsupportedErrorModelError
            When the family is not exponential (there is no equivalent
            closed-form model to return).
        """
        if not self.is_memoryless:
            raise UnsupportedErrorModelError("ErrorModel.to_combined", self)
        return CombinedErrors(
            total_rate=self.process.rate,  # type: ignore[attr-defined]
            failstop_fraction=self.failstop_fraction,
        )

    @classmethod
    def from_combined(cls, errors: CombinedErrors) -> "ErrorModel":
        """Lift a :class:`CombinedErrors` into the model layer."""
        return cls(
            process=ExponentialArrivals(rate=errors.total_rate),
            failstop_fraction=errors.failstop_fraction,
        )

    # ------------------------------------------------------------------
    # Per-attempt expectations (the schedule-evaluator primitives)
    # ------------------------------------------------------------------
    def per_window_primitives(
        self, tau: ScalarOrArray, omega: ScalarOrArray
    ) -> tuple[FloatArray, FloatArray]:
        """``(failure probability, capped busy time)`` for one attempt
        with fail-stop window ``tau`` and computation window ``omega``.

        An attempt fails when the fail-stop source strikes within ``tau``
        *or* the silent source strikes within ``omega`` (independent
        sources), and the busy time is the fail-stop-capped exposure
        ``E[min(X_f, tau)]`` (the full ``tau`` when no fail-stop
        source exists — silent errors are only caught by the
        verification).  Broadcasts over arrays and rejects negative
        windows; wraps :meth:`_window_primitives` (the vectorised
        kernel's entry, on its own float64 arrays) and is wrapped by
        :meth:`attempt_failure_probability` / :meth:`attempt_exposure`.
        """
        tau = _nonneg_exposure(tau)
        p, m = self._window_primitives(tau, _nonneg_exposure(omega))
        return np.asarray(p, dtype=np.float64), np.asarray(m, dtype=np.float64)

    def _window_primitives(
        self, tau: FloatArray, omega: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`per_window_primitives` on float64 arrays as they are:
        no coercion, and one sign check, of the smallest window a CDF
        reads (the attempt's ``tau = omega + V / s`` never falls below
        ``omega``).  ``m`` may be ``tau`` itself."""
        if ((tau if self._silent is None else omega) < 0).any():
            raise InvalidParameterError("exposure must be >= 0")
        if self._failstop is None:
            return self._silent._cdf(omega), tau  # type: ignore[union-attr]
        if self._silent is None:
            return self._failstop._cdf(tau), self._failstop._capped(tau)
        if self.is_memoryless:
            # One exponent sum: the survival of both Poisson sources is
            # exp(-(lambda_f tau + lambda_s omega)), the Section-5 form.
            lam_f, lam_s = self._rates()
            return -np.expm1(-(lam_f * tau + lam_s * omega)), self._failstop._capped(tau)
        # Inclusion-exclusion in the form p_f + p_s (1 - p_f) rather than
        # 1 - S_f S_s: the survival product cancels catastrophically for
        # small probabilities (1 - exp(-x) loses ~x relative digits),
        # while each family's CDF is expm1-stable; the form is exactly 1
        # once the fail-stop CDF saturates, and <= 1 in exact arithmetic
        # (clamp the last-ulp rounding excursions).
        p_f = self._failstop._cdf(tau)
        p = np.minimum(p_f + self._silent._cdf(omega) * (1.0 - p_f), 1.0)
        return p, self._failstop._capped(tau)

    def attempt_failure_probability(
        self, work: ScalarOrArray, speed: float, verification_time: float = 0.0
    ) -> ScalarOrArray:
        """Probability that one attempt at ``speed`` fails.

        Each attempt draws fresh inter-arrivals, so the probability
        depends only on the attempt's own windows.
        """
        w = as_float_array(work)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        if speed <= 0:
            raise InvalidParameterError("speed must be > 0")
        p, _ = self.per_window_primitives((w + verification_time) / speed, w / speed)
        return float(p) if is_scalar(work) else p

    def attempt_exposure(
        self, work: ScalarOrArray, speed: float, verification_time: float = 0.0
    ) -> ScalarOrArray:
        """Expected busy seconds of one attempt at ``speed``: the
        fail-stop-capped exposure, times the compute power its energy."""
        w = as_float_array(work)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        if speed <= 0:
            raise InvalidParameterError("speed must be > 0")
        _, m = self.per_window_primitives((w + verification_time) / speed, w / speed)
        return float(m) if is_scalar(work) else m

    # ------------------------------------------------------------------
    # Identity / serialisation
    # ------------------------------------------------------------------
    def _canonical(self) -> tuple:
        return ("error-model", self.process.canonical(), self.failstop_fraction)

    def spec(self) -> str:
        """One-line spec string (:func:`parse_error_model` inverse)."""
        base = self.process.spec()
        if self.failstop_fraction == 0.0:
            return base
        return f"{base},failstop={_fmt(self.failstop_fraction)}"

    def describe(self) -> str:
        """Short human-readable tag (the spec string)."""
        return self.spec()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable payload (see :func:`error_model_from_dict`)."""
        params = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in self.process._dict_params().items()
        }
        return {
            "schema": _MODEL_SCHEMA,
            "kind": self.process.kind,
            "params": params,
            "failstop_fraction": self.failstop_fraction,
        }

    # ------------------------------------------------------------------
    def with_failstop_fraction(self, fraction: float) -> "ErrorModel":
        """A copy with a different fail-stop split (same arrival family)."""
        return ErrorModel(process=self.process, failstop_fraction=fraction)


# ----------------------------------------------------------------------
# Parsing / coercion front doors
# ----------------------------------------------------------------------
def parse_error_model(spec: str) -> ErrorModel:
    """Parse a spec string such as ``weibull:shape=0.7,mtbf=5e3,failstop=0.2``.

    The grammar is ``<kind>:<key>=<value>,...`` with the per-family keys
    documented on each :class:`ArrivalProcess` class (``repro errors``
    lists them from the CLI).  The optional ``failstop=`` key gives the
    fail-stop fraction of the split (default 0: all errors silent).
    """
    kind, sep, args = spec.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in _KINDS:
        raise InvalidParameterError(
            f"unknown error-model spec {spec!r}; valid kinds: "
            f"{', '.join(sorted(_KINDS))} (e.g. 'weibull:shape=0.7,mtbf=5e3')"
        )
    kv = _parse_kv(args, kind)
    failstop = 0.0
    if "failstop" in kv:
        failstop = _pop_float(kv, "failstop", kind)
    process = _KINDS[kind]._from_spec_kv(kv)
    return ErrorModel(process=process, failstop_fraction=failstop)


def error_model_from_dict(data: dict[str, Any]) -> ErrorModel:
    """Restore a model from :meth:`ErrorModel.to_dict` output."""
    if data.get("schema") != _MODEL_SCHEMA:
        raise InvalidParameterError(f"not an error-model payload: {data.get('schema')!r}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown error-model kind {kind!r}")
    params = dict(data["params"])
    if "times" in params:
        params["times"] = tuple(params["times"])
    process = _KINDS[kind](**params)  # type: ignore[call-arg]
    return ErrorModel(
        process=process, failstop_fraction=data.get("failstop_fraction", 0.0)
    )


def error_model_kinds() -> dict[str, type[ArrivalProcess]]:
    """The registered arrival families, spec-prefix -> class (sorted copy)."""
    return dict(sorted(_KINDS.items()))


#: What every public ``errors=`` parameter accepts; :func:`as_error_model`
#: lifts it, once, to the ``ErrorModel | None`` the generic paths handle.
ErrorModelLike = ErrorModel | ArrivalProcess | CombinedErrors | str | None


def as_error_model(value: ErrorModelLike) -> ErrorModel | None:
    """Coerce ``value`` to an :class:`ErrorModel`.

    Spec strings parse, bare :class:`ArrivalProcess` instances become a
    silent-only model, :class:`CombinedErrors` lift via
    :meth:`ErrorModel.from_combined` (exponential arrivals),
    ``None`` passes through.
    """
    if value is None or isinstance(value, ErrorModel):
        return value
    if isinstance(value, ArrivalProcess):
        return ErrorModel(process=value, failstop_fraction=0.0)
    if isinstance(value, CombinedErrors):
        return ErrorModel.from_combined(value)
    if isinstance(value, str):
        return parse_error_model(value)
    raise InvalidParameterError(
        f"errors must be an ErrorModel, ArrivalProcess, CombinedErrors or "
        f"spec string, got {type(value).__name__}"
    )


def require_memoryless(
    errors: "CombinedErrors | ErrorModel | None", where: str
) -> CombinedErrors | None:
    """Gate a closed form on memoryless arrivals.

    :class:`CombinedErrors` (and ``None``) pass through; a memoryless
    :class:`ErrorModel` converts to its ``CombinedErrors`` (same rate
    and split); any other renewal model raises
    :class:`~repro.exceptions.UnsupportedErrorModelError` naming the
    entry point — the audit hook that keeps the exponential-only
    solvers from silently computing with the wrong formula.
    """
    if errors is None or isinstance(errors, CombinedErrors):
        return errors
    if isinstance(errors, ErrorModel):
        if errors.is_memoryless:
            return errors.to_combined()
        raise UnsupportedErrorModelError(where, errors)
    raise UnsupportedErrorModelError(where, errors)
