"""Combined fail-stop + silent error model (Section 5 of the paper).

Section 5.2 parameterises the two error sources by a *total* rate
``lambda = 1/mu`` and the fraction ``f`` of errors that are fail-stop;
the remaining fraction ``s = 1 - f`` are silent.  The arrival rates are
then ``lambda_f = f * lambda`` and ``lambda_s = s * lambda``, and the two
processes are independent.

Semantics of the two sources (Section 5.1):

* **fail-stop** errors can strike during computation *and* verification
  (exposure window ``(W + V) / sigma``), are detected immediately, and
  interrupt the execution losing ``T_lost`` time;
* **silent** errors strike during computation only (exposure window
  ``W / sigma``) and are detected by the verification at the end of the
  pattern, so the whole ``(W + V)/sigma`` is always paid before recovery.

:class:`CombinedErrors` is the parameter object of the Section-5 closed
forms in :mod:`repro.failstop`.  Everything else — the schedule
evaluator, the grid kernel, the simulators — runs on
:class:`repro.errors.models.ErrorModel`, into which
:func:`repro.errors.models.as_error_model` lifts a ``CombinedErrors``
(exponential arrivals of rate ``lambda`` split by ``f``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..quantities import require_positive, require_probability

__all__ = ["CombinedErrors"]


@dataclass(frozen=True)
class CombinedErrors:
    """Total error rate split into fail-stop and silent fractions.

    Parameters
    ----------
    total_rate:
        The combined arrival rate ``lambda`` (per second) across both
        sources.
    failstop_fraction:
        ``f`` in [0, 1]: fraction of errors that are fail-stop.  ``f = 0``
        recovers the silent-error-only model of Sections 2-4; ``f = 1``
        is the classical fail-stop setting of Theorem 2.

    Examples
    --------
    >>> m = CombinedErrors(total_rate=1e-4, failstop_fraction=0.25)
    >>> m.failstop_rate, m.silent_rate
    (2.5e-05, 7.500000000000001e-05)
    >>> m.silent_only().silent_rate == 1e-4
    True
    """

    total_rate: float
    failstop_fraction: float

    def __post_init__(self) -> None:
        require_positive(self.total_rate, "total_rate")
        require_probability(self.failstop_fraction, "failstop_fraction")

    # ------------------------------------------------------------------
    @property
    def silent_fraction(self) -> float:
        """``s = 1 - f``: fraction of errors that are silent."""
        return 1.0 - self.failstop_fraction

    @property
    def failstop_rate(self) -> float:
        """``lambda_f = f * lambda`` (per second)."""
        return self.failstop_fraction * self.total_rate

    @property
    def silent_rate(self) -> float:
        """``lambda_s = s * lambda`` (per second)."""
        return self.silent_fraction * self.total_rate

    # ------------------------------------------------------------------
    def silent_only(self) -> "CombinedErrors":
        """The same total rate with every error silent (``f = 0``)."""
        return CombinedErrors(total_rate=self.total_rate, failstop_fraction=0.0)

    def failstop_only(self) -> "CombinedErrors":
        """The same total rate with every error fail-stop (``f = 1``)."""
        return CombinedErrors(total_rate=self.total_rate, failstop_fraction=1.0)

    def with_total_rate(self, total_rate: float) -> "CombinedErrors":
        """A copy with a different total rate (same split)."""
        return CombinedErrors(
            total_rate=total_rate, failstop_fraction=self.failstop_fraction
        )

    # ------------------------------------------------------------------
    def speed_ratio_validity_window(self) -> tuple[float, float]:
        """First-order validity window for ``sigma2 / sigma1`` (Section 5.2).

        With both sources and ``Pidle = 0`` the first-order approximation
        yields a valid optimum iff

        ``(2(1+s/f))**-0.5  <  sigma2/sigma1  <  2(1+s/f)``.

        Returns the ``(low, high)`` bounds.  With ``f = 0`` (silent only)
        the constraint vanishes, returned as ``(0, inf)``.
        """
        f = self.failstop_fraction
        if f == 0.0:
            return (0.0, float("inf"))
        s = self.silent_fraction
        high = 2.0 * (1.0 + s / f)
        return (high**-0.5, high)
