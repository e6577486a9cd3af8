"""The Theorem-1 kernel: whole batches in a handful of NumPy ops.

The entire Theorem-1 pipeline (Eq. 2/3 coefficients -> feasibility
quadratic -> We -> clamp -> energy) is closed-form arithmetic, so it
vectorises perfectly: :func:`evaluate_pair_grid` evaluates *all
parameter rows x all speed pairs at once* on broadcast arrays, and
callers reduce with ``argmin``.  It is the only Theorem-1 kernel, and
its one caller is the ``firstorder`` backend's batch path, which reads
each scenario's own pair axis off one pass.  That path takes its
winners' first-order fields straight from the :class:`PairGrid` columns
and their exact Prop. 2/3 overheads from one :func:`exact_overheads`
pass over the winners, so a batch row costs no scalar solver call.
Every sweep (``run_sweep``, ``Experiment.over_axis``, the analysis
helpers) reaches the kernel through that batch path.

This is the hpc-parallel playbook (vectorise the inner loop, avoid
Python-level per-item work); the equivalence tests pin it bit-for-bit
against the scalar solver.

Schedule axes — many per-attempt speed policies under one
``(configuration, rho)`` — batch through the kernel of
:mod:`repro.schedules.vectorized` instead:
``Experiment.over(configs=(cfg,), rhos=rho, schedules=specs).solve()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..platforms.configuration import Configuration
from ..quantities import FloatArray, ScalarOrArray

__all__ = [
    "PairGrid",
    "config_columns",
    "evaluate_pair_grid",
    "exact_overheads",
]


@dataclass(frozen=True)
class PairGrid:
    """Theorem-1 quantities of every (row, speed pair): shape ``(n, P)``.

    ``energy`` is ``inf`` where the pair cannot meet the row's bound;
    ``rho_min`` is the pair's Eq. (6) threshold.  Each entry is what
    :func:`repro.core.solver.evaluate_pair` computes for that pair, bit
    for bit: :func:`evaluate_pair_grid` performs the scalar path's
    operations in the scalar path's order.  So a row's first ``argmin``
    of ``energy`` is the winner of the scalar solvers' strict-improvement
    scan in the same enumeration order, and the winner's column holds
    its ``PatternSolution`` fields ``rho_min``, ``work``,
    ``energy_overhead`` (``energy``) and ``time_overhead`` (``time``);
    :func:`exact_overheads` supplies the two exact ones.
    """

    rho_min: FloatArray
    work: FloatArray
    energy: FloatArray
    time: FloatArray


def config_columns(configs: Sequence[Configuration]) -> dict[str, FloatArray]:
    """The model parameters of ``configs`` as keyword arrays for
    :func:`evaluate_pair_grid` / :func:`exact_overheads`."""
    return {
        "lam": np.array([c.lam for c in configs]),
        "checkpoint": np.array([c.checkpoint_time for c in configs]),
        "verification": np.array([c.verification_time for c in configs]),
        "recovery": np.array([c.recovery_time for c in configs]),
        "kappa": np.array([c.processor.kappa for c in configs]),
        "idle_power": np.array([c.processor.idle_power for c in configs]),
        "io_power": np.array([c.io_power for c in configs]),
    }


def _cubes(speeds: FloatArray) -> FloatArray:
    """``speeds**3`` entry by entry, each taken as a 0-d power exactly as
    :meth:`~repro.power.model.PowerModel.cpu_power` takes it (a
    whole-array power may round differently).  Each distinct speed is
    cubed once."""
    values, index = np.unique(speeds, return_inverse=True)
    cubes = np.array([np.asarray(v) ** 3 for v in values], dtype=np.float64)
    return cubes[index.ravel()].reshape(np.shape(speeds))


def evaluate_pair_grid(
    sigma1: "Sequence[float] | FloatArray",
    sigma2: "Sequence[float] | FloatArray",
    /,
    *,
    lam: ScalarOrArray,
    checkpoint: ScalarOrArray,
    verification: ScalarOrArray,
    recovery: ScalarOrArray,
    kappa: ScalarOrArray,
    idle_power: ScalarOrArray,
    io_power: ScalarOrArray,
    rho: ScalarOrArray,
) -> PairGrid:
    """Evaluate Theorem 1 for every parameter row x every speed pair.

    The one Theorem-1 kernel: the pairs are ``zip(sigma1, sigma2)`` in
    the caller's enumeration order, and each model parameter may be a
    scalar or a 1-D array of length ``n`` (scalars broadcast).
    """
    n = max(
        np.size(a)
        for a in (lam, checkpoint, verification, recovery, kappa, idle_power, io_power, rho)
    )

    def col(a: ScalarOrArray) -> FloatArray:
        # shape (n, 1) for broadcasting against the pair axis
        return np.broadcast_to(np.asarray(a, dtype=np.float64), (n,)).reshape(n, 1)

    lam_, C, V, R = col(lam), col(checkpoint), col(verification), col(recovery)
    kap, p_idle, p_io_dyn, rho_ = col(kappa), col(idle_power), col(io_power), col(rho)

    s1 = np.asarray(sigma1, dtype=np.float64).reshape(1, -1)
    s2 = np.asarray(sigma2, dtype=np.float64).reshape(1, -1)
    cube1, cube2 = _cubes(s1), _cubes(s2)
    p1 = p_idle + kap * cube1
    p2 = p_idle + kap * cube2
    p_io = p_idle + p_io_dyn

    # Eq. (2) time coefficients and the Eq. (6) threshold x + 2 sqrt(y z).
    x_t = 1.0 / s1 + lam_ * (R / s1 + V / (s1 * s2))
    y_t = lam_ / (s1 * s2)
    z_t = C + V / s1
    rho_min = x_t + 2.0 * np.sqrt(y_t * z_t)

    # Theorem-1 feasibility quadratic and its (ordered) root interval.
    b = x_t - rho_
    disc = b * b - 4.0 * y_t * z_t
    feasible = (b <= 0.0) & (disc >= 0.0)
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = (-b + sq) / (2.0 * y_t)
        w1 = z_t / (y_t * w2)
    lo, hi = np.minimum(w1, w2), np.maximum(w1, w2)

    # Eq. (3) energy coefficients, Eq. (5) We and the Eq. (4) clamp.
    x_e = p1 / s1 + lam_ * R * p_io / s1 + lam_ * V * p1 / (s1 * s2)
    y_e = lam_ * p2 / (s1 * s2)
    z_e = C * p_io + V * p1 / s1
    with np.errstate(divide="ignore", invalid="ignore"):
        work = np.minimum(np.maximum(lo, np.sqrt(z_e / y_e)), hi)
        energy = x_e + y_e * work + z_e / work
        time = x_t + y_t * work + z_t / work

    return PairGrid(
        rho_min=rho_min,
        work=work,
        energy=np.where(feasible, energy, np.inf),
        time=time,
    )


def exact_overheads(
    work: FloatArray,
    sigma1: FloatArray,
    sigma2: FloatArray,
    /,
    *,
    lam: ScalarOrArray,
    checkpoint: ScalarOrArray,
    verification: ScalarOrArray,
    recovery: ScalarOrArray,
    kappa: ScalarOrArray,
    idle_power: ScalarOrArray,
    io_power: ScalarOrArray,
) -> tuple[FloatArray, FloatArray]:
    """Propositions 2/3 per unit of work at each row's own ``(W, s1, s2)``.

    Returns ``(energy_overhead_exact, time_overhead_exact)``, 1-D arrays
    of the rows' length.  Each entry is what
    :func:`repro.core.exact.energy_overhead` /
    :func:`~repro.core.exact.time_overhead` return for that row, bit for
    bit: the same operations in the same order (``-expm1(-lam W/s1) *
    exp(lam W/s2)``, ``sigma**3`` as a 0-d power, then the division by
    ``W``).  The model parameters are the keyword arrays of
    :func:`config_columns`, one entry per row (scalars broadcast).
    """
    w = np.asarray(work, dtype=np.float64)
    s1 = np.asarray(sigma1, dtype=np.float64)
    s2 = np.asarray(sigma2, dtype=np.float64)
    p1 = idle_power + kappa * _cubes(s1)
    p2 = idle_power + kappa * _cubes(s2)
    p_io = idle_power + io_power
    V = verification
    with np.errstate(over="ignore"):
        retry = -np.expm1(-lam * w / s1) * np.exp(lam * w / s2)
    energy = (
        (checkpoint + retry * recovery) * p_io
        + (w + V) / s1 * p1
        + (w + V) / s2 * retry * p2
    )
    time = checkpoint + (w + V) / s1 + retry * (recovery + (w + V) / s2)
    return energy / w, time / w
