"""The harness estimators: medians, bootstrap CIs, interval overlap."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness.report import bootstrap_median_ci, intervals_overlap, median
from repro.exceptions import InvalidParameterError


def test_median_plain() -> None:
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0]) == 4.0


def test_median_rejects_bad_samples() -> None:
    with pytest.raises(InvalidParameterError):
        median([])
    with pytest.raises(InvalidParameterError):
        median([1.0, float("nan")])
    with pytest.raises(InvalidParameterError):
        median([1.0, float("inf")])


def test_bootstrap_ci_deterministic_and_ordered() -> None:
    rng = np.random.default_rng(7)
    xs = list(rng.lognormal(0.0, 0.2, size=20))
    lo1, hi1 = bootstrap_median_ci(xs)
    lo2, hi2 = bootstrap_median_ci(xs)
    assert (lo1, hi1) == (lo2, hi2), "same seed must give the same CI"
    assert lo1 <= hi1
    assert lo1 <= median(xs) <= hi1


def test_bootstrap_ci_narrows_with_confidence() -> None:
    rng = np.random.default_rng(11)
    xs = list(rng.lognormal(0.0, 0.3, size=30))
    lo80, hi80 = bootstrap_median_ci(xs, confidence=0.80)
    lo99, hi99 = bootstrap_median_ci(xs, confidence=0.99)
    assert hi80 - lo80 <= hi99 - lo99


def test_bootstrap_ci_single_sample_degenerates() -> None:
    lo, hi = bootstrap_median_ci([0.5])
    assert lo == hi == 0.5


def test_bootstrap_ci_rejects_bad_confidence() -> None:
    with pytest.raises(InvalidParameterError):
        bootstrap_median_ci([1.0, 2.0], confidence=1.0)
    with pytest.raises(InvalidParameterError):
        bootstrap_median_ci([1.0, 2.0], confidence=0.0)


def test_intervals_overlap_truth_table() -> None:
    assert intervals_overlap((0.0, 1.0), (0.5, 2.0))
    assert intervals_overlap((0.5, 2.0), (0.0, 1.0))
    assert intervals_overlap((0.0, 1.0), (1.0, 2.0)), "touching counts"
    assert not intervals_overlap((0.0, 1.0), (1.1, 2.0))
    assert not intervals_overlap((5.0, 6.0), (1.0, 2.0))
    assert intervals_overlap((0.0, 10.0), (2.0, 3.0)), "containment"


def test_intervals_overlap_rejects_malformed() -> None:
    with pytest.raises(InvalidParameterError):
        intervals_overlap((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        intervals_overlap((0.0, 1.0), (2.0, 1.0))
