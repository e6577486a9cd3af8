"""One exponential error model, three spellings, the same numbers.

``CombinedErrors(lam, f)``, the spec ``exp:rate=lam,failstop=f`` and
``ErrorModel(ExponentialArrivals(lam), f)`` are lifted to one
:class:`~repro.errors.models.ErrorModel` below the API, so the
evaluator, the grid kernel and both simulators must give bit-identical
results for all three.  The golden values at the bottom were recorded
with the exponential samplers and closed-form primitives that the
single renewal path replaced; they pin that nothing moved.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import CombinedErrors, ErrorModel, ExponentialArrivals
from repro.platforms import get_configuration
from repro.schedules import evaluate_schedule, parse_schedule
from repro.schedules.vectorized import ScheduleGrid, SolverOptions, solve_schedule_grid
from repro.simulation import PatternSimulator
from repro.simulation.application import ApplicationSimulator

CFG = get_configuration("hera-xscale")
SCHEDULES = [parse_schedule(s) for s in ("two:0.4,0.6", "esc:0.4,0.6,0.8", "geom:0.4,1.5,1")]
WORK = np.geomspace(100.0, 3e4, 7)
#: Small lockstep budgets: every stage still runs, in a few probes.
QUICK = SolverOptions(coarse=7, bisect_iters=5, golden_iters=3)

rates = st.floats(min_value=1e-7, max_value=1e-4, allow_nan=False)
fractions = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.25, 0.5, 1.0]),  # 5e-324: the fail-stop rate underflows
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
)


def _spellings(lam: float, f: float) -> list:
    return [
        CombinedErrors(lam, f),
        f"exp:rate={lam!r},failstop={f!r}",
        ErrorModel(ExponentialArrivals(lam), f),
    ]


def _assert_all_equal(values: list) -> None:
    first = values[0]
    for other in values[1:]:
        assert np.array_equal(first, other, equal_nan=True)  # NaN: infeasible rows


@given(lam=rates, f=fractions)
def test_three_spellings_are_one_model(lam, f):
    spellings = _spellings(lam, f)

    for sched in SCHEDULES:
        scalar = [evaluate_schedule(CFG, sched, WORK, errors=e) for e in spellings]
        _assert_all_equal([ex.time for ex in scalar])
        _assert_all_equal([ex.energy for ex in scalar])
        _assert_all_equal([ex.attempts for ex in scalar])

    grids = [ScheduleGrid.from_points([(CFG, s, e) for s in SCHEDULES]) for e in spellings]
    evaluated = [grid.evaluate(WORK) for grid in grids]
    _assert_all_equal([ex.time for ex in evaluated])
    _assert_all_equal([ex.energy for ex in evaluated])
    solved = [solve_schedule_grid(grid, 3.0, options=QUICK) for grid in grids]
    for field in ("work", "energy_overhead", "time_overhead", "w_lo", "w_hi", "rho_min", "feasible"):
        _assert_all_equal([getattr(sol, field) for sol in solved])

    batches = [PatternSimulator(CFG, e, rng=7).run(2764.0, 0.4, 0.6, n=40) for e in spellings]
    _assert_all_equal([b.times for b in batches])
    _assert_all_equal([b.energies for b in batches])
    _assert_all_equal([b.failstop_errors for b in batches])
    runs = [
        ApplicationSimulator(CFG, e, rng=7).run(total_work=12_000.0, work=2764.0, sigma1=0.4)
        for e in spellings
    ]
    assert len({(r.total_time, r.total_energy, r.events) for r in runs}) == 1


# ----------------------------------------------------------------------
# Golden outputs of the exponential paths, recorded before they became
# the renewal path: (sum of times, sum of energies, attempts, fail-stop
# errors, silent errors) of seeded 64-sample batches.
# ----------------------------------------------------------------------
PATTERN_GOLDEN = {
    0.0: (1065648.6666666667, 297555894.95000005, 186, 0, 122),
    0.3: (946381.5189530456, 273248528.60365236, 202, 65, 73),
    1.0: (653416.6991323003, 189885193.1217434, 191, 127, 0),
}
SCHEDULE_GOLDEN = (658088.430580715, 269962184.30881584, 149, 54, 31)
APPLICATION_GOLDEN = {
    0.0: (135337.25, 57000521.95000001, 0, 15, 93),
    0.3: (119772.83361080506, 56363438.41081204, 9, 10, 100),
    1.0: (89267.18619166427, 39011328.69542462, 16, 0, 81),
}


def _batch_key(batch) -> tuple:
    return (
        float(batch.times.sum()),
        float(batch.energies.sum()),
        int(batch.attempts.sum()),
        int(batch.failstop_errors.sum()),
        int(batch.silent_errors.sum()),
    )


def test_pattern_simulator_golden():
    for f, golden in PATTERN_GOLDEN.items():
        batch = PatternSimulator(CFG, CombinedErrors(2e-4, f), rng=11).run(2764.0, 0.4, 0.6, n=64)
        assert _batch_key(batch) == golden
    batch = PatternSimulator(CFG, CombinedErrors(2e-4, 0.5), rng=3).run(
        2764.0, schedule=parse_schedule("geom:0.4,1.5,1"), n=64
    )
    assert _batch_key(batch) == SCHEDULE_GOLDEN


def test_application_simulator_golden():
    for f, golden in APPLICATION_GOLDEN.items():
        res = ApplicationSimulator(CFG, CombinedErrors(2e-4, f), rng=5).run(
            total_work=30000.0, work=2764.0, sigma1=0.4, sigma2=0.8
        )
        key = (res.total_time, res.total_energy, res.num_failstop, res.num_silent, len(res.events))
        assert key == golden


TRACE_GOLDEN = """\
################vCCCCCCC###########!RRRRRR#######CCCCCCC################vxRRRRR########CCCCCCCCCCCCC
0 ------------------------------------------------------------------------------------------ 5172 s
# execute   v verify   C checkpoint   R recover   ! fail-stop   x silent-detected

19 events, 4 patterns, 1 fail-stop + 1 silent errors, total 5172.3 s
  t=         0.0s  EXECUTE@0.4    dur=     864.0s  pattern 0 attempt 1
  t=       864.0s  VERIFY@0.4     dur=      38.5s  pattern 0 attempt 1
  t=       902.5s  CHECKPOINT     dur=     300.0s  pattern 0 attempt 1
  t=      1202.5s  PARTIAL@0.4    dur=     626.3s  pattern 1 attempt 1
  t=      1828.8s  FAILSTOP       dur=       0.0s  pattern 1 attempt 1
  t=      1828.8s  RECOVER        dur=     300.0s  pattern 1 attempt 1
  t=      2128.8s  EXECUTE@0.8    dur=     432.0s  pattern 1 attempt 2
  t=      2560.8s  VERIFY@0.8     dur=      19.2s  pattern 1 attempt 2
  t=      2580.0s  CHECKPOINT     dur=     300.0s  pattern 1 attempt 2
  t=      2880.0s  EXECUTE@0.4    dur=     864.0s  pattern 2 attempt 1
  t=      3744.0s  VERIFY@0.4     dur=      38.5s  pattern 2 attempt 1
  t=      3782.5s  SILENT         dur=       0.0s  pattern 2 attempt 1
  t=      3782.5s  RECOVER        dur=     300.0s  pattern 2 attempt 1
  t=      4082.5s  EXECUTE@0.8    dur=     432.0s  pattern 2 attempt 2
  t=      4514.5s  VERIFY@0.8     dur=      19.2s  pattern 2 attempt 2
  t=      4533.8s  CHECKPOINT     dur=     300.0s  pattern 2 attempt 2
  t=      4833.8s  EXECUTE@0.4    dur=       0.0s  pattern 3 attempt 1
  t=      4833.8s  VERIFY@0.4     dur=      38.5s  pattern 3 attempt 1
  t=      4872.3s  CHECKPOINT     dur=     300.0s  pattern 3 attempt 1
"""


def test_trace_command_golden(capsys):
    assert main(["trace", "--failstop-fraction", "0.3", "--rate", "1e-3", "--patterns", "3"]) == 0
    assert capsys.readouterr().out == TRACE_GOLDEN
