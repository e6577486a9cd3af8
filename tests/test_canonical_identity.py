"""Pins of the per-instance canonical-identity memo.

Schedules, arrival processes and error models compare and hash by
their canonical tuple; every solve-cache key, plan dedup and grid model
group hashes them again, so :class:`repro._identity.CanonicalIdentity`
builds each instance's tuple and hash once.  The memo must be
invisible: the hash is the field hash, ``==`` and ``repr`` do not see
it, and copies and pickles carry no memo (a string hash is randomised
per process and must never cross one).
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.errors import ArrivalProcess, ErrorModel, parse_error_model
from repro.errors.models import TraceArrivals
from repro.schedules import SpeedSchedule, TwoSpeed, parse_schedule

MEMOS = ("_canonical_memo", "_hash_memo")

OBJECTS = [
    parse_schedule("geom:0.4,1.5,1"),
    parse_schedule("esc:0.4,0.6,0.8"),
    TwoSpeed(0.4, 0.8),
    parse_error_model("weibull:shape=0.7,mtbf=3e5,failstop=0.2"),
    parse_error_model("gamma:shape=2,mtbf=3e5"),
    parse_error_model("exp:mtbf=3e5"),
    parse_error_model("trace:times=3e4;9e4;2e5,failstop=0.5"),
    parse_error_model("weibull:shape=0.7,mtbf=3e5").process,
    TraceArrivals(times=(3e4, 9e4, 2e5)),
]


@pytest.fixture(params=OBJECTS, ids=lambda o: type(o).__name__ + ":" + o.spec())
def obj(request):
    # A fresh, never-hashed equal instance per test.
    return pickle.loads(pickle.dumps(request.param))


def test_memoised_hash_is_the_field_hash(obj):
    assert not any(k in obj.__dict__ for k in MEMOS)
    assert hash(obj) == hash(obj._canonical())
    assert obj.canonical() is obj.canonical()
    assert obj.canonical() == obj._canonical()


def test_memo_stays_out_of_eq_repr_copies_and_pickles(obj):
    fresh = pickle.loads(pickle.dumps(obj))
    before = (repr(obj), pickle.dumps(obj))
    hash(obj)
    assert all(k in obj.__dict__ for k in MEMOS)
    assert (repr(obj), pickle.dumps(obj)) == before
    assert obj == fresh and hash(fresh) == hash(obj)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert not any(k in clone.__dict__ for k in MEMOS)
        assert clone == obj and hash(clone) == hash(obj)


def test_a_pickled_hashed_instance_rehashes_in_another_process():
    model = parse_error_model("weibull:shape=0.7,mtbf=3e5,failstop=0.2")
    hash(model)
    code = (
        "import pickle, sys; m = pickle.loads(sys.stdin.buffer.read()); "
        "assert '_hash_memo' not in m.__dict__; "
        "assert hash(m) == hash(m._canonical()); print('ok')"
    )
    src = os.path.dirname(repro.__path__[0])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(model),
        capture_output=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == b"ok"


def test_canonical_is_built_once_per_instance_across_a_batch(monkeypatch):
    built: list[object] = []
    for cls in (SpeedSchedule, ArrivalProcess, TraceArrivals, ErrorModel):
        original = cls.__dict__["_canonical"]

        def spy(self, _original=original):
            built.append(self)  # keeps the instance alive: ids stay unique
            return _original(self)

        monkeypatch.setattr(cls, "_canonical", spy)

    def batch():
        return repro.Experiment.over(
            configs=("hera-xscale",),
            rhos=(2.8, 3.5, 4.2, 5.5),
            schedules=("esc:0.4,0.6,0.8", "geom:0.4,1.5,1"),
            error_models=("weibull:shape=0.7,mtbf=3e5", "gamma:shape=2,mtbf=3e5"),
        ).solve()

    fresh, replay = batch(), batch()
    assert len(fresh) == len(replay) == 16
    assert replay.cache_hits() == len(replay)
    counts = Counter(id(o) for o in built)
    assert built and max(counts.values()) == 1
