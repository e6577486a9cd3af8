"""The indent-2 JSON encoder renders exactly what ``json.dumps`` renders.

Every pretty-printed artifact goes through
:func:`repro.reporting.jsonio.encode_json` / :func:`write_json`, which
promise the stdlib's bytes — and the stdlib's exceptions — for any
input.  Pinned three ways: a property over generated trees, error
parity on the inputs json rejects, and the real artifacts (result
JSON, the verb exports, the service documents, bench reports) against
``json.dumps`` of the payload they were rendered from.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Experiment
from repro.api.cache import SolveCache
from repro.reporting.jsonio import encode_json, write_json
from repro.reporting.serialize import dump_json


# The subclasses override the hooks json does not call, so a rendering
# through ``str()``/``repr()`` instead of the stdlib's path shows.
class Str(str):
    def __str__(self):
        return "Str!"


class Int(int):
    def __repr__(self):
        return "Int!"

    __str__ = __repr__


class Float(float):
    def __repr__(self):
        return "Float!"

    __str__ = __repr__


class Dict(dict):
    pass


class List(list):
    pass


def _stdlib(obj: object, sort_keys: bool) -> object:
    try:
        return json.dumps(obj, indent=2, sort_keys=sort_keys)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return (type(exc), str(exc))


def _ours(obj: object, sort_keys: bool) -> object:
    try:
        return encode_json(obj, sort_keys=sort_keys)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return (type(exc), str(exc))


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e308, 5e-324]
)
_ints = st.integers() | st.integers(min_value=2**63, max_value=2**200).map(lambda i: -i)
_strings = st.text(max_size=8) | st.sampled_from(["", "é", "\x00\x1f\x7f", " ", "𝄞", '"\\/'])
_scalars = (
    st.none()
    | st.booleans()
    | _ints
    | _floats
    | _strings
    | st.builds(Str, _strings)
    | st.builds(Int, st.integers())
    | st.builds(Float, _floats)
)
_keys = _strings | st.integers() | _floats | st.booleans() | st.none() | st.builds(Str, _strings)
_trees = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(List)
        | st.dictionaries(_keys, children, max_size=4)
        | st.dictionaries(_keys, children, max_size=4).map(Dict)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=40,
)


@given(obj=_trees, sort_keys=st.booleans())
def test_encoder_matches_stdlib(obj, sort_keys):
    expected = _stdlib(obj, sort_keys)
    assert _ours(obj, sort_keys) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        if isinstance(expected, str):
            write_json(path, obj, sort_keys=sort_keys, end="\n")
            assert path.read_bytes() == (expected + "\n").encode()
        else:
            with pytest.raises(expected[0]):
                write_json(path, obj, sort_keys=sort_keys)
            assert os.listdir(tmp) == []


@pytest.mark.parametrize("sort_keys", [False, True])
def test_streamed_document_spans_many_spills(tmp_path, sort_keys):
    rows = [{"i": i, "x": i / 7, "tag": f"r{i}", "nested": {"k": [i, None]}} for i in range(3000)]
    payload = {"rows": rows, "nan": float("nan")}
    path = write_json(tmp_path / "big.json", payload, sort_keys=sort_keys)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=sort_keys)


class TestErrorParity:
    def _raises_like_stdlib(self, obj, sort_keys):
        with pytest.raises(Exception) as stdlib:
            json.dumps(obj, indent=2, sort_keys=sort_keys)
        with pytest.raises(Exception) as ours:
            encode_json(obj, sort_keys=sort_keys)
        assert type(ours.value) is type(stdlib.value)
        assert str(ours.value) == str(stdlib.value)

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_circular_list_and_dict(self, sort_keys):
        lst: list = [1]
        lst.append(lst)
        dct: dict = {"a": 1}
        dct["self"] = [dct]
        self._raises_like_stdlib(lst, sort_keys)
        self._raises_like_stdlib(dct, sort_keys)

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_unserialisable_value_and_key(self, sort_keys):
        self._raises_like_stdlib({"a": [1, object()]}, sort_keys)
        self._raises_like_stdlib({(1, 2): "tuple key"}, sort_keys)

    def test_mixed_key_types_under_sort_keys(self):
        self._raises_like_stdlib({1: "a", "b": 2}, True)
        self._raises_like_stdlib({None: 1, 2.5: 2}, True)
        assert encode_json({1: "a", "b": 2}) == json.dumps({1: "a", "b": 2}, indent=2)

    def test_failed_dump_json_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("old contents")
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_json(path, {"results": [{"x": 1.0}] * 5000 + [{"x": object()}]})
        assert path.read_text() == "old contents"
        assert os.listdir(tmp_path) == ["results.json"]

    def test_fallback_after_a_spill_leaves_no_partial_output(self, tmp_path):
        class ShrinksOnRetry(list):
            """The first pass (the fast path's) yields 6000 items, then
            fails; later passes (json's) yield the list's two items."""

            passes = 0

            def __iter__(self):
                ShrinksOnRetry.passes += 1
                if ShrinksOnRetry.passes == 1:
                    yield from range(6000)
                    raise RuntimeError("first pass")
                yield from super().__iter__()

        payload = {"rows": ShrinksOnRetry([1, 2])}
        path = write_json(tmp_path / "doc.json", payload)
        assert ShrinksOnRetry.passes == 2
        assert path.read_text() == '{\n  "rows": [\n    1,\n    2\n  ]\n}'
        assert os.listdir(tmp_path) == ["doc.json"]


class TestArtifactPins:
    """Real artifacts equal the stdlib rendering of their payloads."""

    @pytest.fixture(scope="class")
    def results(self):
        return Experiment.over(
            configs=("hera-xscale", "atlas-crusoe"),
            rhos=(1.05, 1.5, 3.0),
            error_rates=(None, 1e-4),
            schedules=(None, "geom:0.4,1.5,1"),
        ).solve(cache=SolveCache())

    def test_results_json(self, results, tmp_path):
        payload = {"results": results.to_dicts()}
        path = dump_json(tmp_path / "results.json", payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("verb", ["frontier", "sensitivity", "crossover", "savings", "diff"])
    def test_verb_exports(self, results, verb, tmp_path, monkeypatch):
        import repro.analysis.verbs as verbs

        seen = []
        real = verbs._json_dump

        def recording(payload, path):
            seen.append(payload)
            return real(payload, path)

        monkeypatch.setattr(verbs, "_json_dump", recording)
        if verb == "savings":
            analysis = results.savings(results)
        elif verb == "diff":
            analysis = results.diff(0, 5)
        else:
            analysis = getattr(results, verb)()
        text = analysis.to_json()
        assert text == json.dumps(seen[-1], indent=2)
        path = analysis.to_json(tmp_path / f"{verb}.json")
        assert path.read_text() == text + "\n"

    def test_service_results_json_and_job_document(self, monkeypatch):
        import repro.service.queue as service_queue
        from repro.service import InMemoryArtifactStore, ServiceApp, ServiceConfig
        from repro.service.app import ServiceResponse
        from repro.service.testing import InProcessClient

        rendered = []
        real = service_queue.encode_json

        def recording(payload, **kwargs):
            text = real(payload, **kwargs)
            rendered.append((payload, text))
            return text

        monkeypatch.setattr(service_queue, "encode_json", recording)
        app = ServiceApp(
            ServiceConfig(transport="inline", job_workers=1),
            cache=SolveCache(),
            artifacts=InMemoryArtifactStore(),
        )
        with app:
            client = InProcessClient(app)
            accepted = client.submit(
                {
                    "name": "pin",
                    "grid": {"configs": ["hera-xscale"], "rhos": [1.05, 2.0, 3.0]},
                    "analyses": ["frontier"],
                }
            )
            doc = client.wait_job(accepted["id"], timeout=60.0, poll=0.01)
            assert doc["state"] == "succeeded"
            body = client.get(f"/v1/jobs/{accepted['id']}/artifacts/results.json").body
            snapshot = app.store.get(accepted["id"]).snapshot()
        [(payload, text)] = rendered
        assert body == text.encode() == json.dumps(payload, indent=2).encode()
        response = ServiceResponse.json(snapshot)
        assert response.body == json.dumps(snapshot, indent=2).encode() + b"\n"

    def test_bench_report(self, tmp_path):
        from benchmarks.harness.report import BenchReport, WorkloadStats

        report = BenchReport(
            name="pin",
            workloads=(
                WorkloadStats(
                    name="a",
                    times=(0.5, 0.25),
                    refs=(0.006, 0.005),
                    median=0.375,
                    ci=(0.25, 0.5),
                    metrics={"nan": float("nan"), "n": 3},
                ),
            ),
            repetitions=3,
            warmup=0,
            environment={"python": "x", "é": [1, 2.5]},
        )
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n"
        assert report.to_json() == expected
        assert report.write(tmp_path).read_text(encoding="utf-8") == expected

