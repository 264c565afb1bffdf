"""The benchmark's own tests: smoke runs of every workload on tiny inputs,
seeded input generation, and failure counting on a wrong result.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import common, run  # noqa: E402
from perfbench.workloads import (flagship, kernel_bulk, spatial_join,  # noqa: E402
                                 transform_requests)

TINY = {
    "flagship": (flagship, {"n_keys": 5_000}),
    "spatial_join": (spatial_join, {"n_points": 3_000}),
    "kernel_bulk": (kernel_bulk, {"n": 2_000, "m": 500}),
    "transform_requests": (transform_requests, {"n_requests": 200}),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _tiny_inputs(name, seed, work):
    mod, kw = TINY[name]
    return mod.make_inputs(seed, work, **kw)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_prints_every_metric_with_unit(name, trace, monkeypatch, capsys):
    mod, kw = TINY[name]
    monkeypatch.setattr(run, "generate_inputs", lambda args: mod.make_inputs(
        args.seed, os.path.join(common.WORK, name), **kw))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def _digest(files) -> str:
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TINY))
def test_seed_reproduces_inputs_and_seeds_differ(name, tmp_path):
    a = _tiny_inputs(name, 5, str(tmp_path / "a"))
    b = _tiny_inputs(name, 5, str(tmp_path / "b"))
    c = _tiny_inputs(name, 6, str(tmp_path / "c"))
    assert _digest(a["files"]) == _digest(b["files"])
    assert _digest(a["files"]) != _digest(c["files"])


def test_wrong_flagship_aggregate_fails_all_its_points(tmp_path):
    inputs = _tiny_inputs("flagship", 7, str(tmp_path))
    ref = flagship.reference(inputs)[0]
    wrong = ref.copy()
    wrong.loc[0, "n_points"] += 1
    out = flagship.evaluate(([1.0, 1.0], [ref, wrong]), inputs)
    assert out.attempted == 2 * inputs["n_points"]
    assert out.failed == inputs["n_points"]


def test_wrong_spatial_join_counts_fail(tmp_path):
    inputs = _tiny_inputs("spatial_join", 7, str(tmp_path))
    ref = spatial_join.reference(inputs, spatial_join._poly_defs(inputs))[0]
    out = spatial_join.evaluate(([1.0], [ref.iloc[1:]]), inputs)
    assert out.failed == out.attempted == inputs["n_points"]


def test_wrong_kernel_output_raises_failed_count(tmp_path):
    inputs = _tiny_inputs("kernel_bulk", 7, str(tmp_path))
    state = kernel_bulk.setup(inputs)
    runs = kernel_bulk.measure(state, inputs, 0.0)
    assert kernel_bulk.evaluate(runs, inputs).failed == 0
    runs["first"]["out"]["utm_fwd"][0][:10] += 1.0  # ten wrong eastings
    assert kernel_bulk.evaluate(runs, inputs).failed >= 10


def test_non_finite_request_counts_as_failed(tmp_path):
    inputs = _tiny_inputs("transform_requests", 7, str(tmp_path))
    lat, finite = transform_requests.measure({}, inputs, 0.0)
    finite[0] = False
    assert transform_requests.evaluate((lat, finite), inputs).failed == 1


def test_raising_request_counts_as_failed(tmp_path, monkeypatch):
    import proj_ray

    inputs = _tiny_inputs("transform_requests", 7, str(tmp_path))

    def broken(src, dst, **kw):
        raise ValueError("injected")

    monkeypatch.setattr(proj_ray, "make_transform", broken)
    out = transform_requests.evaluate(
        transform_requests.measure({}, inputs, 0.0), inputs)
    assert out.attempted >= 1 and out.failed == out.attempted


def test_tracer_self_time_excludes_children():
    from perfbench.trace import Tracer

    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(100_000))
    st = tr.self_times()
    outer, inner = tr.durations("outer")[0], tr.durations("inner")[0]
    assert st["inner"] == pytest.approx(inner)
    assert st["outer"] == pytest.approx(outer - inner)
    assert [s[4] for s in tr.spans] == [0, 0]  # both share the root's id


def test_percentiles_nearest_rank():
    assert common.percentile(list(range(1, 101)), 99) == 99
    assert common.percentile([3.0, 1.0, 2.0], 99) == 3.0
    assert common.median([4.0, 1.0, 3.0, 2.0]) == 2.5
