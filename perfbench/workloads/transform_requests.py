"""``transform_requests``: a closed loop, one client, no think time,
issuing small ``(src, dst, points)`` requests; each request compiles its
transform with ``make_transform`` and calls it.

Chosen to load the ``transform`` layer the opposite way to
``kernel_bulk``: requests are mostly 1-64 points, so per-call and
``crs`` (parameter parsing, init-DB lookup) overhead dominate, not
per-point work.  Pairs come from a pool of bundled init-DB EPSG codes
that need no external grid, with Zipf popularity, so a cache keyed on
the pair would see the repeat share this workload reports.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import numpy as np

from .. import common, layers
from ..trace import NULL

N_REQUESTS = 8_192  # one trace cycle; the loop replays it until time is up

# EPSG code -> area the points are drawn from (lon0, lon1, lat0, lat1)
CODES = {
    "4326": (-180.0, 180.0, -85.0, 85.0), "3857": (-180.0, 180.0, -85.0, 85.0),
    "3395": (-180.0, 180.0, -80.0, 80.0), "4258": (-10.0, 30.0, 35.0, 70.0),
    "3035": (-10.0, 30.0, 35.0, 70.0), "3034": (-10.0, 30.0, 35.0, 70.0),
    "25832": (6.0, 12.0, 45.0, 60.0), "32632": (6.0, 12.0, 0.0, 80.0),
    "31467": (7.5, 10.5, 47.0, 55.0), "2154": (-4.0, 8.0, 42.0, 51.0),
    "27700": (-7.0, 2.0, 50.0, 58.0), "4277": (-7.0, 2.0, 50.0, 58.0),
    "2056": (6.0, 10.5, 45.8, 47.8), "4269": (-130.0, -65.0, 25.0, 50.0),
    "26915": (-96.0, -90.0, 25.0, 50.0), "5070": (-125.0, -67.0, 24.0, 50.0),
    "3005": (-139.0, -114.0, 48.0, 60.0), "3078": (-90.0, -82.0, 41.5, 48.0),
    "4283": (110.0, 155.0, -45.0, -10.0), "3577": (110.0, 155.0, -45.0, -10.0),
    "28355": (144.0, 150.0, -45.0, -10.0), "2193": (166.0, 179.0, -48.0, -34.0),
    "32718": (-78.0, -72.0, -56.0, 0.0), "3031": (-180.0, 180.0, -89.0, -60.0),
    "3413": (-180.0, 180.0, 60.0, 89.0),
}


def _defn(code: str) -> str:
    return f"+init=epsg:{code}"


def _pairs():
    """Ordered code pairs whose areas overlap, with the overlap."""
    out = []
    for a, ba in CODES.items():
        for b, bb in CODES.items():
            box = (max(ba[0], bb[0]), min(ba[1], bb[1]),
                   max(ba[2], bb[2]), min(ba[3], bb[3]))
            if a != b and box[1] - box[0] > 0.5 and box[3] - box[2] > 0.5:
                out.append((a, b, box))
    return out


def make_inputs(seed: int, work: str, n_requests: int = N_REQUESTS) -> dict:
    from proj_ray import CRS, make_transform

    rng = np.random.default_rng([seed, 4])
    d = os.path.join(work, "transform_requests")
    os.makedirs(d)
    pairs = _pairs()
    # The popularity ranking is fixed, not seeded: which pairs are hot
    # sets the mix's mean cost, and runs on different seeds must agree.
    order = np.random.default_rng(0).permutation(len(pairs))
    pop = 1.0 / np.arange(1, len(pairs) + 1) ** 1.1
    pick = order[rng.choice(len(pairs), size=n_requests, p=pop / pop.sum())]
    # heavy-tailed sizes: 85% log-uniform in 1-64 points, the rest 64-2048
    small = rng.random(n_requests) < 0.85
    sizes = np.where(small, np.exp(rng.uniform(0.0, np.log(65.0), n_requests)),
                     np.exp(rng.uniform(np.log(64.0), np.log(2049.0), n_requests)))
    sizes = sizes.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    lon = np.empty(offsets[-1])
    lat = np.empty(offsets[-1])
    for k, p in enumerate(pick):
        box = pairs[p][2]
        lo, hi = offsets[k], offsets[k + 1]
        lon[lo:hi] = rng.uniform(box[0], box[1], hi - lo)
        lat[lo:hi] = rng.uniform(box[2], box[3], hi - lo)
    # requests from a projected CRS carry that CRS's coordinates
    x, y = lon.copy(), lat.copy()
    src = np.array([pairs[p][0] for p in pick])
    for code in CODES:
        if CRS(_defn(code)).is_latlong:
            continue
        sel = np.repeat(src == code, sizes)
        x[sel], y[sel], _ = make_transform(_defn("4326"), _defn(code))(lon[sel], lat[sel])
    pool_path = os.path.join(d, "pairs.json")
    with open(pool_path, "w") as f:
        json.dump([[a, b] for a, b, _ in pairs], f)
    files = [pool_path]
    for name, arr in (("pair", pick), ("offsets", offsets), ("x", x), ("y", y)):
        files.append(os.path.join(d, f"{name}.npy"))
        np.save(files[-1], arr)
    return {"dir": d, "pairs": pool_path, "n_requests": n_requests,
            "repeat_pair_share": 1.0 - np.unique(pick).size / n_requests,
            "files": files}


def _load(inputs):
    with open(inputs["pairs"]) as f:
        pairs = [(_defn(a), _defn(b)) for a, b in json.load(f)]
    pick, off, x, y = (np.load(os.path.join(inputs["dir"], f"{name}.npy"))
                       for name in ("pair", "offsets", "x", "y"))
    return [(pairs[p], x[off[k]:off[k + 1]], y[off[k]:off[k + 1]])
            for k, p in enumerate(pick)]


def setup(inputs, tr=NULL):
    from proj_ray import CRS

    with tr.span("crs.init_db_load"):
        CRS(_defn("4326"))
    return {}


def _request(req, tr):
    from proj_ray import make_transform

    (src, dst), x, y = req
    with tr.span("request"):
        with tr.span("crs.init"):
            t = make_transform(src, dst)
        with tr.span("transform"):
            return t(x, y)[:2]


def _try_request(req):
    """The request's output, or None when it raised: the loop goes on and
    the request counts as failed."""
    try:
        return _request(req, NULL)
    except Exception as exc:  # any error the library raises fails the request
        print(f"perfbench: request {req[0]} raised {exc!r}", file=sys.stderr)
        return None


def _finite(out) -> bool:
    return out is not None and bool(np.isfinite(out[0]).all()
                                    and np.isfinite(out[1]).all())


def measure(state, inputs, seconds):
    """Replays the trace in order, wrapping around, for ``seconds``; the
    k-th request sent is trace entry k mod the trace length."""
    reqs = itertools.cycle(_load(inputs))
    return common.timed_loop(lambda: _try_request(next(reqs)), seconds,
                             keep=_finite)


def round_trip_failures(requests, sample: int = 256) -> tuple[int, int]:
    """(checked, failed) requests of a seeded sample, failed when the
    src -> dst -> src round trip raises or misses 1e-7 degree (geographic
    source) or 1 cm (projected)."""
    from proj_ray import CRS, make_transform

    rng = np.random.default_rng(0)
    picked = rng.choice(len(requests), min(sample, len(requests)), replace=False)
    bad = 0
    for k in picked:
        (src, dst), x, y = requests[k]
        out = _try_request(requests[k])
        if out is None:
            bad += 1
            continue
        bx, by, _ = make_transform(dst, src)(*out)
        tol = 1e-7 if CRS(src).is_latlong else 1e-2
        bad += not (np.all(np.abs(bx - x) <= tol) and np.all(np.abs(by - y) <= tol))
    return len(picked), bad


def evaluate(runs, inputs) -> common.Outcome:
    lat, finite = runs
    requests = _load(inputs)
    n = len(requests)
    points = [requests[k % n][1].size for k in range(len(lat))]
    checked, bad = round_trip_failures(requests)
    return common.Outcome(
        attempted=len(lat) + checked, failed=finite.count(False) + bad,
        metrics=common.latency_metrics(lat, points),
        info={"latency_samples": (len(lat), "count"),
              "crs.repeat_pair_share": (inputs["repeat_pair_share"], "frac")})


def traced(state, inputs, seconds, tr) -> common.Outcome:
    """One untraced and one traced replay of a whole trace cycle."""
    from proj_ray import make_transform

    requests = _load(inputs)
    t0 = time.perf_counter()
    outputs = [_try_request(r) for r in requests]
    t1 = time.perf_counter()
    seen = set()
    for r in requests:
        tr.count("crs.repeat_pairs", r[0] in seen)
        seen.add(r[0])
        _request(r, tr)
    t2 = time.perf_counter()
    checked, bad = round_trip_failures(requests)
    st = tr.self_times()
    points = sum(r[1].size for r in requests)
    m = {"trace.overhead_s": (t2 - t1) - (t1 - t0)}
    m.update(layers.transform_layer(
        points, len(requests), st["transform"],
        sum(int((~np.isfinite(a)).sum()) for o in outputs if o for a in o),
        [make_transform(*p) for p in list(dict.fromkeys(r[0] for r in requests))[:50]]))
    m.update(layers.crs_layer(tr))
    return common.Outcome(attempted=len(requests) + checked,
                          failed=sum(not _finite(o) for o in outputs) + bad,
                          metrics=m, info={"requests": (len(requests), "count")})
