"""``kernel_bulk``: in-process bulk arrays (no Ray) through a fixed mix of
CRS pairs, each isolating one kernel, then batches of Karney inverse and
direct geodesic solves.

Chosen to isolate per-point kernel cost: every call is large enough that
per-call overhead vanishes, the opposite of ``transform_requests``.
An operation is one bulk call (one pair's array or one Karney batch), so
a run holds a few thousand of them and p99 has tens of samples beyond it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import numpy as np

from .. import common, layers
from ..trace import NULL

# Sized so each call takes milliseconds: large enough that per-call
# overhead is a few percent of it, small enough for thousands of calls
# in a run.
N_PER_PAIR = 20_000
N_GEODESICS = 4_000
WGS84_A, WGS84_F = 6378137.0, 1.0 / 298.257223563
GRID_CRS = "+proj=latlong +ellps=GRS80 +nadgrids=bench.gsb"
GEO = "+init=epsg:4326"

# name -> (src, dst, sampling box (x0, x1, y0, y1) in source units)
PAIRS = {
    "merc": (GEO, "+init=epsg:3857", (-180.0, 180.0, -85.0, 85.0)),
    "utm_fwd": (GEO, "+init=epsg:32632", (3.0, 15.0, 0.0, 84.0)),
    "utm_inv": ("+init=epsg:32632", GEO, (300_000.0, 700_000.0, 0.0, 8_000_000.0)),
    "laea": (GEO, "+init=epsg:3035", (-30.0, 50.0, 25.0, 75.0)),
    "helmert7_tmerc": (GEO, "+init=epsg:31467", (5.5, 13.5, 46.0, 56.0)),
    "ntv2_fwd": (GRID_CRS, GEO, None),
    "ntv2_inv": (GEO, GRID_CRS, None),
}
GRID_SPAN = (12.0, 10.0)    # parent grid size in degrees (lon, lat)
GRID_OUTSIDE = 0.05         # share of grid-pair points drawn outside the grid
EDGE_MARGIN = 0.01          # degrees; round trips are checked away from grid edges


def _shift_grid(rng, gid, ll, delta, n):
    """Smooth seeded shift field, a few arc-seconds, as a ShiftGrid."""
    from proj_ray.kernels.common import DEG_TO_RAD
    from proj_ray.kernels.grid import ShiftGrid

    nlam, nphi = n
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    amp = rng.uniform(1e-5, 3e-5, 2)
    f = rng.uniform(0.02, 0.1, 4)
    ph = rng.uniform(0.0, 2 * np.pi, 2)
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    cvs[..., 0] = amp[0] * np.sin(ii * f[0] + ph[0]) * np.cos(jj * f[1])
    cvs[..., 1] = amp[1] * np.cos(ii * f[2] - jj * f[3] + ph[1])
    return ShiftGrid(gid, (ll[0] * DEG_TO_RAD, ll[1] * DEG_TO_RAD),
                     (delta * DEG_TO_RAD, delta * DEG_TO_RAD), n, cvs)


def make_inputs(seed: int, work: str, n: int = N_PER_PAIR,
                m: int = N_GEODESICS) -> dict:
    from proj_ray.sources.grids import write_ntv2

    rng = np.random.default_rng([seed, 3])
    d = os.path.join(work, "kernel_bulk")
    os.makedirs(d)
    # parent 0.1-degree grid with one finer 0.02-degree child inside it
    lon0, lat0 = float(rng.uniform(-20.0, 20.0)), float(rng.uniform(30.0, 50.0))
    parent = _shift_grid(rng, "PARENT", (lon0, lat0), 0.1, (121, 101))
    clon, clat = lon0 + float(rng.uniform(2.0, 8.0)), lat0 + float(rng.uniform(2.0, 6.0))
    child = _shift_grid(rng, "CHILD", (clon, clat), 0.02, (101, 101))
    grid_path = os.path.join(d, "bench.gsb")
    write_ntv2(grid_path, [(parent, None), (child, "PARENT")])
    files = [grid_path]
    for name, (_, _, box) in PAIRS.items():
        if box is None:  # grid pairs: mostly inside the grid, a few around it
            inside = rng.random(n) >= GRID_OUTSIDE
            x = np.where(inside, rng.uniform(lon0, lon0 + GRID_SPAN[0], n),
                         rng.uniform(lon0 - 5.0, lon0 + GRID_SPAN[0] + 5.0, n))
            y = np.where(inside, rng.uniform(lat0, lat0 + GRID_SPAN[1], n),
                         rng.uniform(lat0 - 5.0, lat0 - 0.5, n))
        else:
            x = rng.uniform(box[0], box[1], n)
            y = rng.uniform(box[2], box[3], n)
        files.append(_save(d, name, np.stack([x, y])))
    # geodesics: global pairs, 10% short lines, 5% near-antipodal
    lon1, lat1 = rng.uniform(-180.0, 180.0, m), rng.uniform(-89.0, 89.0, m)
    lon2, lat2 = rng.uniform(-180.0, 180.0, m), rng.uniform(-89.0, 89.0, m)
    kind = rng.random(m)
    short = kind < 0.10
    lon2[short] = lon1[short] + rng.normal(0.0, 0.05, short.sum())
    lat2[short] = np.clip(lat1[short] + rng.normal(0.0, 0.05, short.sum()), -89.9, 89.9)
    anti = kind > 0.95
    lon2[anti] = lon1[anti] + 180.0 + rng.normal(0.0, 0.3, anti.sum())
    lat2[anti] = -lat1[anti] + rng.normal(0.0, 0.3, anti.sum())
    files.append(_save(d, "inverse", np.stack([lon1, lat1, lon2, lat2])))
    files.append(_save(d, "direct", np.stack([
        rng.uniform(-180.0, 180.0, m), rng.uniform(-89.0, 89.0, m),
        rng.uniform(-180.0, 180.0, m), rng.uniform(1e3, 1.9e7, m)])))
    box = (lon0, lon0 + GRID_SPAN[0], lat0, lat0 + GRID_SPAN[1])
    child_box = (clon, clon + 2.0, clat, clat + 2.0)
    return {"dir": d, "grid": grid_path, "grid_box": box, "child_box": child_box,
            "n_per_pair": n, "n_geodesics": m, "files": files}


def _save(d, name, arr) -> str:
    path = os.path.join(d, f"{name}.npy")
    np.save(path, arr)
    return path


def _load(inputs) -> dict:
    return {name: np.load(os.path.join(inputs["dir"], f"{name}.npy"))
            for name in list(PAIRS) + ["inverse", "direct"]}


def setup(inputs, tr=NULL):
    from proj_ray import CRS, make_transform
    from proj_ray.kernels import karney  # noqa: F401  (import cost is set-up)
    from proj_ray.sources.grids import dir_grid_loader

    with tr.span("crs.init_db_load"):
        CRS(GEO)
    loader = dir_grid_loader(inputs["dir"])
    transforms = {}
    for name, (src, dst, _) in PAIRS.items():
        with tr.span("crs.init"):
            transforms[name] = make_transform(src, dst, grid_loader=loader)
    return {"transforms": transforms}


def _pass(state, data, tr) -> dict:
    """One pass over the mix; returns outputs and per-kernel times."""
    from proj_ray.kernels.karney import geod_direct_karney, geod_inverse_karney

    out, secs = {}, {}
    for name, t in state["transforms"].items():
        xy = data[name]
        t0 = time.perf_counter()
        with tr.span("transform." + name):
            x, y, _ = t(xy[0], xy[1])
        secs[name] = time.perf_counter() - t0
        out[name] = (x, y)
    g = data["inverse"]
    t0 = time.perf_counter()
    with tr.span("karney.inverse"):
        out["inverse"] = geod_inverse_karney(g[0], g[1], g[2], g[3], WGS84_A, WGS84_F)[:3]
    t1 = time.perf_counter()
    g = data["direct"]
    with tr.span("karney.direct"):
        out["direct"] = geod_direct_karney(g[0], g[1], g[2], g[3], WGS84_A, WGS84_F)[:2]
    t2 = time.perf_counter()
    secs["inverse"], secs["direct"] = t1 - t0, t2 - t1
    return {"out": out, "secs": secs}


def _digest(out) -> str:
    h = hashlib.sha256()
    for arrays in out.values():
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _summary(p) -> dict:
    return {"secs": p["secs"], "digest": _digest(p["out"])}


def measure(state, inputs, seconds):
    data = _load(inputs)
    first = _pass(state, data, NULL)  # warm-up, kept for the output checks
    _, passes = common.timed_loop(lambda: _pass(state, data, NULL), seconds,
                                  keep=_summary)
    return {"data": data, "first": first, "passes": passes}


def _failures(inputs, runs, n_passes) -> tuple[int, int]:
    """(attempted, failed) points over the passes: every pass repeats the
    checked first pass's results bit for bit, or fails as a whole."""
    per_pass = len(PAIRS) * inputs["n_per_pair"] + 2 * inputs["n_geodesics"]
    failed_first = check(inputs, runs["data"], runs["first"]["out"])
    ref = _digest(runs["first"]["out"])
    mismatched = sum(p["digest"] != ref for p in runs["passes"])
    return (per_pass * n_passes,
            failed_first * (n_passes - mismatched) + per_pass * mismatched)


def grid_outside_frac(inputs, data) -> float:
    """Share of the NTv2 pairs' points outside the grid's extent."""
    grid_pts = np.concatenate([data["ntv2_fwd"], data["ntv2_inv"]], axis=1)
    return 1.0 - float(_inside(*grid_pts, inputs["grid_box"], 0.0).mean())


def evaluate(runs, inputs) -> common.Outcome:
    passes = runs["passes"]
    t_transform = [sum(p["secs"][k] for k in PAIRS) for p in passes]
    t_geo = [p["secs"]["inverse"] + p["secs"]["direct"] for p in passes]
    calls = [dt for p in passes for dt in p["secs"].values()]
    attempted, failed = _failures(inputs, runs, len(passes))
    points = [len(PAIRS) * inputs["n_per_pair"]] * len(passes)
    geodesics = [2 * inputs["n_geodesics"]] * len(passes)
    # points_per_s counts transform points over transform time only
    metrics = dict(common.latency_metrics(calls, [1] * len(calls)),
                   points_per_s=common.windowed_rate(t_transform, points))
    return common.Outcome(
        attempted=attempted, failed=failed, metrics=metrics,
        info={"geodesics_per_s": (common.windowed_rate(t_geo, geodesics), "1/s"),
              "latency_samples": (len(calls), "count"),
              "passes": (len(passes), "count"),
              "points_per_pass": (points[0], "count"),
              "geodesics_per_pass": (geodesics[0], "count"),
              "grid.outside_frac": (grid_outside_frac(inputs, runs["data"]), "frac")})


def traced(state, inputs, seconds, tr) -> common.Outcome:
    data = _load(inputs)
    first = _pass(state, data, NULL)
    lat, passes = common.timed_loop(lambda: _pass(state, data, NULL), seconds / 2,
                                    keep=_summary)
    t0 = time.perf_counter()
    for _ in passes:
        _pass(state, data, tr)
    traced_s = time.perf_counter() - t0
    k = len(passes)
    attempted, failed = _failures(inputs, {"data": data, "first": first,
                                           "passes": passes}, k)
    st = tr.self_times()
    n = inputs["n_per_pair"]
    nonfinite = sum(int((~np.isfinite(a)).sum()) for name in PAIRS
                    for a in first["out"][name])
    m = {f"transform.{name}.busy_s": st[f"transform.{name}"] for name in PAIRS}
    m.update(layers.transform_layer(
        len(PAIRS) * n * k, len(PAIRS) * k, sum(m.values()), nonfinite * k,
        list(state["transforms"].values())))
    m.update(layers.crs_layer(tr))
    m.update({
        "grid.outside_frac": grid_outside_frac(inputs, data),
        "karney.inverse_pairs": inputs["n_geodesics"] * k,
        "karney.inverse_busy_s": st["karney.inverse"],
        "karney.direct_busy_s": st["karney.direct"],
        "trace.overhead_s": traced_s - sum(lat),
    })
    return common.Outcome(attempted=attempted, failed=failed, metrics=m,
                          info={"passes": (k, "count")})


def _inside(x, y, box, margin):
    return ((x > box[0] + margin) & (x < box[1] - margin)
            & (y > box[2] + margin) & (y < box[3] - margin))


def check(inputs, data, out) -> int:
    """Failed points of one pass's outputs: non-finite results, round
    trips outside the tolerances the tests use, and mismatches against
    the scalar references of tools/scalar_ref.py on a seeded sample
    (NTv2 bit for bit, Karney inverse within 1 um / 1e-9 degree)."""
    from proj_ray import make_transform
    from proj_ray.kernels.karney import geod_inverse_karney
    from proj_ray.sources.grids import dir_grid_loader

    sys.path.insert(0, os.path.join(common.ROOT, "tools"))
    from scalar_ref import (karney_inverse_scalar, ntv2_transform_scalar,
                            read_ntv2_scalar)

    loader = dir_grid_loader(inputs["dir"])
    rng = np.random.default_rng(0)
    failed = 0
    for name, (src, dst, _) in PAIRS.items():
        x0, y0 = data[name]
        x, y = out[name]
        bad = ~(np.isfinite(x) & np.isfinite(y))
        # round trip back through the inverse transform
        bx, by, _ = make_transform(dst, src, grid_loader=loader)(x, y)
        tol = 1e-7 if src in (GEO, GRID_CRS) else 1e-2  # degrees / metres
        far = (np.abs(bx - x0) > tol) | (np.abs(by - y0) > tol)
        if name.startswith("ntv2"):
            # a shift that carries a point across a grid edge has no inverse
            for b in (inputs["grid_box"], inputs["child_box"]):
                far &= ~(_inside(x0, y0, b, -EDGE_MARGIN)
                         & ~_inside(x0, y0, b, EDGE_MARGIN))
            grids = read_ntv2_scalar(inputs["grid"])
            idx = rng.choice(x0.size, 300, replace=False)
            rx, ry = ntv2_transform_scalar(grids, x0[idx], y0[idx],
                                           inverse=name == "ntv2_inv")
            bad[idx] |= (rx != x[idx]) | (ry != y[idx])
        failed += int((bad | far).sum())
    lon1, lat1, lon2, lat2 = data["inverse"]
    s12, azi1, azi2 = out["inverse"]
    bad = ~(np.isfinite(s12) & np.isfinite(azi1) & np.isfinite(azi2))
    # 1 um and 1e-9 degree: the vectorized kernel is bit-identical to the
    # scalar one on the tests' samples but not on every short line here
    for i in rng.choice(s12.size, 300, replace=False):
        rs, ra1, ra2 = karney_inverse_scalar(lon1[i], lat1[i], lon2[i], lat2[i])
        bad[i] |= not (abs(rs - s12[i]) <= 1e-6 and abs(ra1 - azi1[i]) <= 1e-9
                       and abs(ra2 - azi2[i]) <= 1e-9)
    failed += int(bad.sum())
    # direct: the inverse solve between its endpoints gives back s12
    lon1, lat1, _, s = data["direct"]
    lon2, lat2 = out["direct"]
    back = geod_inverse_karney(lon1, lat1, lon2, lat2, WGS84_A, WGS84_F)[0]
    failed += int((~np.isfinite(lon2) | ~(np.abs(back - s) < 1e-6 * np.maximum(s, 1.0))).sum())
    return failed
