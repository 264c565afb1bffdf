"""``spatial_join``: a Ray Data job joining seeded points against a seeded
set of polygons through ``PIPJoinActor(index="s2rtree")``, then counting
points per polygon with ``combine_partials``.

Chosen because it exercises the indexed path -- S2 cell buckets, one
packed R-tree per bucket, exact even-odd test on the tree's candidates
-- and cell skew, which ``flagship`` bypasses: most points sit in a few
Zipf-weighted dense "urban" clusters where most polygons also sit.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .. import common, layers, twin
from ..trace import NULL

N_POINTS = 75_000
N_POLYGONS = 1_500
N_CLUSTERS = 24
CLUSTER_SHARE = 0.8  # points drawn from the urban clusters; the rest uniform
# Cluster spread and the Zipf weights are fixed; the seed moves clusters,
# polygons and points.  A seeded spread would change the hot cluster's
# density, and with it the join's cost, from one seed to the next.
CLUSTER_SIGMA = 0.5
S2_LEVEL = 6
N_FILES = 4


def _zipf(rng, k: int, s: float = 1.2) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1) ** s
    return rng.permutation(w / w.sum())


def _ring(rng, cx, cy, r, concave: bool) -> list:
    nv = int(rng.integers(5, 13))
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, nv))
    rad = np.full(nv, r)
    if concave:
        rad[1::2] *= rng.uniform(0.3, 0.7, rad[1::2].size)
    return np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)]).tolist()


def _polygons(rng, centers, weights) -> list:
    polys = []
    for k in range(N_POLYGONS):
        # Size ranges are narrow so that no single polygon covers much of
        # a hot cluster: the join's cost then varies little between seeds.
        if rng.random() < 0.6:  # urban: small shapes in and around the clusters
            c = centers[rng.choice(len(centers), p=weights)]
            cx, cy = c + rng.normal(0.0, 0.6, 2)
            r = float(np.exp(rng.uniform(np.log(0.03), np.log(0.15))))
        else:  # background: larger shapes anywhere
            cx, cy = rng.uniform(-170.0, 170.0), rng.uniform(-75.0, 75.0)
            r = float(np.exp(rng.uniform(np.log(0.2), np.log(1.0))))
        polys.append((f"poly{k:05d}", _ring(rng, cx, cy, r, concave=bool(k % 2))))
    return polys


def _points(rng, n, centers, weights) -> pa.Table:
    n_c = int(n * CLUSTER_SHARE)
    which = rng.choice(len(centers), size=n_c, p=weights)
    lon = np.concatenate([centers[which, 0] + rng.normal(0, CLUSTER_SIGMA, n_c),
                          rng.uniform(-180.0, 180.0, n - n_c)])
    lat = np.concatenate([centers[which, 1] + rng.normal(0, CLUSTER_SIGMA, n_c),
                          rng.uniform(-85.0, 85.0, n - n_c)])
    order = rng.permutation(n)
    return pa.table({"pid": pa.array(np.arange(n, dtype=np.int64)),
                     "lon": pa.array(lon[order]), "lat": pa.array(lat[order])})


def make_inputs(seed: int, work: str, n_points: int = N_POINTS) -> dict:
    rng = np.random.default_rng([seed, 2])
    d = os.path.join(work, "spatial_join")
    os.makedirs(d)
    centers = np.column_stack([rng.uniform(-160.0, 160.0, N_CLUSTERS),
                               rng.uniform(-55.0, 65.0, N_CLUSTERS)])
    weights = _zipf(rng, N_CLUSTERS)
    poly_path = os.path.join(d, "polygons.json")
    with open(poly_path, "w") as f:
        json.dump(_polygons(rng, centers, weights), f)
    parts = common.write_parts(_points(rng, n_points, centers, weights),
                         os.path.join(d, "points.parquet"), N_FILES)
    warm = common.write_parts(_points(rng, 2_000, centers, weights),
                        os.path.join(d, "warm", "points.parquet"), 1)
    return {"dir": d, "warm_dir": os.path.join(d, "warm"), "polygons": poly_path,
            "n_points": n_points, "parts": parts, "files": [poly_path] + parts + warm}


def _poly_defs(inputs):
    with open(inputs["polygons"]) as f:
        return [(pid, [tuple(v) for v in ring]) for pid, ring in json.load(f)]


def count_partial(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch count of joined rows per polygon."""
    return df.groupby("polygon_id", as_index=False).agg(n=("pid", "size"))


def _job(joiner, sf_dir: str) -> pd.DataFrame:
    from proj_ray.sources import read_table
    from proj_ray.stages.agg import combine_partials

    pts = read_table(sf_dir, "points", columns=["pid", "lon", "lat"],
                     override_num_blocks=N_FILES)
    joined = pts.map_batches(joiner, batch_format="pyarrow", batch_size=None)
    partials = joined.map_batches(count_partial, batch_format="pandas",
                                  batch_size=None)
    return combine_partials(partials, ["polygon_id"], {"n": "sum"})


def setup(inputs, tr=NULL):
    with tr.span("ray.init"):
        common.ray_start()
    from proj_ray.stages.pip_stage import PIPJoinActor

    poly_defs = _poly_defs(inputs)
    with tr.span("pip.index_build"):
        joiner = PIPJoinActor(poly_defs=poly_defs, zoom=S2_LEVEL, index="s2rtree",
                              id_cols=("pid",))
    with tr.span("warmup"):
        _job(joiner, inputs["warm_dir"])
    return {"joiner": joiner, "poly_defs": poly_defs}


def measure(state, inputs, seconds):
    return common.timed_loop(lambda: _job(state["joiner"], inputs["dir"]), seconds)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (df[["polygon_id", "n"]].astype({"polygon_id": str, "n": "int64"})
            .sort_values("polygon_id").reset_index(drop=True))


def reference(inputs, poly_defs):
    """DuckDB even-odd twin over every point: (counts, candidates)."""
    import duckdb

    con = duckdb.connect()
    con.register("pts", pq.read_table(os.path.join(inputs["dir"], "points.parquet")))
    cand = twin.inside_pairs(con, "pts", poly_defs)
    ref = con.execute("SELECT polygon_id, COUNT(*) AS n FROM inside GROUP BY ALL").df()
    return _sorted(ref), cand


def properties(inputs, poly_defs) -> dict:
    """Input properties the index's cost depends on: the share of points
    in the busiest 1% of occupied S2 cells, and polygons per S2 bucket."""
    from proj_ray.kernels.s2cell import cell_id_from_lonlat
    from proj_ray.stages.pip_stage import bucket_polygons_s2, make_polygons

    pts = pq.read_table(os.path.join(inputs["dir"], "points.parquet"))
    cells = cell_id_from_lonlat(pts["lon"].to_numpy(), pts["lat"].to_numpy(), S2_LEVEL)
    buckets = bucket_polygons_s2(make_polygons(poly_defs), S2_LEVEL)
    return {"pip.hot_cell_share": layers.hot_cell_share(
                np.unique(cells, return_counts=True)[1]),
            "pip.polys_per_cell": sum(map(len, buckets.values())) / len(buckets)}


def evaluate(runs, inputs) -> common.Outcome:
    lat, outs = runs
    poly_defs = _poly_defs(inputs)
    ref, _ = reference(inputs, poly_defs)
    n = inputs["n_points"]
    bad = sum(not _sorted(df).equals(ref) for df in outs)
    props = {k: (v, "frac" if k.endswith("share") else "count")
             for k, v in properties(inputs, poly_defs).items()}
    return common.Outcome(
        attempted=n * len(outs), failed=n * bad,
        metrics=common.latency_metrics(lat, [n] * len(outs)),
        info={"jobs": (len(outs), "count"), "points_per_job": (n, "count"),
              "polygons": (N_POLYGONS, "count"), **props})


def replay(inputs, joiner, tr) -> pd.DataFrame:
    """The job's fused chain run in process, block by block."""
    partials = []
    for path in inputs["parts"]:
        with tr.span("sources"):
            block = pq.read_table(path, columns=["pid", "lon", "lat"])
        with tr.span("pip"):
            joined = joiner(block)
        with tr.span("agg.partial"):
            part = count_partial(joined.to_pandas())
        partials.append(part)
        tr.count("sources.rows", block.num_rows)
        tr.count("agg.partial_rows", len(part))
    with tr.span("agg.combine"):
        return pd.concat(partials, ignore_index=True).groupby(
            "polygon_id", as_index=False, dropna=False).agg(n=("n", "sum"))


def traced(state, inputs, seconds, tr) -> common.Outcome:
    joiner = state["joiner"]
    lat, outs, out, trace_s = layers.ray_traced(
        lambda: _job(joiner, inputs["dir"]), lambda t: replay(inputs, joiner, t),
        tr, seconds)
    ref, cand = reference(inputs, state["poly_defs"])
    n = inputs["n_points"]
    runs = outs + [out]
    bad = sum(not _sorted(df).equals(ref) for df in runs)
    st = tr.self_times()
    busy = sum(st[k] for k in ("sources", "pip", "agg.partial", "agg.combine"))
    matches = int(ref["n"].sum())
    m = {
        "sources.rows": tr.counts["sources.rows"], "sources.busy_s": st["sources"],
        "pip.points": n, "pip.busy_s": st["pip"],
        "pip.index_build_s": st["pip.index_build"],
        "pip.candidates": cand, "pip.matches": matches,
        "pip.hit_ratio": matches / cand,
        **properties(inputs, state["poly_defs"]),
        "agg.partial_rows": tr.counts["agg.partial_rows"],
        "agg.partial_busy_s": st["agg.partial"],
        "agg.combine_busy_s": st["agg.combine"], "agg.groups": len(ref),
        "trace.overhead_s": trace_s,
        **layers.ray_layer(common.median(lat), busy),
    }
    return common.Outcome(attempted=n * len(runs), failed=n * bad, metrics=m,
                          info={"jobs": (len(outs), "count")})
