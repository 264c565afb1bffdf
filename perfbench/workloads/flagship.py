"""``flagship``: the north-star batch job, ``flagship_pipeline`` (pages ->
geoparse -> Web Mercator -> tile z12 -> PIP against the five flagship
polygons -> per-cell aggregate) over a seeded lineitem-shaped key table.

Chosen because it is the job the system exists to run: it stresses
geoparse, the aggregate and the Ray Data runtime, and takes the PIP
*direct* path (five polygons), so it bypasses the spatial index.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .. import common, layers, twin
from ..trace import NULL

N_KEYS = 500_000
WARM_KEYS = 2_000
# The key table is a directory of part files, as real inputs are; each
# file is one Ray read task and one block of the fused chain.
N_FILES = 32
ZOOM, AGG_ZOOM = 12, 4
CHUNK_ROWS = 65536  # flagship.pages_dataset yields pages in chunks of this size


def _key_table(rng, n: int) -> pa.Table:
    """lineitem-shaped keys: increasing sparse order keys, 1-7 lines each."""
    n_orders = n // 2 + 8
    lines = rng.integers(1, 8, n_orders)
    okeys = np.cumsum(rng.integers(1, 5, n_orders)).astype(np.int64)
    okey = np.repeat(okeys, lines)[:n]
    starts = np.repeat(np.cumsum(lines) - lines, lines)[:n]
    line = (np.arange(n) - starts + 1).astype(np.int32)
    return pa.table({"l_orderkey": pa.array(okey, pa.int64()),
                     "l_linenumber": pa.array(line, pa.int32())})


def make_inputs(seed: int, work: str, n_keys: int = N_KEYS) -> dict:
    rng = np.random.default_rng([seed, 1])
    d = os.path.join(work, "flagship")
    warm = os.path.join(d, "warm")
    files = common.write_parts(_key_table(rng, n_keys), os.path.join(d, "lineitem.parquet"),
                         N_FILES)
    warm_files = common.write_parts(_key_table(rng, WARM_KEYS),
                              os.path.join(warm, "lineitem.parquet"), 1)
    return {"dir": d, "warm_dir": warm, "n_points": n_keys,
            "parts": files, "files": files + warm_files}


def setup(inputs, tr=NULL):
    with tr.span("ray.init"):
        common.ray_start()
    from proj_ray import CRS
    from proj_ray.pipelines.flagship import flagship_pipeline

    with tr.span("crs.init_db_load"):
        CRS("+init=epsg:4326")
    with tr.span("warmup"):
        flagship_pipeline(inputs["warm_dir"])
    return {}


def measure(state, inputs, seconds):
    from proj_ray.pipelines.flagship import flagship_pipeline

    return common.timed_loop(lambda: flagship_pipeline(inputs["dir"]), seconds)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (df[["parent_cell", "polygon_id", "n_points", "min_pid"]]
            .astype({"parent_cell": "int64", "polygon_id": str,
                     "n_points": "int64", "min_pid": "int64"})
            .sort_values(["parent_cell", "polygon_id"]).reset_index(drop=True))


def reference(inputs):
    """DuckDB twin of the whole job over the generated keys: the point
    derivation, z12 tile, even-odd PIP and the per-(z4 cell, polygon)
    aggregate.  Returns (aggregate, bbox candidates, matches, share of
    points in the busiest 1% of z12 cells)."""
    import duckdb

    from proj_ray.pipelines.flagship import FLAGSHIP_POLYGONS

    n = float(1 << ZOOM)
    d = ZOOM - AGG_ZOOM
    con = duckdb.connect()
    con.register("keys", pq.read_table(os.path.join(inputs["dir"], "lineitem.parquet")))
    con.execute(f"""
        CREATE TEMP TABLE pts AS
        SELECT pid, ((pid * 104729) % 36000 - 18000) / 1.0e2 AS lon,
                    ((pid * 7919) % 16000 - 8000) / 1.0e2 AS lat
        FROM (SELECT l_orderkey * 10 + l_linenumber AS pid FROM keys)""")
    con.execute(f"""
        CREATE TEMP TABLE cells AS
        SELECT pid,
          CAST(least(greatest(floor(((lon + 180.0) / 360.0) * {n!r}), 0.0), {n - 1!r}) AS BIGINT) AS tx,
          CAST(least(greatest(floor(((1.0 - ln(tan({np.pi / 4.0!r} + (lat * {np.pi / 180.0!r}) / 2.0))
                 / {np.pi!r}) / 2.0) * {n!r}), 0.0), {n - 1!r}) AS BIGINT) AS ty
        FROM pts""")
    cand = twin.inside_pairs(con, "pts", FLAGSHIP_POLYGONS)
    ref = con.execute(f"""
        SELECT ((c.ty // {1 << d}) << {AGG_ZOOM}) | (c.tx // {1 << d}) AS parent_cell,
               i.polygon_id, COUNT(*) AS n_points, MIN(i.pid) AS min_pid
        FROM inside i JOIN cells c USING (pid)
        GROUP BY ALL""").df()
    per_cell = con.execute(
        "SELECT COUNT(*) AS n FROM cells GROUP BY tx, ty").fetchnumpy()["n"]
    return (_sorted(ref), cand, int(ref["n_points"].sum()),
            layers.hot_cell_share(per_cell))


def evaluate(runs, inputs) -> common.Outcome:
    lat, outs = runs
    ref, _, _, hot = reference(inputs)
    n = inputs["n_points"]
    bad = sum(not _sorted(df).equals(ref) for df in outs)
    return common.Outcome(
        attempted=n * len(outs), failed=n * bad,
        metrics=common.latency_metrics(lat, [n] * len(outs)),
        info={"jobs": (len(outs), "count"), "points_per_job": (n, "count"),
              "pip.hot_cell_share": (hot, "frac")})


def _partial(df: pd.DataFrame) -> pd.DataFrame:
    # the per-batch combine flagship_pipeline runs inside its Ray chain
    from proj_ray.kernels.tiling import parent_cell

    df["parent_cell"] = parent_cell(df["cell_id"].to_numpy(), ZOOM, AGG_ZOOM)
    return df.groupby(["parent_cell", "polygon_id"], as_index=False).agg(
        n_points=("pid", "size"), min_pid=("pid", "min"))


def replay(inputs, tr) -> pd.DataFrame:
    """The job's fused chain run in process over the same blocks, through
    the same public stage callables, in pipeline order."""
    import pyarrow.compute as pc

    from proj_ray.kernels.tiling import cell_id
    from proj_ray.pipelines.derive import pid_numpy
    from proj_ray.pipelines.flagship import FLAGSHIP_POLYGONS
    from proj_ray.stages.geoparse import GeoparseStage, synth_pages_batch
    from proj_ray.stages.pip_stage import PIPJoinActor
    from proj_ray.stages.transform_stage import TransformStage

    with tr.span("crs.init"):
        stage = TransformStage("+init=epsg:4326", "+init=epsg:3857",
                               out_x="xm", out_y="ym")
    with tr.span("pip.index_build"):
        pip = PIPJoinActor(poly_defs=FLAGSHIP_POLYGONS, zoom=5,
                           id_cols=("pid", "cell_id"))
    geoparse = GeoparseStage()
    partials = []
    for path in inputs["parts"]:
        with tr.span("sources"):
            block = pq.read_table(path, columns=["l_orderkey", "l_linenumber"])
        tr.count("sources.rows", block.num_rows)
        for c0 in range(0, block.num_rows, CHUNK_ROWS):
            with tr.span("geoparse.synth"):
                chunk = block.slice(c0, CHUNK_ROWS)
                pid = pid_numpy(chunk["l_orderkey"].to_numpy(),
                                chunk["l_linenumber"].to_numpy())
                pages = synth_pages_batch(pa.table({"pid": pa.array(pid, pa.int64())}),
                                          "pid").select(["pid", "url", "text"])
            with tr.span("geoparse.extract"):
                pts = geoparse(pages)
            with tr.span("transform"):
                merc = stage(pts)
            with tr.span("tiling"):
                tiled = merc.append_column("cell_id", pa.array(
                    cell_id(merc["lon"].to_numpy(), merc["lat"].to_numpy(), ZOOM),
                    pa.int64()))
            with tr.span("pip"):
                joined = pip(tiled)
            with tr.span("agg.partial"):
                part = _partial(joined.to_pandas())
            partials.append(part)
            if tr.enabled:
                tr.count("geoparse.pages", pages.num_rows)
                tr.count("transform.points", pts.num_rows)
                tr.count("transform.nonfinite", sum(
                    pts.num_rows - pc.sum(pc.is_finite(merc[c])).as_py()
                    for c in ("xm", "ym")))
                tr.count("agg.partial_rows", len(part))
    with tr.span("agg.combine"):
        allp = pd.concat(partials, ignore_index=True)
        return allp.groupby(["parent_cell", "polygon_id"], as_index=False,
                            dropna=False).agg(n_points=("n_points", "sum"),
                                              min_pid=("min_pid", "min"))


def traced(state, inputs, seconds, tr) -> common.Outcome:
    from proj_ray import make_transform
    from proj_ray.pipelines.flagship import flagship_pipeline

    lat, outs, out, trace_s = layers.ray_traced(
        lambda: flagship_pipeline(inputs["dir"]), lambda t: replay(inputs, t),
        tr, seconds)
    ref, cand, matches, hot = reference(inputs)
    n = inputs["n_points"]
    runs = outs + [out]
    bad = sum(not _sorted(df).equals(ref) for df in runs)
    st = tr.self_times()
    busy = sum(st.get(k, 0.0) for k in LAYER_SPANS)
    pts = tr.counts["transform.points"]
    m = {
        "sources.rows": tr.counts["sources.rows"], "sources.busy_s": st["sources"],
        "geoparse.pages": tr.counts["geoparse.pages"],
        "geoparse.synth_busy_s": st["geoparse.synth"],
        "geoparse.extract_busy_s": st["geoparse.extract"],
        "tiling.points": pts, "tiling.busy_s": st["tiling"],
        "pip.points": pts, "pip.busy_s": st["pip"],
        "pip.index_build_s": st["pip.index_build"],
        "pip.candidates": cand, "pip.matches": matches,
        "pip.hit_ratio": matches / cand, "pip.hot_cell_share": hot,
        "agg.partial_rows": tr.counts["agg.partial_rows"],
        "agg.partial_busy_s": st["agg.partial"],
        "agg.combine_busy_s": st["agg.combine"], "agg.groups": len(ref),
        "trace.overhead_s": trace_s,
        **layers.ray_layer(common.median(lat), busy),
        **layers.transform_layer(
            pts, len(tr.durations("transform")), st["transform"],
            tr.counts["transform.nonfinite"],
            [make_transform("+init=epsg:4326", "+init=epsg:3857")]),
        **layers.crs_layer(tr),
    }
    return common.Outcome(attempted=n * len(runs), failed=n * bad, metrics=m,
                          info={"jobs": (len(outs), "count")})


# spans whose self time is layer work in the replayed job
LAYER_SPANS = ("sources", "geoparse.synth", "geoparse.extract", "crs.init",
               "transform", "tiling", "pip.index_build", "pip", "agg.partial",
               "agg.combine")
