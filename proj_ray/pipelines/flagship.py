"""The flagship pipeline: the full north-star DAG.

lineitem keys -> synth Common-Crawl-style pages (url, warc_ts, html,
text-with-coordinate-mentions, lang) -> geoparse (RE2 extract) ->
reproject WGS84 -> Web Mercator (fused 14-step transform) -> tile
assign (zoom 12) -> PIP join against the broadcast polygon set ->
per-cell aggregate (partial combine, then tiny groupby).

Streaming end-to-end: no take_all/to_pandas/materialize on the big
stream; the only materialized result is the final per-cell aggregate
(bounded by cell count). The wide ``html`` column is dropped right
after synthesis (select_columns) so the point pipeline never ships it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources import read_table
from ..stages.geoparse import GeoparseStage, synth_pages_batch
from ..stages.tile_stage import tile_stage
from ..stages.pip_stage import PIPJoinActor
from ..stages.transform_stage import transform_points_stage
from .derive import pid_numpy

# fixed AOI polygon set (FIXTURES.md §4 shapes: convex, concave, overlapping)
FLAGSHIP_POLYGONS = [
    ("na_box", [(-130.0, 25.0), (-60.0, 25.0), (-60.0, 55.0), (-130.0, 55.0)]),
    ("eu_blob", [(-10.0, 36.0), (25.0, 36.0), (32.0, 48.0), (15.0, 60.0), (-5.0, 55.0)]),
    ("concave_c", [(60.0, -20.0), (100.0, -20.0), (100.0, 20.0), (60.0, 20.0),
                   (60.0, 10.0), (90.0, 10.0), (90.0, -10.0), (60.0, -10.0)]),
    ("overlap_eu", [(0.0, 40.0), (20.0, 40.0), (20.0, 52.0), (0.0, 52.0)]),
    ("south_band", [(-170.0, -60.0), (170.0, -60.0), (170.0, -35.0), (-170.0, -35.0)]),
]


def pages_dataset(sf_dir: str, batch_size: int = 65536, mult: int = 1):
    """lineitem keys -> pages table (volume source for the web-scale
    shape). ``mult`` > 1 fans each key out to ``mult`` distinct pages
    (distinct pids) — the bench knob that scales the point stream without
    changing the pipeline shape."""
    import ray

    # split the single-file key read so the producer isn't serial
    # (real inputs are many files/row-groups and split for free)
    nblocks = max(32, 4 * int(ray.cluster_resources().get("CPU", 8)))
    ds = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"],
                    override_num_blocks=nblocks)

    # generator UDF: one whole key block in, pages YIELDED in ~64k-row
    # chunks — each downstream fused-stage call sees a decently sized
    # batch (per-call overhead amortized) while the expansion transient
    # stays bounded, independent of input bundling
    chunk_rows = 65536

    def mk(batch: pa.Table):
        pid = pid_numpy(batch["l_orderkey"].to_numpy(zero_copy_only=False),
                        batch["l_linenumber"].to_numpy(zero_copy_only=False))
        if mult > 1:
            pid = (pid[:, None] * mult + np.arange(mult, dtype=np.int64)[None, :]
                   ).reshape(-1)
        for lo in range(0, pid.size, chunk_rows):
            yield synth_pages_batch(
                pa.table({"pid": pa.array(pid[lo:lo + chunk_rows], pa.int64())}),
                "pid")

    return ds.map_batches(mk, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def flagship_points(sf_dir: str, zoom: int = 12, batch_size: int = 65536,
                    mult: int = 1):
    """The flagship POINT stream (pages -> geoparse -> web-mercator ->
    tile -> PIP join) as a Dataset — the write/aggregate consumers
    branch from here (flagship_pipeline, jobs/flagship_job.py)."""
    pages = pages_dataset(sf_dir, batch_size=batch_size, mult=mult)
    # drop the wide html column before the point pipeline (prune early)
    pages = pages.select_columns(["pid", "url", "text"])
    # GeoparseStage instance => stateless task pool (scales with CPUs,
    # no actor startup); the class form stays available for heavy state
    # NOTE: no batch_size on the chain stages — a row-count batch_size
    # becomes min-rows-per-task-bundle on the fused operator and
    # collapses parallelism (observed: 600k-row input -> 9 tasks)
    points = pages.map_batches(GeoparseStage(), batch_format="pyarrow",
                               batch_size=None)
    merc = transform_points_stage(points, "+init=epsg:4326", "+init=epsg:3857",
                                  lon_col="lon", lat_col="lat",
                                  out_x="xm", out_y="ym", batch_size=None)
    tiled = tile_stage(merc, zoom, out="cell_id")
    return tiled.map_batches(
        PIPJoinActor(poly_defs=FLAGSHIP_POLYGONS, id_cols=("pid", "cell_id")),
        batch_format="pyarrow", batch_size=None)


def flagship_pipeline(sf_dir: str, zoom: int = 12, agg_zoom: int = 4,
                      batch_size: int = 65536, mult: int = 1):
    """Returns the per-(cell, polygon) aggregate as a pandas frame
    (key-cardinality-bounded; the combine is size-dispatched)."""
    joined = flagship_points(sf_dir, zoom=zoom, batch_size=batch_size,
                             mult=mult)

    from ..kernels.tiling import parent_cell

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["parent_cell"] = parent_cell(df["cell_id"].to_numpy(), zoom, agg_zoom)
        return df.groupby(["parent_cell", "polygon_id"], as_index=False).agg(
            n_points=("pid", "size"), min_pid=("pid", "min"))

    partials = joined.map_batches(partial, batch_format="pandas", batch_size=None)
    # final combine: the key space (cells at agg_zoom x polygons) is tiny,
    # so below the size threshold the all-to-all groupby shuffle (seconds
    # of fixed latency) is replaced by a driver-side reduce over the small
    # partials; past it (#blocks x cardinality at 100 TB scale) the same
    # helper falls back to the distributed groupby (stages.agg).
    from ..stages.agg import combine_partials

    return combine_partials(partials, ["parent_cell", "polygon_id"],
                            {"n_points": "sum", "min_pid": "min"})
