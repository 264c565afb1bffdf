"""The flagship pipeline: the full north-star DAG.

lineitem keys -> synth pages (pid, text-with-coordinate-mentions) ->
geoparse (RE2 extract) -> reproject WGS84 -> Web Mercator (fused
14-step transform) -> tile assign (zoom 12) -> PIP join against the
broadcast polygon set -> per-cell aggregate.

Streaming end-to-end: no take_all/to_pandas/materialize on the big
stream; the only materialized result is the final per-cell aggregate
(bounded by cell count). Only what the output reads rides the stream:
pages carry ``pid`` and ``text``, extraction keeps ``pid``, and the
aggregate joins and groups on one int64 key per (parent cell, polygon
index), so ``polygon_id`` strings are built once, at the sink.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.pip import PolygonSet
from ..kernels.tiling import parent_cell
from ..sources import read_table
from ..stages.geoparse import GeoparseStage, page_text
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


def pages_dataset(sf_dir: str, mult: int = 1):
    """lineitem keys -> pages (pid, text): the volume source for the
    web-scale shape. ``mult`` > 1 fans each key out to ``mult`` distinct
    pages (distinct pids) — the bench knob that scales the point stream
    without changing the pipeline shape."""
    import ray

    # four read tasks per cluster CPU: enough to keep every CPU busy and
    # balanced, few enough that per-task overhead does not dominate. Each
    # task reads one contiguous group of part files into ONE block (32
    # files on 1 CPU: 4 blocks of 8 files)
    nblocks = 4 * int(ray.cluster_resources().get("CPU", 8))
    ds = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"],
                    override_num_blocks=nblocks)

    # called once per key block: one table of pages, which every later
    # fused stage gets whole, in one call
    def mk(batch: pa.Table) -> pa.Table:
        pid = pid_numpy(batch["l_orderkey"].to_numpy(zero_copy_only=False),
                        batch["l_linenumber"].to_numpy(zero_copy_only=False))
        if mult > 1:
            pid = (pid[:, None] * mult + np.arange(mult, dtype=np.int64)[None, :]
                   ).reshape(-1)
        return pa.table({"pid": pa.array(pid, pa.int64()), "text": page_text(pid)})

    return ds.map_batches(mk, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def _tiled_points(sf_dir: str, zoom: int, mult: int):
    """pages -> geoparse -> web-mercator -> tile: (pid, lat, lon, xm, ym,
    cell_id)."""
    # GeoparseStage instance => stateless task pool (scales with CPUs,
    # no actor startup). The chain stages take batch_size=None, so each
    # call gets the pages of one read block whole (125k for 500k keys on
    # 1 CPU): a row-count batch_size becomes min-rows-per-task-bundle on
    # the fused operator and collapses parallelism (observed: 600k-row
    # input -> 9 tasks)
    points = pages_dataset(sf_dir, mult=mult).map_batches(
        GeoparseStage(keep=("pid",)), batch_format="pyarrow", batch_size=None)
    merc = transform_points_stage(points, "+init=epsg:4326", "+init=epsg:3857",
                                  lon_col="lon", lat_col="lat",
                                  out_x="xm", out_y="ym", batch_size=None)
    return tile_stage(merc, zoom, out="cell_id")


def flagship_points(sf_dir: str, zoom: int = 12, mult: int = 1):
    """The flagship POINT stream (pages -> geoparse -> web-mercator ->
    tile -> PIP join) as a Dataset of (pid, cell_id, polygon_id), one row
    per (point, containing polygon) — the stream jobs/flagship_job.py
    writes."""
    return _tiled_points(sf_dir, zoom, mult).map_batches(
        PIPJoinActor(poly_defs=FLAGSHIP_POLYGONS, id_cols=("pid", "cell_id")),
        batch_format="pyarrow", batch_size=None)


class _CellPolygonPartial:
    """PIP join + per-batch partial aggregate on one int64 key,
    ``parent_cell * n_polygons + polygon_index``: (key, n_points,
    min_pid), one row per key present in the batch, keys ascending."""

    def __init__(self, zoom: int, agg_zoom: int):
        self.polygons = PolygonSet(FLAGSHIP_POLYGONS)
        self.zoom = zoom
        self.agg_zoom = agg_zoom

    def __call__(self, batch: pa.Table) -> pa.Table:
        pt, poly = self.polygons.join(batch["lon"].to_numpy(), batch["lat"].to_numpy())
        cell = parent_cell(batch["cell_id"].to_numpy()[pt], self.zoom, self.agg_zoom)
        key = cell * len(self.polygons.ids) + poly
        pid = batch["pid"].to_numpy()[pt]
        order = np.lexsort((pid, key))
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        return pa.table({"key": key[first],
                         "n_points": np.diff(first, append=key.size),
                         "min_pid": pid[order[first]]})


def flagship_pipeline(sf_dir: str, zoom: int = 12, agg_zoom: int = 4,
                      mult: int = 1):
    """Returns the per-(cell, polygon) aggregate as a pandas frame
    (parent_cell, polygon_id, n_points, min_pid), ordered by
    (parent_cell, polygon_id); key-cardinality-bounded."""
    partial = _CellPolygonPartial(zoom, agg_zoom)
    partials = _tiled_points(sf_dir, zoom, mult).map_batches(
        partial, batch_format="pyarrow", batch_size=None)
    # final combine: the key space (cells at agg_zoom x polygons) is tiny,
    # so below the size threshold the all-to-all groupby shuffle (seconds
    # of fixed latency) is replaced by a driver-side reduce over the small
    # partials; past it (#blocks x cardinality at 100 TB scale) the same
    # helper falls back to the distributed groupby (stages.agg).
    from ..stages.agg import combine_partials

    agg = combine_partials(partials, ["key"], {"n_points": "sum", "min_pid": "min"})
    key = agg["key"].to_numpy(np.int64)
    ids = np.asarray(partial.polygons.ids, dtype=object)
    out = pd.DataFrame({
        "parent_cell": key // ids.size,
        "polygon_id": ids[key % ids.size],
        "n_points": agg["n_points"].to_numpy(np.int64),
        "min_pid": agg["min_pid"].to_numpy(np.int64),
    })
    return out.sort_values(["parent_cell", "polygon_id"], ignore_index=True)
