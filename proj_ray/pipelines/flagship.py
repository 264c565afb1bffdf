"""The flagship pipeline: the full north-star DAG.

lineitem keys -> synth pages (pid, text-with-coordinate-mentions) ->
geoparse (each page's first "(lat, lon)" mention) -> PIP join against
the broadcast polygon set -> reproject WGS84 -> Web Mercator (fused
14-step transform) and tile assign (zoom 12) of the points inside a
polygon -> per-cell aggregate.

The chain is written once, in :class:`FlagshipChain`, as a function of
one key table. ``pages_dataset``, ``flagship_points`` and
``flagship_pipeline`` map it over ``read_table``'s blocks, and
``jobs/flagship_job.py`` calls it on each part file of its plan.

Streaming end-to-end: no take_all/to_pandas/materialize on the big
stream; the only materialized result is the final per-cell aggregate
(bounded by cell count). Only what the output reads rides the stream:
the chain keeps ``pid``, the cell and the polygon index of each
(point, containing polygon) pair, and the aggregate groups on one int64
key per (parent cell, polygon index), so ``polygon_id`` strings are
built once, at the sink.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.pip import PolygonSet
from ..kernels.tiling import cell_id, parent_cell
from ..sources import read_table
from ..stages.geoparse import GeoparseStage, page_text
from ..transform import make_transform
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
KEY_COLS = ["l_orderkey", "l_linenumber"]
ZOOM, AGG_ZOOM = 12, 4  # point tiles; aggregate cells


def key_pages(keys: pa.Table, mult: int = 1) -> pa.Table:
    """One lineitem key table -> its pages (pid, text). ``mult`` > 1 fans
    each key out to ``mult`` distinct pages (distinct pids) — the bench
    knob that scales the point stream without changing the pipeline
    shape."""
    pid = pid_numpy(keys["l_orderkey"].to_numpy(zero_copy_only=False),
                    keys["l_linenumber"].to_numpy(zero_copy_only=False))
    if mult > 1:
        pid = (pid[:, None] * mult + np.arange(mult, dtype=np.int64)[None, :]
               ).reshape(-1)
    return pa.table({"pid": pa.array(pid, pa.int64()), "text": page_text(pid)})


class FlagshipChain:
    """One lineitem key table -> its flagship points: pages -> geoparse
    -> PIP join -> Web Mercator and tile of the matched points, one row
    per (point, containing polygon). The transform and the polygon set
    are built once, on the driver; Ray Data puts the instance into the
    object store once per operator."""

    def __init__(self, mult: int = 1):
        self.mult = mult
        self.geoparse = GeoparseStage(keep=("pid",))
        self.merc = make_transform("+init=epsg:4326", "+init=epsg:3857")
        self.polygons = PolygonSet(FLAGSHIP_POLYGONS)
        self.polygon_ids = pa.array(self.polygons.ids, pa.string())

    def join(self, keys: pa.Table):
        """(pid, cell_id, polygon index) arrays, one lane per (point,
        containing polygon), ordered by point then polygon."""
        pts = self.geoparse(key_pages(keys, self.mult))
        lon, lat = pts["lon"].to_numpy(), pts["lat"].to_numpy()
        # both sinks read only points inside a polygon (a data-induced
        # predicate), so the join runs first and each matched point is
        # projected and tiled once, however many polygons hold it
        pt, poly = self.polygons.join(lon, lat)
        first = np.flatnonzero(np.diff(pt, prepend=-1))
        lon, lat = lon[pt[first]], lat[pt[first]]
        # the reprojection is the north star's step; the cells stay on
        # lon/lat (tiling from the metres differs at exact tile edges),
        # so no sink reads the metres yet
        self.merc(lon, lat)
        cell = np.repeat(cell_id(lon, lat, ZOOM), np.diff(first, append=pt.size))
        return pts["pid"].to_numpy()[pt], cell, poly

    def __call__(self, keys: pa.Table) -> pa.Table:
        """The points: (pid, cell_id, polygon_id)."""
        pid, cell, poly = self.join(keys)
        return pa.table({"pid": pa.array(pid, pa.int64()),
                         "cell_id": pa.array(cell, pa.int64()),
                         "polygon_id": self.polygon_ids.take(pa.array(poly, pa.int32()))})


def _map_keys(sf_dir: str, fn):
    """``fn`` over the lineitem key blocks, each block whole, in one call."""
    import ray

    # four read tasks per cluster CPU: enough to keep every CPU busy and
    # balanced, few enough that per-task overhead does not dominate. Each
    # task reads one contiguous group of part files into ONE block (32
    # files on 1 CPU: 4 blocks of 8 files); a row-count batch_size would
    # become min-rows-per-task-bundle and collapse parallelism
    nblocks = 4 * int(ray.cluster_resources().get("CPU", 8))
    return read_table(sf_dir, "lineitem", columns=KEY_COLS,
                      override_num_blocks=nblocks).map_batches(
        fn, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def pages_dataset(sf_dir: str, mult: int = 1):
    """lineitem keys -> pages (pid, text): the volume source for the
    web-scale shape."""
    return _map_keys(sf_dir, lambda keys: key_pages(keys, mult))


def flagship_points(sf_dir: str, mult: int = 1):
    """The flagship POINT stream as a Dataset of (pid, cell_id,
    polygon_id), one row per (point, containing polygon) — the rows
    jobs/flagship_job.py writes."""
    return _map_keys(sf_dir, FlagshipChain(mult))


def flagship_pipeline(sf_dir: str, mult: int = 1):
    """Returns the per-(cell, polygon) aggregate as a pandas frame
    (parent_cell, polygon_id, n_points, min_pid), ordered by
    (parent_cell, polygon_id); key-cardinality-bounded."""
    chain = FlagshipChain(mult)
    ids = np.asarray(chain.polygons.ids, dtype=object)

    def partial(keys: pa.Table) -> pa.Table:
        # per-block partial on one int64 key, parent_cell * n_polygons +
        # polygon_index: (key, n_points, min_pid), keys ascending
        pid, cell, poly = chain.join(keys)
        key = parent_cell(cell, ZOOM, AGG_ZOOM) * ids.size + poly
        order = np.lexsort((pid, key))
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        return pa.table({"key": key[first],
                         "n_points": np.diff(first, append=key.size),
                         "min_pid": pid[order[first]]})

    # final combine: the key space (cells at AGG_ZOOM x polygons) is tiny,
    # so below the size threshold the all-to-all groupby shuffle (seconds
    # of fixed latency) is replaced by a driver-side reduce over the small
    # partials; past it (#blocks x cardinality at 100 TB scale) the same
    # helper falls back to the distributed groupby (stages.agg).
    from ..stages.agg import combine_partials

    agg = combine_partials(_map_keys(sf_dir, partial), ["key"],
                           {"n_points": "sum", "min_pid": "min"})
    key = agg["key"].to_numpy(np.int64)
    out = pd.DataFrame({
        "parent_cell": key // ids.size,
        "polygon_id": ids[key % ids.size],
        "n_points": agg["n_points"].to_numpy(np.int64),
        "min_pid": agg["min_pid"].to_numpy(np.int64),
    })
    return out.sort_values(["parent_cell", "polygon_id"], ignore_index=True)
