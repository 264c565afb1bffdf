"""Tile-assignment stage: integer-exact cell ids appended per batch
(kernel: proj_ray.kernels.tiling, documented half-open edge convention).
Stateless — pure arithmetic, task pool."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.tiling import cell_id, cell_xy


def tile_stage(ds, zoom: int, lon_col="lon", lat_col="lat", out="cell_id",
               with_xy=False):
    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        out_t = batch.append_column(out, pa.array(cell_id(lon, lat, zoom), pa.int64()))
        if with_xy:
            tx, ty = cell_xy(lon, lat, zoom)
            out_t = out_t.append_column("tile_x", pa.array(tx, pa.int64()))
            out_t = out_t.append_column("tile_y", pa.array(ty, pa.int64()))
        return out_t

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)
