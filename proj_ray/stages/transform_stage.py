"""Coordinate-transform stage: the reference's whole 14-step pipeline
(src/pj_transform.c:87-370) fused into one vectorized map_batches UDF.

The compiled :class:`proj_ray.transform.Transform` is built once on the
driver and captured by closure — small and picklable; Ray Data puts the
closure into the object store once per operator, and each task gets that
reference, not a copy per batch. Stateless => task pool (cheap,
elastic). :class:`TransformStage` is the same transform as a callable
class.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..transform import Transform, make_transform


def _apply(t: Transform, batch: pa.Table, lon_col, lat_col, z_col,
           out_x, out_y, out_z):
    lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    z = (batch[z_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
         if z_col else None)
    x, y, zo = t(lon, lat, z)
    out = batch.append_column(out_x, pa.array(x, pa.float64()))
    out = out.append_column(out_y, pa.array(y, pa.float64()))
    if out_z:
        out = out.append_column(out_z, pa.array(zo, pa.float64()))
    return out


def transform_points_stage(ds, src_def, dst_def, lon_col="lon", lat_col="lat",
                           z_col=None, out_x="x", out_y="y", out_z=None,
                           grid_loader=None):
    """Stateless task-pool transform stage (the default)."""
    t = make_transform(src_def, dst_def, grid_loader=grid_loader)

    def fn(batch: pa.Table) -> pa.Table:
        return _apply(t, batch, lon_col, lat_col, z_col, out_x, out_y, out_z)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


class TransformStage:
    """The same transform as a callable over one pyarrow table, compiled
    once in ``__init__``: call it in process (the benchmark's in-process
    replay does), pass an instance to ``map_batches`` (a task pool), or
    pass the class with ``fn_constructor_kwargs`` (an actor pool, one
    compile per actor)."""

    def __init__(self, src_def, dst_def, lon_col="lon", lat_col="lat",
                 z_col=None, out_x="x", out_y="y", out_z=None):
        self.t = make_transform(src_def, dst_def)
        self.cols = (lon_col, lat_col, z_col, out_x, out_y, out_z)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _apply(self.t, batch, *self.cols)
