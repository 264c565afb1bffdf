"""Coordinate-transform stage: the reference's whole 14-step pipeline
(src/pj_transform.c:87-370) fused into one vectorized map_batches UDF.

The compiled :class:`proj_ray.transform.Transform` is built once on the
driver and captured by closure — small and picklable; Ray Data puts the
closure into the object store once per operator, and each task gets that
reference, not a copy per batch. Stateless => task pool (cheap,
elastic); use :class:`TransformStage` as an actor-pool class only when
the transform needs grids loaded from files in ``__init__``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..transform import Transform, make_transform


def _apply(t: Transform, batch: pa.Table, lon_col, lat_col, z_col,
           out_x, out_y, out_z, drop_bad):
    lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    z = (batch[z_col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
         if z_col else None)
    x, y, zo = t(lon, lat, z)
    out = batch.append_column(out_x, pa.array(x, pa.float64()))
    out = out.append_column(out_y, pa.array(y, pa.float64()))
    if out_z:
        out = out.append_column(out_z, pa.array(zo, pa.float64()))
    if drop_bad:
        import pyarrow.compute as pc

        ok = pc.and_(pc.is_finite(out[out_x]), pc.is_finite(out[out_y]))
        out = out.filter(ok)
    return out


def transform_points_stage(ds, src_def, dst_def, lon_col="lon", lat_col="lat",
                           z_col=None, out_x="x", out_y="y", out_z=None,
                           drop_bad=False, batch_size=None, grid_loader=None):
    """Stateless task-pool transform stage (the default)."""
    t = make_transform(src_def, dst_def, grid_loader=grid_loader)

    def fn(batch: pa.Table) -> pa.Table:
        return _apply(t, batch, lon_col, lat_col, z_col, out_x, out_y, out_z, drop_bad)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


class TransformStage:
    """Actor-pool variant for grid-backed transforms: grids are loaded /
    built ONCE per actor in ``__init__`` (the reference's lazy global
    grid cache under mutex, src/pj_gridlist.c:47-175, becomes per-actor
    state with no locks). Use via::

        ds.map_batches(TransformStage, fn_constructor_kwargs=dict(...),
                       batch_format="pyarrow", concurrency=(2, 8))
    """

    def __init__(self, src_def, dst_def, lon_col="lon", lat_col="lat",
                 z_col=None, out_x="x", out_y="y", out_z=None,
                 drop_bad=False, grid_dir=None, grid_specs=None):
        loader = None
        if grid_dir is not None:
            from ..kernels.grid import read_ctable2
            import os

            def loader(name):
                p = os.path.join(grid_dir, name)
                return read_ctable2(p) if os.path.exists(p) else None
        elif grid_specs is not None:
            from ..kernels.grid import ShiftGrid

            built = {gid: ShiftGrid(gid, **spec) for gid, spec in grid_specs.items()}

            def loader(name):
                return built.get(name)

        self.t = make_transform(src_def, dst_def, grid_loader=loader)
        self.cols = (lon_col, lat_col, z_col, out_x, out_y, out_z, drop_bad)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon_col, lat_col, z_col, out_x, out_y, out_z, drop_bad = self.cols
        return _apply(self.t, batch, lon_col, lat_col, z_col, out_x, out_y, out_z, drop_bad)
