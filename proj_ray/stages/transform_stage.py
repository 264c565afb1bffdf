"""Coordinate-transform stage: the reference's whole 14-step pipeline
(src/pj_transform.c:87-370) fused into one vectorized callable over a
pyarrow table.

The compiled :class:`proj_ray.transform.Transform` is built once in
``__init__`` — small and picklable; Ray Data puts an instance passed to
``map_batches`` into the object store once per operator, and each task
gets that reference, not a copy per batch. The registry's per-point
queries call a compiled ``make_transform`` inside their block function
(``pipelines.queries._per_point``) instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..transform import make_transform


class TransformStage:
    """The transform as a callable over one pyarrow table, compiled
    once in ``__init__``: call it in process (the benchmark's in-process
    replay does), pass an instance to ``map_batches`` (a task pool), or
    pass the class with ``fn_constructor_kwargs`` (an actor pool, one
    compile per actor). Reads the ``lon``/``lat`` columns and appends
    ``out_x``/``out_y`` to the batch."""

    def __init__(self, src_def, dst_def, out_x="x", out_y="y"):
        self.t = make_transform(src_def, dst_def)
        self.out_x, self.out_y = out_x, out_y

    def __call__(self, batch: pa.Table) -> pa.Table:
        def col(c):
            return batch[c].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)

        x, y, _ = self.t(col("lon"), col("lat"))
        out = batch.append_column(self.out_x, pa.array(x, pa.float64()))
        return out.append_column(self.out_y, pa.array(y, pa.float64()))
