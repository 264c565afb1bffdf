"""Point-in-polygon join stage.

The polygon side is small relative to the point stream (countries /
admin regions / AOIs), so the scalable plan is a BROADCAST spatial
join: the polygons are packed once into a ``PolygonSet`` (CSR rings,
bboxes and a one-degree cell grid with sub-cells for crowded cells),
Ray Data puts the stage into the object store once per operator, and
each batch probes only the polygons its points' cells hit. No shuffle
of the point stream at all.

For polygon sets too large to broadcast, co-partition instead:
``groupby(cell)`` both sides and PIP per group; the kernel is
identical.

Join semantics: ALL containing polygons (overlaps => multiple rows),
matching the SQL even-odd oracle exactly (north rule: exact rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.pip import PolygonSet


def make_polygons(poly_defs) -> PolygonSet:
    """[(polygon_id, [(lon, lat), ...]), ...] -> PolygonSet."""
    return PolygonSet(poly_defs)


def bucket_polygons_s2(polygons: PolygonSet, level: int):
    """cell -> [poly_index] S2 covering of each polygon's bbox
    (kernels.s2cell.bbox_covering, an exact superset). The join does not
    use it; the benchmark reports polygons per S2 cell from it."""
    from ..kernels.s2cell import bbox_covering

    buckets: dict = {}
    for k, (x0, y0, x1, y1) in enumerate(polygons.bbox.T):
        for c in bbox_covering(x0, x1, y0, y1, level).view(np.int64):
            buckets.setdefault(int(c), []).append(k)
    return buckets


class PIPJoinActor:
    """PIP join stage: usable BOTH as an actor-pool class (pass the class
    to map_batches with fn_constructor_kwargs — state built once per
    actor) and as a prebuilt instance (map_batches(PIPJoinActor(...)) —
    a stateless task fn). Ray Data 2.49 puts the instance into the object
    store once per operator and passes each task that reference; the
    1,500-polygon benchmark set pickles to about 0.8 MB in about a
    millisecond, so there is nothing to gain from shipping it another
    way. The instance form avoids actor startup latency and scales with
    the task pool. Reads the ``lon``/``lat`` columns and emits one output
    row per (point, containing polygon): ``id_cols`` + ``polygon_id``.

    ``zoom`` and ``index`` are accepted and ignored: they chose among
    probe paths that no longer exist, and the benchmark scripts still
    pass them; the next change to the benchmark drops them.
    """

    def __init__(self, poly_defs, id_cols=("pid",), zoom=None, index=None):
        self.polygons = PolygonSet(poly_defs)
        self.polygon_ids = pa.array(self.polygons.ids, pa.string())
        self.id_cols = id_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        pt_idx, poly_idx = self.polygons.join(lon, lat)
        pt_idx = pa.array(pt_idx, pa.int64())
        cols = {c: batch[c].take(pt_idx)
                for c in self.id_cols if c in batch.column_names}
        cols["polygon_id"] = self.polygon_ids.take(pa.array(poly_idx, pa.int32()))
        return pa.table(cols)
