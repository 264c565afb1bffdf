"""The Hilbert shard layout: one parquet directory per S2 cell at the
shard level (``s2_shard=<int64>``), written by the resumable plan
runner and read back pruned by box (kernel: proj_ray.kernels.s2cell).
Cell ids are the int64 bit-pattern view of the standard uint64 id
(faces 4-5 read negative; all downstream coarsening/range arithmetic is
two's-complement-safe on either view), so Arrow/Parquet/DuckDB carry
them without an unsigned extension type.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def s2_shard_write_resumable(fragments, read_fragment, out_dir: str,
                             shard_level: int):
    """Multi-run RESUMABLE build of the Hilbert shard layout: one
    directory per level-``shard_level`` S2 cell.  Because S2 ids are
    Hilbert-ordered, each shard is a CONTIGUOUS id range holding
    spatially-adjacent rows — the locality-preserving 100-TB layout: a
    spatial query prunes whole shards by range intersection.

    ``fragments`` is the explicit work plan [(frag_id, spec), ...]
    (input files, row-group ranges, key ranges); ``read_fragment(spec)
    -> pyarrow.Table`` with ``lon`` and ``lat`` columns.  Each fragment
    task assigns cells and writes ONE part file per touched cell
    directory, ``s2_shard=<cell>/part-<frag_id>.parquet``, through
    ``state.run_units``: atomic tmp+rename, then a config-hashed
    manifest record listing the files — idempotent, so a crashed
    fragment's re-run simply overwrites its own files.  A fragment is
    done when ``LineageManifest.completed`` says so (record present,
    every listed file on disk; a zero-row fragment lists none), so
    completed fragments are skipped on a later call and half-written
    ones re-run.  Refuses to resume over a manifest written under a
    different config (a level change would leave stale cell dirs
    behind).

    Returns (n_run, n_skipped)."""
    from ..kernels.s2cell import cell_id_from_lonlat, id_at_level
    from ..state import LineageManifest, config_hash, run_units

    cfg = config_hash({"op": "s2_shard_write", "level": int(shard_level)})
    other = {r.get("config_hash")
             for r in LineageManifest(out_dir).load().values()} - {cfg}
    if other:
        raise RuntimeError(
            f"{out_dir} holds a manifest for a different shard config "
            f"({other}); resuming would mix layouts — use a fresh dir")

    def cell_parts(fid, spec):
        t = read_fragment(spec)
        lon = t["lon"].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = t["lat"].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        shard = id_at_level(cell_id_from_lonlat(lon, lat),
                            shard_level).view(np.int64)
        order = np.argsort(shard, kind="stable")
        ts = t.take(pa.array(order))
        cells, starts = np.unique(shard[order], return_index=True)
        ends = np.append(starts[1:], shard.size)
        return {f"s2_shard={c}/part-{fid}.parquet": ts.slice(lo, hi - lo)
                for c, lo, hi in zip(cells.tolist(), starts.tolist(),
                                     ends.tolist())}

    return run_units(fragments, cell_parts, out_dir, cfg)


def s2_shard_boxes_read(index_dir: str, boxes, shard_level: int):
    """Read ONLY the shards that the lon/lat ``boxes`` (lon0, lon1,
    lat0, lat1) can touch: ``bbox_covering`` of each box (an exact
    superset, so no shard is ever missed; tests/test_s2cell.py pins the
    no-miss property) at the shard level, then ``read_parquet`` over
    just those partition dirs. The shard sets of all boxes are unioned
    first, so a region that wraps the anti-meridian (two disjoint lon
    intervals) reads a shard touched by several boxes once, with no
    duplicate rows. Returns the dataset, or None when no shard holds a
    row."""
    import os

    import ray.data as rd

    from ..kernels.s2cell import bbox_covering

    shards = set()
    for lon0, lon1, lat0, lat1 in boxes:
        cover = bbox_covering(lon0, lon1, lat0, lat1, shard_level)
        shards.update(int(v) for v in cover.view(np.int64))
    files = []
    for d in sorted(os.listdir(index_dir)):
        if d.startswith("s2_shard=") and int(d.split("=", 1)[1]) in shards:
            p = os.path.join(index_dir, d)
            files.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                         if f.endswith(".parquet"))
    return rd.read_parquet(files) if files else None
