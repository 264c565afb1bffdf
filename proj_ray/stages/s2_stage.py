"""S2 cell-assignment stage: 64-bit Hilbert cell ids appended per batch
(kernel: proj_ray.kernels.s2cell).  Stateless pure arithmetic — task
pool, zero-copy Arrow in/out.  Ids are emitted as the int64 bit-pattern
view of the standard uint64 id (faces 4-5 read negative; all downstream
coarsening/range arithmetic is two's-complement-safe on either view),
so Arrow/Parquet/DuckDB carry them without an unsigned extension type.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.s2cell import cell_id_from_lonlat


def s2_stage(ds, level: int, lon_col="lon", lat_col="lat", out="cell_id"):
    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        ids = cell_id_from_lonlat(lon, lat, level).view(np.int64)
        return batch.append_column(out, pa.array(ids, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def s2_shard_write(ds, out_dir: str, shard_level: int,
                   lon_col="lon", lat_col="lat") -> None:
    """Write a Hilbert-range-sharded layout: one parquet partition per
    level-``shard_level`` S2 cell (hive dir ``s2_shard=<int64>``).
    Because S2 ids are Hilbert-ordered, each shard is a CONTIGUOUS id
    range holding spatially-adjacent rows — the locality-preserving
    100-TB layout: a spatial query prunes whole shards by range
    intersection.  One streaming ``write_parquet`` with no manifest, so
    an interrupted run starts again from scratch; for multi-run builds
    use ``s2_shard_write_resumable``, which writes the same layout from
    an explicit input-fragment plan and skips the fragments the lineage
    manifest records as complete."""
    import os

    from ..kernels.s2cell import cell_id_from_lonlat, id_at_level

    def assign(t: pa.Table) -> pa.Table:
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        leaf = cell_id_from_lonlat(lon, lat)
        shard = id_at_level(leaf, shard_level).view(np.int64)
        return t.append_column("s2_shard", pa.array(shard, pa.int64()))

    os.makedirs(out_dir, exist_ok=True)
    (ds.map_batches(assign, batch_format="pyarrow", batch_size=None,
                    zero_copy_batch=True)
     .write_parquet(out_dir, partition_cols=["s2_shard"]))


def s2_shard_write_resumable(fragments, read_fragment, out_dir: str,
                             shard_level: int, lon_col="lon",
                             lat_col="lat"):
    """Multi-run RESUMABLE build of the Hilbert shard layout.

    ``fragments`` is the explicit work plan [(frag_id, spec), ...]
    (input files, row-group ranges, key ranges); ``read_fragment(spec)
    -> pyarrow.Table``.  Each fragment task assigns cells and writes
    ONE part file per touched cell directory,
    ``s2_shard=<cell>/part-<frag_id>.parquet``, through
    ``state.write_unit``: atomic tmp+rename, then a config-hashed
    manifest record listing the files — idempotent, so a crashed
    fragment's re-run simply overwrites its own files.  A fragment is
    done when ``LineageManifest.completed`` says so (record present,
    every listed file on disk; a zero-row fragment lists none), so
    completed fragments are skipped on restart and half-written ones
    re-run.  Refuses to resume over a manifest written under a
    different config (a level change would leave stale cell dirs
    behind).  The result is byte-compatible with ``s2_shard_write``'s
    layout and prunable by the same readers.

    Returns (n_run, n_skipped)."""
    import ray

    from ..kernels.s2cell import cell_id_from_lonlat, id_at_level
    from ..state import LineageManifest, config_hash, run_bounded, write_unit

    cfg = config_hash({"op": "s2_shard_write", "level": int(shard_level),
                       "lon": lon_col, "lat": lat_col})
    man = LineageManifest(out_dir)
    other = {r.get("config_hash") for r in man.load().values()} - {cfg}
    if other:
        raise RuntimeError(
            f"{out_dir} holds a manifest for a different shard config "
            f"({other}); resuming would mix layouts — use a fresh dir")
    done = man.completed(cfg)
    todo = [(str(fid), spec) for fid, spec in fragments if str(fid) not in done]

    @ray.remote
    def _run(fid, spec):
        t = read_fragment(spec)
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        shard = id_at_level(cell_id_from_lonlat(lon, lat),
                            shard_level).view(np.int64)
        order = np.argsort(shard, kind="stable")
        ts = t.take(pa.array(order))
        cells, starts = np.unique(shard[order], return_index=True)
        ends = np.append(starts[1:], shard.size)
        write_unit(out_dir, fid, fid, cfg, {
            f"s2_shard={c}/part-{fid}.parquet": ts.slice(lo, hi - lo)
            for c, lo, hi in zip(cells.tolist(), starts.tolist(), ends.tolist())})

    ran = sum(1 for _ in run_bounded(_run, todo))
    return ran, len(fragments) - len(todo)


def s2_shard_boxes_read(index_dir: str, boxes, shard_level: int):
    """Read ONLY the shards that the lon/lat ``boxes`` (lon0, lon1,
    lat0, lat1) can touch: ``bbox_covering`` of each box (an exact
    superset, so no shard is ever missed; tests/test_s2cell.py pins the
    no-miss property) at the shard level, then ``read_parquet`` over
    just those partition dirs. The shard sets of all boxes are unioned
    first, so a region that wraps the anti-meridian (two disjoint lon
    intervals) reads a shard touched by several boxes once, with no
    duplicate rows. Returns the dataset (None when no shard holds a
    row) plus (shards_read, shards_total) for pruning evidence."""
    import os

    import ray.data as rd

    from ..kernels.s2cell import bbox_covering

    shards = set()
    for lon0, lon1, lat0, lat1 in boxes:
        cover = bbox_covering(lon0, lon1, lat0, lat1, shard_level)
        shards.update(int(v) for v in cover.view(np.int64))
    all_dirs = sorted(d for d in os.listdir(index_dir)
                      if d.startswith("s2_shard="))
    hit = [d for d in all_dirs if int(d.split("=", 1)[1]) in shards]
    files = []
    for d in hit:
        p = os.path.join(index_dir, d)
        files.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                     if f.endswith(".parquet"))
    if not files:
        return None, (0, len(all_dirs))
    return rd.read_parquet(files), (len(hit), len(all_dirs))
