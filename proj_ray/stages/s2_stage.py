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


def s2_stage(ds, level: int, lon_col="lon", lat_col="lat", out="cell_id",
             batch_size=None):
    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        ids = cell_id_from_lonlat(lon, lat, level).view(np.int64)
        return batch.append_column(out, pa.array(ids, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def s2_shard_write(ds, out_dir: str, shard_level: int,
                   lon_col="lon", lat_col="lat") -> None:
    """Write a Hilbert-range-sharded layout: one parquet partition per
    level-``shard_level`` S2 cell (hive dir ``s2_shard=<int64>``).
    Because S2 ids are Hilbert-ordered, each shard is a CONTIGUOUS id
    range holding spatially-adjacent rows — the locality-preserving
    100-TB layout: a spatial query prunes whole shards by range
    intersection.  SINGLE RUN ONLY (one streaming write_parquet); for
    multi-run resumable builds use ``s2_shard_write_resumable``, which
    tracks an explicit input-fragment work plan in the lineage
    manifest."""
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
    ONE part file per touched cell directory, named
    ``part-<frag_id>.parquet`` via atomic tmp+rename — idempotent, so a
    crashed fragment's re-run simply overwrites its own files.  A
    fragment is recorded in the lineage manifest (config-hashed) only
    AFTER its task completes, so completed fragments are skipped on
    restart and half-written ones re-run.  Refuses to resume over a
    manifest written under a different config (a level change would
    leave stale cell dirs behind).  The result is byte-compatible with
    ``s2_shard_write``'s layout and prunable by the same readers.

    Returns (n_run, n_skipped)."""
    import os

    import pyarrow.parquet as pq
    import ray

    from ..kernels.s2cell import cell_id_from_lonlat, id_at_level
    from ..state import LineageManifest, config_hash, run_bounded

    cfg = config_hash({"op": "s2_shard_write", "level": int(shard_level),
                       "lon": lon_col, "lat": lat_col})
    os.makedirs(out_dir, exist_ok=True)
    man = LineageManifest(out_dir)
    recs = man.load()
    other = {r.get("config_hash") for r in recs.values()} - {cfg}
    if other:
        raise RuntimeError(
            f"{out_dir} holds a manifest for a different shard config "
            f"({other}); resuming would mix layouts — use a fresh dir")
    # completed = manifest record (written only after the fragment's
    # files were atomically renamed) cross-checked against the cell
    # dirs: a fragment with rows must still have at least one of its
    # part files on disk (manifest-without-data means someone removed
    # the layout — re-run).
    have_files = set()
    for d in os.listdir(out_dir):
        if d.startswith("s2_shard="):
            for f in os.listdir(os.path.join(out_dir, d)):
                if f.startswith("part-") and f.endswith(".parquet"):
                    have_files.add(f[len("part-"):-len(".parquet")])
    done = {pid for pid, r in recs.items()
            if r.get("config_hash") == cfg
            and (pid in have_files or r.get("row_count") == 0)}
    todo = [(fid, spec) for fid, spec in fragments if str(fid) not in done]
    n_skipped = len(fragments) - len(todo)

    @ray.remote
    def _run(fid, spec):
        t = read_fragment(spec)
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False)
        shard = id_at_level(cell_id_from_lonlat(lon, lat),
                            shard_level).view(np.int64)
        if shard.size == 0:  # empty fragment: manifest-only completion
            return str(fid), 0
        order = np.argsort(shard, kind="stable")
        ts = t.take(pa.array(order))
        sh = shard[order]
        starts = np.flatnonzero(np.r_[True, sh[1:] != sh[:-1]])
        ends = np.r_[starts[1:], sh.size]
        for lo, hi in zip(starts, ends):
            d = os.path.join(out_dir, f"s2_shard={int(sh[lo])}")
            os.makedirs(d, exist_ok=True)
            final = os.path.join(d, f"part-{fid}.parquet")
            tmp = final + f".tmp-{os.getpid()}"
            pq.write_table(ts.slice(int(lo), int(hi - lo)), tmp)
            os.replace(tmp, final)
        return str(fid), int(sh.size)

    ran = 0
    for fid, rows in run_bounded(_run, todo):
        man.record({"partition_id": fid, "input_fragment": fid,
                    "config_hash": cfg, "row_count": rows,
                    "error_count": 0})
        ran += 1
    return ran, n_skipped


def s2_shard_bbox_read(index_dir: str, lon0, lon1, lat0, lat1,
                       shard_level: int):
    """Read ONLY the shards a bbox can touch: ``bbox_covering`` (an
    exact superset — no shard ever missed; tests/test_s2cell.py pins
    the no-miss property) at the shard level, then ``read_parquet``
    over just those partition dirs.  The unrelated corpus share never
    leaves storage.  Returns the dataset plus
    (shards_read, shards_total) for pruning evidence."""
    import os

    import ray.data as rd

    from ..kernels.s2cell import bbox_covering

    cover = bbox_covering(lon0, lon1, lat0, lat1, shard_level)
    shards = {int(v) for v in cover.view(np.int64)}
    return _read_shards(index_dir, shards)


def s2_shard_boxes_read(index_dir: str, boxes, shard_level: int):
    """Multi-box variant of ``s2_shard_bbox_read`` for queries whose
    exact-superset region wraps the anti-meridian (two disjoint lon
    intervals): the shard sets of all boxes are UNIONED before the
    read, so a shard touched by several boxes is read exactly once —
    no duplicate candidate rows."""
    from ..kernels.s2cell import bbox_covering

    shards = set()
    for lon0, lon1, lat0, lat1 in boxes:
        cover = bbox_covering(lon0, lon1, lat0, lat1, shard_level)
        shards.update(int(v) for v in cover.view(np.int64))
    return _read_shards(index_dir, shards)


def _read_shards(index_dir: str, shards):
    import os

    import ray.data as rd

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
