"""Per-partition lineage + resumable partitioned output.

The north rule requires multi-hour runs to be resumable: every stage
checkpoints per-partition lineage and metrics. The design (SURVEY.md §4
'Checkpoint / resume'):

- output is a DIRECTORY of partitions (one per input shard / key
  range), each written atomically (tmp file + rename) — never one
  giant file
- a JSON-lines manifest records, per completed partition: the
  partition id, the input fragment it came from, a hash of the kernel
  config, row count, error(inf-sentinel) count, bytes, wall time
- resume = read the manifest, skip partitions already recorded with a
  MATCHING config hash (a config change invalidates old parts), process
  only the missing ones — an anti-join of manifest vs plan
- partition outputs are idempotent (deterministic partition id -> file
  name; rename is atomic), so retries/duplicated tasks are safe

``write_partitioned`` drives a Dataset through this protocol with
``map_batches`` doing the writing (the stream never collects on the
driver) and refuses a second run; ``run_resumable_shards`` runs an
explicit shard plan and skips the shards a previous run completed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def config_hash(config) -> str:
    """Stable hash of a pipeline/kernel config (dict / str)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class LineageManifest:
    """JSON-lines manifest of completed partitions ('<out_dir>/_manifest.jsonl').

    Append-only; each line: {partition_id, input_fragment, config_hash,
    row_count, error_count, bytes, wall_sec, ts}. Appends are
    single-line writes (atomic at OS level for line-sized appends);
    duplicate entries for a partition are fine — last one wins.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "_manifest.jsonl")

    def load(self) -> dict:
        done = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail line from a crash — ignore
                    done[rec["partition_id"]] = rec
        return done

    def record(self, rec: dict):
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")

    def completed(self, cfg_hash: str) -> set:
        return {pid for pid, rec in self.load().items()
                if rec.get("config_hash") == cfg_hash
                and os.path.exists(os.path.join(self.out_dir, f"part-{pid}.parquet"))}

    def metrics(self) -> dict:
        done = self.load()
        return {
            "partitions": len(done),
            "rows": sum(r.get("row_count", 0) for r in done.values()),
            "errors": sum(r.get("error_count", 0) for r in done.values()),
            "bytes": sum(r.get("bytes", 0) for r in done.values()),
            "wall_sec": round(sum(r.get("wall_sec", 0.0) for r in done.values()), 3),
        }


def _write_one_partition(table, out_dir, pid, input_fragment, cfg_hash,
                         error_cols=()):
    """Atomic parquet write + manifest record. Runs inside workers."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    final = os.path.join(out_dir, f"part-{pid}.parquet")
    tmp = final + f".tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, final)  # atomic
    n_err = 0
    if error_cols:
        import numpy as np

        for c in error_cols:
            if c in table.column_names:
                v = table[c].to_numpy(zero_copy_only=False)
                n_err += int((~np.isfinite(v)).sum())
    rec = {
        "partition_id": pid,
        "input_fragment": input_fragment,
        "config_hash": cfg_hash,
        "row_count": table.num_rows,
        "error_count": n_err,
        "bytes": os.path.getsize(final),
        "wall_sec": round(time.perf_counter() - t0, 4),
        "ts": time.time(),
    }
    LineageManifest(out_dir).record(rec)
    return rec


def write_partitioned(ds, out_dir: str, config, partition_col: str = None,
                      error_cols=("x", "y")):
    """Consume a Dataset into partitioned parquet, SINGLE RUN ONLY.

    Each Ray block becomes one partition (partition id = hash of the
    block's content bounds). Writing happens INSIDE map_batches tasks —
    the stream never materializes on the driver. Returns the manifest
    metrics summary.

    NOT resumable across runs: Ray does not guarantee deterministic
    block boundaries, so a re-run over a directory holding a previous
    attempt would write OVERLAPPING data under fresh partition ids next
    to the stale files.  This function therefore refuses to write into
    a directory whose manifest already has completed partitions for the
    same config.  Resumable multi-run jobs belong in
    :func:`run_resumable_shards`, whose shard ids derive from the
    explicit work plan (input fragment identity), not from blocking.
    """
    cfg_hash = config_hash(config)
    prior = LineageManifest(out_dir).completed(cfg_hash)
    if prior:
        raise RuntimeError(
            f"{out_dir} already holds {len(prior)} completed partitions "
            f"for this config; write_partitioned partition ids depend on "
            f"Ray block boundaries and are not stable across runs — use "
            f"run_resumable_shards for resumable jobs, or a fresh dir")

    import pyarrow as pa

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"partition_id": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        if partition_col and partition_col in batch.column_names:
            key = batch[partition_col].to_numpy(zero_copy_only=False)
            frag = f"{partition_col}[{key.min()}..{key.max()}]"
        else:
            frag = f"rows[{batch.num_rows}]"
        pid = hashlib.sha256(
            (frag + "|" + str(batch.num_rows) + "|" +
             str(batch.slice(0, 1).to_pydict())).encode()).hexdigest()[:16]
        man = LineageManifest(out_dir)
        if pid in man.completed(cfg_hash):
            return pa.table({"partition_id": pa.array([pid]),
                             "rows": pa.array([0], pa.int64())})
        rec = _write_one_partition(batch, out_dir, pid, frag, cfg_hash,
                                   error_cols=error_cols)
        return pa.table({"partition_id": pa.array([pid]),
                         "rows": pa.array([rec["row_count"]], pa.int64())})

    written = ds.map_batches(write_block, batch_format="pyarrow", batch_size=None)
    written.count()  # drive the stream
    return LineageManifest(out_dir).metrics()


def run_bounded(remote_fn, todo):
    """Run ``remote_fn.remote(*args)`` for each ``args`` in ``todo`` with
    at most max(4, 2 x cluster CPUs) tasks in flight; yield each task's
    result as it completes (completion order, not plan order)."""
    import ray

    ncpu = (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)
    limit = max(4, 2 * ncpu)
    pending = []
    it = iter(todo)
    while True:
        while len(pending) < limit:
            nxt = next(it, None)
            if nxt is None:
                break
            pending.append(remote_fn.remote(*nxt))
        if not pending:
            break
        ready, pending = ray.wait(pending, num_returns=1)
        yield from ray.get(ready)


def run_resumable_shards(shards, shard_fn, out_dir: str, config,
                         error_cols=()):
    """Deterministic shard-level resumable execution.

    ``shards``: list of (shard_id, shard_spec) — the explicit work plan
    (input files, key ranges, ...). ``shard_fn(shard_spec) ->
    pyarrow.Table`` runs the per-shard pipeline. Completed shards
    (manifest + file present, matching config hash) are skipped on
    restart; the rest run as parallel Ray tasks through
    :func:`run_bounded`. This is the raw-task escape hatch the Dataset
    API can't express ("skip finished partitions"); each shard's write
    is atomic and idempotent.

    Returns (n_run, n_skipped, metrics).
    """
    import ray

    cfg_hash = config_hash(config)
    man = LineageManifest(out_dir)
    done = man.completed(cfg_hash)
    todo = [(sid, spec) for sid, spec in shards if str(sid) not in done]
    n_skipped = len(shards) - len(todo)

    @ray.remote
    def _run(sid, spec):
        table = shard_fn(spec)
        _write_one_partition(table, out_dir, str(sid), str(spec), cfg_hash,
                             error_cols=error_cols)
        return str(sid)

    ran = sum(1 for _ in run_bounded(_run, todo))
    return ran, n_skipped, man.metrics()
