"""Per-partition lineage + resumable partitioned output.

The north rule requires multi-hour runs to be resumable: every stage
checkpoints per-partition lineage and metrics. The design (SURVEY.md §4
'Checkpoint / resume'):

- the job is an explicit plan of units (input files, key ranges, ...),
  each with a stable id; output is a DIRECTORY of parquet files, each
  written atomically (tmp file + rename) — never one giant file
- a JSON-lines manifest records, per completed unit: the unit id, the
  input fragment it came from, a hash of the kernel config, the files
  it wrote (relative to the output directory), row count, non-finite
  float lanes, bytes, wall time
- a unit is done when its record's config hash matches and every file
  it lists exists (a unit that wrote nothing lists none); resume =
  anti-join of the plan against the completed units, so a config change
  or a removed file re-runs the unit
- unit outputs are idempotent (unit id -> file names; rename is
  atomic), so retries and duplicated tasks are safe

``run_units`` is the one plan runner: it skips the completed units and
runs the rest as Ray tasks, each through ``write_unit``, the one
write-and-record step. ``run_resumable_shards`` (one
``part-<id>.parquet`` per unit; the flagship job) and
``stages.s2_stage.s2_shard_write_resumable`` (one file per unit and
S2 shard; the shard-pruned queries' index) both call it.
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
    """JSON-lines manifest of completed units ('<out_dir>/_manifest.jsonl').

    Append-only; each line: {partition_id, input_fragment, config_hash,
    files, row_count, error_count, bytes, wall_sec, ts}. Appends are
    single-line writes (atomic at OS level for line-sized appends);
    duplicate entries for a unit are fine — last one wins.
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

    def completed(self, cfg_hash: str) -> dict:
        """{unit id: record} of the units recorded under ``cfg_hash``
        whose listed files all exist."""
        return {pid: rec for pid, rec in self.load().items()
                if rec.get("config_hash") == cfg_hash
                and "files" in rec
                and all(os.path.exists(os.path.join(self.out_dir, f))
                        for f in rec["files"])}

    def metrics(self, cfg_hash: str) -> dict:
        """Totals over the units complete under ``cfg_hash``."""
        done = self.completed(cfg_hash)
        return {
            "partitions": len(done),
            "rows": sum(r.get("row_count", 0) for r in done.values()),
            "errors": sum(r.get("error_count", 0) for r in done.values()),
            "bytes": sum(r.get("bytes", 0) for r in done.values()),
            "wall_sec": round(sum(r.get("wall_sec", 0.0) for r in done.values()), 3),
        }


def _nonfinite(table) -> int:
    """NaN, inf and null lanes over every floating-point column."""
    import numpy as np
    import pyarrow as pa

    return sum(int((~np.isfinite(col.to_numpy())).sum())
               for col, field in zip(table.columns, table.schema)
               if pa.types.is_floating(field.type))


def write_unit(out_dir, unit_id, input_fragment, cfg_hash, parts) -> dict:
    """Write one plan unit and record it: each ``{path: table}`` of
    ``parts`` (paths relative to ``out_dir``) atomically, then one
    manifest line listing those paths. Runs inside workers."""
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    rows = errors = nbytes = 0
    for rel, table in parts.items():
        final = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        tmp = final + f".tmp-{os.getpid()}"
        pq.write_table(table, tmp)
        os.replace(tmp, final)  # atomic
        rows += table.num_rows
        errors += _nonfinite(table)
        nbytes += os.path.getsize(final)
    rec = {
        "partition_id": unit_id,
        "input_fragment": input_fragment,
        "config_hash": cfg_hash,
        "files": sorted(parts),
        "row_count": rows,
        "error_count": errors,
        "bytes": nbytes,
        "wall_sec": round(time.perf_counter() - t0, 4),
        "ts": time.time(),
    }
    LineageManifest(out_dir).record(rec)
    return rec


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


def run_units(units, unit_parts, out_dir: str, cfg_hash: str):
    """Run the plan ``units`` [(unit id, spec), ...] into ``out_dir``.

    ``unit_parts(unit_id, spec)`` returns the unit's ``{relative path:
    pyarrow.Table}``, written and recorded by :func:`write_unit` inside
    a Ray task. Units that :meth:`LineageManifest.completed` lists under
    ``cfg_hash`` are skipped; the rest run in parallel through
    :func:`run_bounded`. This is the raw-task escape hatch the Dataset
    API can't express ("skip finished partitions"); each unit's writes
    are atomic and idempotent.

    Returns (n_run, n_skipped)."""
    import ray

    done = LineageManifest(out_dir).completed(cfg_hash)
    todo = [(str(uid), spec) for uid, spec in units if str(uid) not in done]

    @ray.remote
    def _run(uid, spec):
        return write_unit(out_dir, uid, str(spec), cfg_hash,
                          unit_parts(uid, spec))

    ran = sum(1 for _ in run_bounded(_run, todo))
    return ran, len(units) - len(todo)


def run_resumable_shards(shards, shard_fn, out_dir: str, config):
    """Deterministic shard-level resumable execution.

    ``shards``: list of (shard_id, shard_spec) — the explicit work plan
    (input files, key ranges, ...). ``shard_fn(shard_spec) ->
    pyarrow.Table`` runs the per-shard pipeline, written as
    ``part-<shard_id>.parquet`` by :func:`run_units`, which skips the
    shards completed under ``config``.

    Returns (n_run, n_skipped, metrics)."""
    cfg_hash = config_hash(config)
    ran, skipped = run_units(
        shards, lambda sid, spec: {f"part-{sid}.parquet": shard_fn(spec)},
        out_dir, cfg_hash)
    return ran, skipped, LineageManifest(out_dir).metrics(cfg_hash)
