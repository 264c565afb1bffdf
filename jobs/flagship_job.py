#!/usr/bin/env python
"""Flagship pipeline as a ``ray job submit`` entrypoint.

On a fixed-size multi-node cluster (the north-rule deployment shape):

    ray job submit --working-dir /root/repo -- \\
        python jobs/flagship_job.py --sf <pages_dir> --out <out_dir>

Inside a submitted job ``RAY_ADDRESS`` points at the cluster and
``ray.init()`` attaches to it; standalone (this sandbox) the same
script runs against a local session.  The job:

1. streams the flagship point pipeline (pages -> geoparse ->
   web-mercator -> tile -> PIP join) into PARTITIONED parquet under
   ``--out/points`` via state.write_partitioned — one atomically-
   renamed file per block, per-partition lineage + metrics in
   ``_manifest.jsonl`` (rows, bytes, wall time; the point schema
   carries ids only, so no error-sentinel lanes — transform outputs
   that keep x/y get those), never one giant file and never a driver
   collect;
2. aggregates per (cell, polygon) FROM THE WRITTEN PARTITIONS (the
   pipeline executes once; the reduce re-reads cheap columnar output,
   not the expensive stages) and writes ``--out/agg.parquet``;
3. prints ONE JSON line of job metrics (the driver-readable contract).

A re-run over a non-empty ``--out`` is refused (block-boundary
partition ids are not stable across runs — write_partitioned's
documented contract); multi-run resumable jobs go through
state.run_resumable_shards, whose shard ids derive from the input
work plan (see tests/test_state.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", default="/root/testdata/sf0.001",
                    help="input table directory (TESTDATA.md layout)")
    ap.add_argument("--out", required=True,
                    help="output directory (points/ partitions + agg.parquet)")
    ap.add_argument("--mult", type=int, default=1,
                    help="page fan-out multiplier (bench knob)")
    ap.add_argument("--zoom", type=int, default=12)
    ap.add_argument("--agg-zoom", type=int, default=4)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is the cluster; standalone
        # (sandbox) it is preset to "local"
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")

    import pandas as pd
    import ray.data as rd

    from proj_ray.kernels.tiling import parent_cell
    from proj_ray.pipelines.flagship import flagship_points
    from proj_ray.stages.agg import combine_partials
    from proj_ray.state import write_partitioned

    t0 = time.perf_counter()
    points_dir = os.path.join(args.out, "points")
    os.makedirs(points_dir, exist_ok=True)
    config = {"sf": args.sf, "zoom": args.zoom, "mult": args.mult,
              "pipeline": "flagship_points"}
    metrics = write_partitioned(
        flagship_points(args.sf, zoom=args.zoom, mult=args.mult),
        points_dir, config, partition_col="pid", error_cols=())

    # aggregate from the just-written partitions: the expensive stages
    # ran exactly once; this pass reads three int columns back
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["parent_cell"] = parent_cell(df["cell_id"].to_numpy(),
                                        args.zoom, args.agg_zoom)
        return df.groupby(["parent_cell", "polygon_id"],
                          as_index=False).agg(n_points=("pid", "size"),
                                              min_pid=("pid", "min"))

    parts = rd.read_parquet(
        points_dir, columns=["pid", "cell_id", "polygon_id"]
    ).map_batches(partial, batch_format="pandas", batch_size=None)
    agg = combine_partials(parts, ["parent_cell", "polygon_id"],
                           {"n_points": "sum", "min_pid": "min"})
    agg_path = os.path.join(args.out, "agg.parquet")
    agg.to_parquet(agg_path, index=False)

    out = {"job": "flagship", "sf": args.sf, "out": args.out,
           "wall_sec": round(time.perf_counter() - t0, 3),
           "agg_rows": int(len(agg)), "points": metrics}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
