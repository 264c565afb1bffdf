#!/usr/bin/env python
"""Flagship pipeline as a ``ray job submit`` entrypoint.

On a fixed-size multi-node cluster (the north-rule deployment shape):

    ray job submit --working-dir /root/repo -- \\
        python jobs/flagship_job.py --sf <pages_dir> --out <out_dir>

Inside a submitted job ``RAY_ADDRESS`` points at the cluster and
``ray.init()`` attaches to it; standalone the same script runs against
a local session.  The job:

1. plans one unit per lineitem part file, keyed by the file name, and
   runs the flagship chain (pages -> geoparse -> web-mercator -> tile
   -> PIP join, ``pipelines.flagship.FlagshipChain``) on each unit
   through ``state.run_resumable_shards``: one atomically-renamed
   ``--out/points/part-<unit>.parquet`` per unit, per-unit lineage and
   metrics in ``_manifest.jsonl`` (files, rows, non-finite float lanes,
   bytes, wall time), never one giant file and never a driver collect;
2. aggregates per (cell, polygon) FROM THE PLAN'S WRITTEN POINTS (the
   chain executes once per unit; the reduce re-reads cheap columnar
   output, not the expensive stages) and writes ``--out/agg.parquet``;
3. prints ONE JSON line of job metrics (the driver-readable contract).

A re-run into the same ``--out`` resumes: units the manifest records as
complete under the same config are skipped, the rest run, and the
aggregate is rebuilt from every unit's points, so an interrupted job
and an uninterrupted one write the same files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from proj_ray.pipelines.flagship import AGG_ZOOM, KEY_COLS, ZOOM  # noqa: E402


def plan(sf: str) -> list:
    """[(unit, part file)]: one unit per lineitem part file, keyed by
    the file name without its extension."""
    from proj_ray.sources import part_units

    return part_units(sf, "lineitem")


def config(sf: str) -> dict:
    """What a completed unit's points depend on besides its file name."""
    return {"pipeline": "flagship_points", "sf": os.path.abspath(sf), "zoom": ZOOM}


def unit_points():
    """part file -> its points (pid, cell_id, polygon_id)."""
    import pyarrow.parquet as pq

    from proj_ray.pipelines.flagship import FlagshipChain

    chain = FlagshipChain()
    return lambda path: chain(pq.read_table(path, columns=KEY_COLS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", default="/root/testdata/sf0.001",
                    help="input table directory (TESTDATA.md layout)")
    ap.add_argument("--out", required=True,
                    help="output directory (points/ partitions + agg.parquet)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is the cluster; standalone
        # it is preset to "local"
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")

    import pandas as pd
    import ray.data as rd

    from proj_ray.kernels.tiling import parent_cell
    from proj_ray.stages.agg import combine_partials
    from proj_ray.state import run_resumable_shards

    t0 = time.perf_counter()
    points_dir = os.path.join(args.out, "points")
    units = plan(args.sf)
    ran, skipped, metrics = run_resumable_shards(units, unit_points(), points_dir,
                                                 config(args.sf))

    # aggregate from the plan's written points: the expensive stages ran
    # once per unit; this pass reads three int columns back
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["parent_cell"] = parent_cell(df["cell_id"].to_numpy(), ZOOM, AGG_ZOOM)
        return df.groupby(["parent_cell", "polygon_id"],
                          as_index=False).agg(n_points=("pid", "size"),
                                              min_pid=("pid", "min"))

    parts = rd.read_parquet(
        [os.path.join(points_dir, f"part-{u}.parquet") for u, _ in units],
        columns=["pid", "cell_id", "polygon_id"]
    ).map_batches(partial, batch_format="pandas", batch_size=None)
    agg = combine_partials(parts, ["parent_cell", "polygon_id"],
                           {"n_points": "sum", "min_pid": "min"})
    agg_path = os.path.join(args.out, "agg.parquet")
    agg.to_parquet(agg_path, index=False)

    out = {"job": "flagship", "sf": args.sf, "out": args.out,
           "wall_sec": round(time.perf_counter() - t0, 3),
           "units_run": ran, "units_skipped": skipped,
           "agg_rows": int(len(agg)), "points": metrics}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
