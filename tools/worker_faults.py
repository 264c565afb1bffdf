#!/usr/bin/env python
"""What each flagship job costs the Ray worker processes.

Starts a one-CPU local Ray, runs ``flagship_pipeline(SF_DIR)`` N times
and prints one line per job: its wall time, and the minor page faults
and CPU time (user + system) that the job added to the Ray workers
(every ``ray::`` process below this one), read from
``/proc/<pid>/stat`` before and after the job. Job 0 carries the
warm-up: worker start, imports and the first allocations. Ray is
stopped on exit, also after an error.

Usage: python tools/worker_faults.py SF_DIR [-n 10]

SF_DIR holds ``lineitem.parquet`` (one file or a directory of part
files): a scale-factor test-data directory, or the ``flagship``
directory that ``perfbench.workloads.flagship.make_inputs`` writes
(32 part files, 500k keys: the ``flagship`` workload's job).
"""

import argparse
import logging
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import descendants

TICK_MS = 1000 / os.sysconf("SC_CLK_TCK")


def worker_counters():
    """{pid: (minor faults, CPU ms)} of every Ray worker below this process."""
    out = {}
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::"):
                    continue
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is field 3 of proc(5): minflt is 10, utime 14, stime 15
        out[pid] = (int(fields[7]), (int(fields[11]) + int(fields[12])) * TICK_MS)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sf_dir")
    ap.add_argument("-n", "--jobs", type=int, default=10)
    args = ap.parse_args(argv)
    # the workers import proj_ray from this checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")  # no usage report upload
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    try:
        from ray.data import DataContext

        from proj_ray.pipelines.flagship import flagship_pipeline

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

        rows = []
        for job in range(args.jobs):
            before = worker_counters()
            t = time.perf_counter()
            flagship_pipeline(args.sf_dir)
            wall_ms = 1e3 * (time.perf_counter() - t)
            after = worker_counters()
            faults = sum(f - before.get(p, (0, 0))[0] for p, (f, _) in after.items())
            cpu_ms = sum(c - before.get(p, (0, 0))[1] for p, (_, c) in after.items())
            rows.append((wall_ms, faults, cpu_ms))
            print(f"job {job}: wall {wall_ms:.0f} ms, {len(after)} workers, "
                  f"{faults} minor faults, {cpu_ms:.0f} ms CPU", flush=True)
        if len(rows) > 1:  # job 0 is the warm-up
            wall, faults, cpu = (statistics.median(c) for c in zip(*rows[1:]))
            print(f"median of jobs 1-{len(rows) - 1}: wall {wall:.0f} ms, "
                  f"{faults:.0f} minor faults, {cpu:.0f} ms CPU")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
