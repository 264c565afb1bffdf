"""Shared plumbing: checkout-local paths, Ray lifecycle, /proc memory
readings, percentiles and the run outcome record."""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
# Ray puts AF_UNIX sockets under its temp dir; their paths must stay
# under 108 bytes, so the temp dir gets the shortest name available.
RAY_TMP = os.path.join(ROOT, ".pbr")
_RAY_SOCKET_SUFFIX = 64  # "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"
# A fixed object store, a few times what a job holds at once, so its size
# does not follow the host's free memory from run to run.
OBJECT_STORE_BYTES = 512 << 20


def prepare_env():
    """Keep every file the run writes inside the checkout, make the
    checkout importable in Ray workers, and keep Ray off the network."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    os.environ["RAY_DEDUP_LOGS"] = "0"
    # Ray's own memory monitor kills workers when the whole host runs
    # short, which on a shared host says nothing about this program.
    os.environ["RAY_memory_monitor_refresh_ms"] = "0"
    pp = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + pp if pp else "")
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


def cores() -> int:
    """Cores available as ``nproc`` counts them: the affinity set, capped
    by OMP_NUM_THREADS / OMP_THREAD_LIMIT when those are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "")
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def ray_start():
    import logging

    import ray
    from ray.data import DataContext

    temp_dir = RAY_TMP
    if len(RAY_TMP) + _RAY_SOCKET_SUFFIX > 107:
        temp_dir = "/tmp/ray"  # Ray's own default
        print("perfbench: checkout path too long for Ray's sockets; "
              "Ray's session goes to /tmp/ray", file=sys.stderr)
    os.environ["RAY_TMPDIR"] = temp_dir  # for Ray code that reads it directly
    # The object store's backing files go to the checkout too, not
    # /dev/shm: a host where only the checkout is writable must still run.
    plasma = os.path.join(WORK, "plasma")
    os.makedirs(plasma, exist_ok=True)
    for attempt in (1, 2):  # a node that fails to come up gets one more try
        try:
            ray.init(address="local", num_cpus=cores(), include_dashboard=False,
                     logging_level="ERROR", log_to_driver=False, _temp_dir=temp_dir,
                     object_store_memory=OBJECT_STORE_BYTES, _plasma_directory=plasma)
            break
        except Exception as e:
            if attempt == 2:
                raise
            print(f"perfbench: ray.init failed ({e}); retrying", file=sys.stderr)
            ray_stop()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ray_stop():
    """Shut Ray down, wait until every process it started has ended, and
    remove its session directory (logs) from the checkout.  A no-op when
    this process never imported Ray."""
    if "ray" not in sys.modules:
        return
    import shutil

    import ray

    node = ray._private.worker._global_node
    session = node.get_session_dir_path() if node else None
    pids = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + 20.0
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        if pids:
            time.sleep(0.05)
    for p in pids:
        try:
            os.kill(p, 9)
        except ProcessLookupError:
            pass
    if session:
        shutil.rmtree(session, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb() -> float:
    """Summed peak resident set (VmHWM) of this process and every
    process below it (Ray's GCS, raylet and workers), in MB."""
    total_kb = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def write_parts(table, path: str, n_files: int) -> list[str]:
    """Write ``table`` as ``n_files`` parquet part files under directory
    ``path`` (a dataset directory, as real inputs are); returns the paths."""
    import numpy as np
    import pyarrow.parquet as pq

    os.makedirs(path)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    files = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        files.append(os.path.join(path, f"part-{k:03d}.parquet"))
        pq.write_table(table.slice(lo, hi - lo), files[-1])
    return files


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    s = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(s)) - 1)
    return s[k]


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def timed_loop(op, seconds: float, min_ops: int = 3, keep=None):
    """Closed loop, one client, no think time: call ``op()`` until
    ``seconds`` have passed (and at least ``min_ops`` times).  Returns
    per-op latencies in seconds and the op results, each passed through
    ``keep`` (untimed) when given."""
    lat, outs = [], []
    t_end = time.perf_counter() + seconds
    while len(lat) < min_ops or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        out = op()
        lat.append(time.perf_counter() - t0)
        outs.append(keep(out) if keep else out)
    return lat, outs


# Rates are medians over consecutive windows of at least this much busy
# time: the host's speed drifts for seconds at a time, and a median over
# windows keeps a slow stretch from moving a run's figure.
WINDOW_S = 0.5


def windowed_rate(secs, work) -> float:
    """Median over windows of consecutive ops, each closed once it holds
    WINDOW_S of busy time, of work done per second; a shorter tail
    counts only when no window filled.  ``secs`` and ``work`` give each
    op's busy time and work count."""
    rates, t, w = [], 0.0, 0.0
    for dt, dw in zip(secs, work):
        t, w = t + dt, w + dw
        if t >= WINDOW_S:
            rates.append(w / t)
            t = w = 0.0
    return median(rates) if rates else w / t


def latency_metrics(lat_s, points) -> dict:
    """End-to-end figures of a closed loop from each op's latency and
    point count: windowed rates and latency percentiles."""
    return {"points_per_s": windowed_rate(lat_s, points),
            "requests_per_s": windowed_rate(lat_s, [1] * len(lat_s)),
            "latency_p50_ms": median(lat_s) * 1e3,
            "latency_p99_ms": percentile(lat_s, 99) * 1e3}


@dataclass
class Outcome:
    """What one run reports.  ``metrics`` (name -> value) feed the result
    line, which takes units from BENCHMARK.json; ``info`` (name ->
    (value, unit)) is printed above it for the reader."""

    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
