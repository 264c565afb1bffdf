"""Per-layer figures shared by several workloads' traced runs."""

from __future__ import annotations

import time

import numpy as np

from . import common
from .trace import NULL


def hot_cell_share(per_cell) -> float:
    """Share of points in the busiest 1% of occupied cells (at least
    one), from the point count of each occupied cell."""
    counts = np.sort(np.asarray(per_cell))
    k = max(1, counts.size // 100)
    return float(counts[-k:].sum() / counts.sum())


def call_overhead_us(transforms) -> float:
    """Median wall time of a one-point call over ``transforms`` (about a
    thousand calls in all), in us."""
    one = np.zeros(1)
    per_call = []
    for t in transforms:
        for _ in range(max(5, 1000 // len(transforms))):
            t0 = time.perf_counter()
            t(one, one)
            per_call.append(time.perf_counter() - t0)
    return common.median(per_call) * 1e6


def transform_layer(points, calls, busy_s, nonfinite, transforms) -> dict:
    """transform.* figures; ``nonfinite`` counts non-finite output
    coordinates (two per point)."""
    return {"transform.points": points, "transform.calls": calls,
            "transform.busy_s": busy_s,
            "transform.call_overhead_us": call_overhead_us(transforms),
            "transform.nonfinite_frac": nonfinite / (2 * points)}


def crs_layer(tr) -> dict:
    """crs.* figures: compiles are ``crs.init`` spans (two CRS each);
    ``crs.repeat_pairs`` counts compiles of a pair compiled before."""
    st = tr.self_times()
    inits = len(tr.durations("crs.init"))
    return {"crs.inits": 2 * inits,
            "crs.init_busy_s": st.get("crs.init", 0.0),
            "crs.init_db_load_s": st.get("crs.init_db_load", 0.0),
            "crs.repeat_pair_share":
                tr.counts["crs.repeat_pairs"] / inits if inits else 0.0}


def ray_layer(job_s: float, busy_s: float) -> dict:
    """Untraced Ray job time split into the layers' summed busy time
    (from the in-process replay) and the runtime's remainder."""
    return {"ray_data.job_s": job_s,
            "ray_data.overhead_s": job_s - busy_s,
            "ray_data.overhead_share": (job_s - busy_s) / job_s}


def ray_traced(job, replay, tr, seconds):
    """The Ray workloads' traced run: untraced jobs for ``seconds``, then,
    with Ray stopped (its idle processes share the core), a warm-up, three
    untraced and one traced in-process replay of one job.  Returns the job
    latencies and outputs, the traced replay's output and the tracing
    overhead (traced replay time minus the untraced replays' median)."""
    lat, outs = common.timed_loop(job, seconds)
    common.ray_stop()
    replay(NULL)
    untraced, _ = common.timed_loop(lambda: replay(NULL), 0.0)
    t0 = time.perf_counter()
    out = replay(tr)
    return lat, outs, out, time.perf_counter() - t0 - common.median(untraced)
