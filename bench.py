#!/usr/bin/env python
"""Benchmark harness.

Default: run the headline flagship pipeline + representative queries over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) with
``ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)`` and print ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "points": N, "points_per_sec": N}

``--scaling``: run the identical headline job in two fresh processes at
num_cpus=8 and num_cpus=32 on the same input and print throughputs +
scaling efficiency E = (T8/T32)/4 (the sandbox substitute for the
N-vs-4N-node criterion, see BASELINE.md).
"""

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_MULT = int(os.environ.get("GRAFT_BENCH_MULT", "64"))

# representative per-operator queries timed by the default bench run
# (one execution each, shared warm session); also consumed one-at-a-time
# by the quiet-window per-query snapshot in tools/scaling_hunt.py
BENCH_QUERIES = [
    "q1_pricing_summary", "points_webmerc", "points_utm", "tile_agg",
    "pip_join", "knn_points", "dedup_exact", "quality_scores",
    "minhash_lsh_candidates", "ann_cosine_topk", "grid_shift_fwd",
    "grid_shift_real", "geod_inverse_ellipsoidal",
    # round-3 additions: holistic sketch quantile, I/O-pruned IVF,
    # iterative real-grid inverse, vector near-dup
    "segment_acctbal_p90", "ann_ivf_partitioned",
    "grid_shift_real_inv", "embedding_near_dups",
    # round-4 additions: raster -> vector connected-component
    # vectorize, vector -> raster zonal stats, t-digest quantiles
    # over a continuous domain, S2 Hilbert cell aggregate
    "raster_polygonize", "zonal_stats", "events_value_quantiles",
    "s2_cell_agg",
    # round-4 geodesic kNN + radius search: exact Karney-metric
    # brute force, the certified shard-pruned path (the first
    # shard query pays the one-time index build), and the
    # exact-superset radius range join (reuses the shared index)
    "knn_geodesic", "knn_s2_geodesic", "radius_geodesic",
    # round-4 session-4 additions: hopping windows, Gopher
    # repetition signals, TF-IDF top terms, big-big shuffle join
    "events_hopping_agg", "gopher_repetition", "tfidf_top_terms",
    "orders_by_segment",
    # the replicated-grid radius self-join, cross-doc duplicate
    # n-grams, radius-graph CC clustering, per-order trajectories
    "radius_pair_join", "dup_ngram_frac",
    "spatial_clusters", "trajectory_length", "ann_pq_topk",
    "ann_ivfpq_topk", "rect_overlap_join", "events_user_hll",
    # round-4 session-6 additions: gap sessionization, the
    # Bloom-prefiltered semi-join, Misra-Gries heavy hitters,
    # Douglas-Peucker trajectory simplification
    "sessionize_events", "bloom_semi_join", "misra_gries_topk",
    "traj_simplify_dp", "latest_event_per_user", "user_top_event_type",
    # round-4 session-7 additions: raster focal stencil, left-outer
    # enrichment join, weighted (sequential-Poisson) sampling,
    # OLAP pivot/rollup/per-group-top-k, raster warp, TPC-H Q3
    "raster_focal_mean", "customer_order_stats", "weighted_sample_topk",
    "events_type_hour_pivot", "top_orders_per_priority",
    "lineitem_rollup", "raster_warp", "q3_shipping_priority",
    "q5_local_supplier_volume", "q14_promo_revenue",
    "funnel_signup_purchase", "retention_cohorts",
    # round-4 session-8 additions: full-outer join, set algebra,
    # global-ordinal NTILE, CUBE, LAG growth, integer PageRank
    "click_purchase_full_outer", "click_no_purchase_days",
    "segment_ntile_stats", "events_type_dow_cube",
    "priority_month_growth", "pagerank_bipartite",
    "label_centroids", "brand_edit_pairs", "token_cooccurrence",
    "dedup_events_window", "skew_split_join", "lineitem_moments",
    "lineitem_unpivot_stats", "polygon_area_geodesic",
    "window_running_total", "type_value_p95", "embedding_standardize",
    # round-4 session-9 additions: crawl-curation ladder (per-domain
    # stats, url canonicalization dedup, domain quota sampling,
    # benchmark decontamination scan)
    "domain_doc_stats", "url_dedup_canonical", "domain_cap_sample",
    "decontaminate_substr",
    # round-4 session-10 additions: PII redaction (3 RE2 passes),
    # corpus-wide line dedup (one coarse-bucket shuffle),
    # 13-gram benchmark decontamination, hex-grid cell aggregate
    "pii_redact_stats", "line_dedup_docs", "decontaminate_ngram",
    "hex_cell_agg", "lm_quality_score", "semdedup_keep",
    "bm25_topk", "top_ngrams", "curation_pipeline",
    "minhash_dedup_keep",
    # round-4 session-11 additions: the classic query pack (scalar
    # filter-agg, returned-item top-k, grouped HAVING, bracket OR
    # join, EXISTS semi-join, global-scalar anti-join) + winnowing
    "q6_forecast_revenue", "q10_returned_items", "q18_large_orders",
    "q19_bracket_revenue", "q4_priority_exists", "q22_idle_balance",
    "winnow_fingerprints", "winnow_dup_pairs",
    # round-4 session-12 additions: WARC container round-trip
    # (write shards + distributed read + byte-identity extraction),
    # tag-strip extraction parity, distributed BPE merge training
    "warc_roundtrip_text", "html_extract_text", "bpe_train_merges",
    # round-4 session-13 additions: LM sequence packing (global-offset
    # concat-and-chunk), ExactSubstr duplicated-span merge, tokenizer
    # application with the trained merge table
    "pack_sequences", "dup_span_stats", "bpe_encode_stats",
    "jsonl_roundtrip_text", "incremental_dedup_new",
]


def run_bench():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray

    init_kwargs = {}
    if os.environ.get("GRAFT_SCALING_ONLY"):
        # scaling legs may be pre-warmed CONCURRENTLY (see run_scaling):
        # a bounded object store lets an 8-cpu and a 32-cpu session
        # co-reside without exhausting /dev/shm; the 19.2M-point leg
        # streams through far less than this
        init_kwargs["object_store_memory"] = 4 << 30
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR", **init_kwargs)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Ray's streaming-generator buffer defaults to 2 blocks in flight
    # per task; a single-file read split into 32 blocks then trickles
    # its consumers at the generator resume round-trip (~25 ms/block —
    # measured 0.6 s of serialized dispatch per pipeline at sf0.1,
    # dominating small runs and depressing measured N-vs-4N scaling).
    # 16 lifts the serialization while staying far under the object
    # store budget for this profile's block sizes; real many-file
    # inputs parallelize the read across tasks and don't need it.
    ctx._max_num_blocks_in_streaming_gen_buffer = int(
        os.environ.get("GRAFT_GEN_BUFFER", "16"))

    from proj_ray.pipelines.flagship import flagship_pipeline, pages_dataset
    from proj_ray.pipelines.queries import QUERIES

    # warm the OS page cache so we measure compute+shuffle, not cold disk
    pages_dataset(SF_DIR, mult=1).count()

    # ---- headline: points geoparsed+transformed+tiled+joined+aggregated
    n_points = pages_dataset(SF_DIR, mult=BENCH_MULT).count()

    # pre-warm handshake for scaling legs: everything above (ray.init,
    # imports, page-cache warm, the full-mult count) runs OUTSIDE the
    # host-quiet window; the timed section below starts only when the
    # coordinator says go, so the quiet window only needs to cover the
    # probes + the timed legs
    go_file = os.environ.get("GRAFT_GO_FILE")
    if go_file and os.environ.get("GRAFT_SCALING_ONLY"):
        # warm the FULL pipeline once (actor pools, UDF chains, worker
        # imports): a cold first execution measures ~0.8 s slower than
        # steady state at mult=1, and that fixed cost lands in BOTH
        # timed legs — the hi leg's share is 4x larger, so cold actors
        # alone depress measured E by ~0.1 (see BASELINE.md session-13)
        _ = len(flagship_pipeline(SF_DIR, mult=1))
        with open(go_file + ".ready", "w") as f:
            f.write("ready")
        deadline = time.time() + float(os.environ.get("GRAFT_GO_TIMEOUT", "300"))
        while not os.path.exists(go_file):
            if time.time() > deadline:
                raise RuntimeError("scaling go-signal never arrived")
            time.sleep(0.05)
    t0 = time.perf_counter()
    res = flagship_pipeline(SF_DIR, mult=BENCH_MULT)
    _ = len(res)  # flagship returns a driver-combined DataFrame
    headline = time.perf_counter() - t0

    # ---- representative per-operator queries (one execution each)
    if os.environ.get("GRAFT_SCALING_ONLY"):
        out = {
            "metric": "end-to-end points geoparsed+transformed+tiled+PIP-joined+aggregated per second",
            "value": round(headline, 3), "unit": "sec", "queries": {},
            "sf": SF_DIR, "num_cpus": NUM_CPUS, "points": int(n_points),
            "points_per_sec": int(n_points / headline), "bench_mult": BENCH_MULT,
        }
        # print BEFORE ray.shutdown: the coordinator (run_scaling) reads
        # the result line from the pipe and moves on to the next in-run
        # ceiling immediately, so this session's multi-second teardown
        # happens outside the timed window (it can only DEPRESS the next
        # ceiling reading — the safe direction for the validity gate)
        print(json.dumps(out), flush=True)
        ray.shutdown()
        sys.exit(0)
    # time EVERY registered query (curated representative order first,
    # then the rest in registration order) so each round's BENCH json
    # carries a complete per-operator snapshot
    bench_queries = BENCH_QUERIES + [q for q in QUERIES
                                     if q not in BENCH_QUERIES]
    qtimes = {}
    for name in bench_queries:
        fn = QUERIES[name]["fn"]
        t0 = time.perf_counter()
        res = fn(SF_DIR)
        if hasattr(res, "count"):
            res.count()
        qtimes[name] = round(time.perf_counter() - t0, 3)

    # no-Ray host control alongside the numbers: on this hypervisor
    # vCPU-steal episodes (ceiling < 1.0) inflate every wall time, so
    # a run's figures are only comparable to BASELINE.md at a similar
    # ceiling (see the scaling-protocol note there)
    c8 = _cpu_control(min(8, NUM_CPUS))
    c_hi = _cpu_control(NUM_CPUS)
    ceiling = ((NUM_CPUS / c_hi) / (min(8, NUM_CPUS) / c8)) \
        / (NUM_CPUS / min(8, NUM_CPUS)) if NUM_CPUS > 8 else 1.0
    out = {
        "metric": "end-to-end points geoparsed+transformed+tiled+PIP-joined+aggregated per second",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "points": int(n_points),
        "points_per_sec": int(n_points / headline),
        "bench_mult": BENCH_MULT,
        "host_parallel_ceiling": round(ceiling, 3),
    }
    ray.shutdown()
    return out


def _cpu_control(n, cpus=None):
    """No-Ray control: n independent numpy processes doing fixed work.

    Measures what the HOST currently delivers for embarrassingly
    parallel CPU work.  On a contended hypervisor (vCPU steal) even
    perfect code cannot scale; this calibrates the ceiling so the
    scaling_efficiency number can be normalized.

    Measurement hygiene (session-12): a warm-up map runs first so the
    timed map excludes each child's numpy import and pool spawn (the
    old version timed those too); the timed burn stays LONG (~0.5 s)
    because it doubles as a low-pass filter over scheduler jitter —
    median-of-short-bursts was tried and measured strictly noisier.

    ``cpus``: optional core set for the control children — used by the
    scaling coordinator to keep its probes OFF the legs' pinned cores
    (an unpinned control wandering onto a busy pinned core reads a
    bogus ceiling, in either direction)."""
    import multiprocessing as mp

    init, initargs = (None, ())
    if cpus is not None:
        init, initargs = (_pin_child, (tuple(cpus),))
    with mp.Pool(n, initializer=init, initargs=initargs) as p:
        p.map(_burn_warm, range(n))  # numpy import + allocator warm-up
        t0 = time.perf_counter()
        p.map(_burn, range(n))
        return time.perf_counter() - t0


def _pin_child(cpus):
    os.sched_setaffinity(0, cpus)


def _burn_warm(_):
    import numpy as np

    a = np.random.default_rng(1).random(1_000_000)
    return float(np.sin(a)[0])


def _burn(_):
    import numpy as np

    a = np.random.default_rng(1).random(1_000_000)
    for _ in range(15):
        a2 = np.sin(a) * np.cos(a) + np.sqrt(np.abs(a))
    return float(a2[0])


def run_scaling():
    # N vs 4N parallelism levels; override with GRAFT_SCALE_LO/HI when
    # the hypervisor can't deliver 32 vCPUs (e.g. 2 vs 8 on a host whose
    # parallel ceiling probe shows only ~8 fast CPUs) — same job, same
    # input, two fresh processes either way
    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))

    # PRE-WARMED legs: both subprocesses start now, do their ray.init /
    # import / page-cache warm / input count, then BLOCK on a go-file.
    # Only the timed sections run inside the host-quiet window, so the
    # window must cover ~(3 probes + T_lo + T_hi) instead of also both
    # legs' fixed startup (observed quiet windows are seconds-to-tens of
    # seconds on this hypervisor; see BASELINE.md).  The two idle Ray
    # sessions co-reside under a bounded object store (run_bench).
    import tempfile

    godir = tempfile.mkdtemp(prefix="graft_scaling_go_")

    def spawn(ncpu, base=0):
        # when the coordinator holds this run, the legs idle blocked on
        # their go-file for up to GRAFT_HOLD_TIMEOUT before the timed
        # section even begins — extend their internal go-wait to match
        go_timeout = 300.0
        if os.environ.get("GRAFT_HOLD_FILE"):
            go_timeout = 120.0 + float(
                os.environ.get("GRAFT_HOLD_TIMEOUT", "900"))
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_MULT=os.environ.get("GRAFT_BENCH_MULT", "256"),
                   GRAFT_SCALING_ONLY="1",
                   GRAFT_GO_TIMEOUT=str(go_timeout),
                   GRAFT_GO_FILE=os.path.join(godir, f"go-{ncpu}"))
        cmd = [sys.executable, os.path.abspath(__file__)]
        # PIN the leg (and every Ray child it forks) to EXACTLY ncpu
        # cores: an unpinned num_cpus=n session runs its object store,
        # I/O and Arrow threads BESIDE the n task slots, so the small
        # leg borrows proportionally more hidden CPU than the big one —
        # overstating its throughput and structurally depressing
        # measured N-vs-4N efficiency (the round-3 caveat-b artifact).
        # Pinning makes each leg a faithful fixed-size-node substitute.
        # Disjoint core ranges where the machine is wide enough, so a
        # co-resident idle sibling can't touch the timed leg's cores.
        if os.environ.get("GRAFT_PIN_CPUS", "1") != "0":
            total = os.cpu_count() or 32
            start = base if base + ncpu <= total else 0
            cmd = ["taskset", "-c", f"{start}-{start + ncpu - 1}"] + cmd
        # stderr goes to a FILE, not a pipe: Ray logs can exceed the
        # 64 KiB pipe buffer, and a leg blocked in write(2) on a full
        # stderr pipe would deadlock release()'s stdout readline loop
        errf = open(os.path.join(godir, f"err-{ncpu}"), "w")
        try:
            return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                    stderr=errf, text=True)
        finally:
            errf.close()  # the child holds its own dup; don't leak an
            #               fd per spawned leg across a long hunt run

    def _err_tail(ncpu):
        try:
            with open(os.path.join(godir, f"err-{ncpu}")) as f:
                return f.read()[-500:]
        except OSError:
            return ""

    def wait_ready(ncpu, proc, other=None, timeout=240.0):
        ready = os.path.join(godir, f"go-{ncpu}.ready")
        deadline = time.time() + timeout
        while not os.path.exists(ready):
            if proc.poll() is not None or time.time() > deadline:
                proc.kill()
                if other is not None and other.poll() is None:
                    other.kill()  # don't leak the sibling's warm session
                raise RuntimeError(f"scaling leg {ncpu} died during "
                                   f"pre-warm: {_err_tail(ncpu)}")
            time.sleep(0.1)

    def release(ncpu, proc):
        with open(os.path.join(godir, f"go-{ncpu}"), "w") as f:
            f.write("go")
        # stream-read until the result JSON line appears instead of
        # waiting for process exit: the leg prints its timing before
        # ray.shutdown, so the teardown seconds stay out of the window.
        # Reads go through os.read on the raw fd with a select() bound:
        # readline() would buffer a chunk holding BOTH a stray log line
        # and the result line, leaving the fd unreadable for select and
        # the result invisible until pipe EOF (i.e. after the teardown
        # this stream-read exists to exclude).
        import select

        fd = proc.stdout.fileno()
        buf = b""
        deadline = time.time() + 240.0
        while True:
            nl = buf.find(b"\n")
            if nl >= 0:
                line, buf = buf[:nl], buf[nl + 1:]
                try:
                    return json.loads(line)
                except ValueError:
                    continue
            rl, _, _ = select.select([fd], [], [], 1.0)
            if rl:
                chunk = os.read(fd, 65536)
                if chunk:
                    buf += chunk
                    continue  # drain complete lines before re-polling
            if proc.poll() is not None or time.time() > deadline:
                proc.kill()
                raise RuntimeError(
                    f"scaling leg {ncpu} failed: {_err_tail(ncpu)}")

    p_lo = spawn(lo, base=0)
    p_hi = spawn(hi, base=lo)
    wait_ready(lo, p_lo, other=p_hi)
    wait_ready(hi, p_hi, other=p_lo)

    # HELD mode: both legs are pre-warmed and blocked; signal readiness
    # to an external coordinator (tools/scaling_hunt.py) and wait for
    # its release before running the first in-run ceiling.  This moves
    # the ~10 s of leg startup OUT of the time between "coordinator saw
    # a quiet host" and "timed section starts" — the quiet window only
    # has to cover ceil0 + T_lo + ceil1 + T_hi + ceil2 (~11 s at the
    # 2->8 pair), not also the pre-warm.
    hold = os.environ.get("GRAFT_HOLD_FILE")
    if hold:
        with open(hold + ".ready", "w") as f:
            f.write("ready")
        hold_deadline = time.time() + float(
            os.environ.get("GRAFT_HOLD_TIMEOUT", "900"))
        while not os.path.exists(hold):
            if time.time() > hold_deadline:
                for p in (p_lo, p_hi):
                    p.kill()
                print(json.dumps({"error": "hold timeout: no release "
                                  "signal before GRAFT_HOLD_TIMEOUT"}))
                return
            time.sleep(0.05)

    # controls must stay OFF the legs' pinned cores (legs occupy
    # 0..lo+hi-1 when pinned): probe on the upper half where disjoint,
    # else unpinned (8->32 uses every core anyway)
    total = os.cpu_count() or 32
    probe_cpus = None
    if os.environ.get("GRAFT_PIN_CPUS", "1") != "0" and lo + hi + hi <= total:
        probe_cpus = tuple(range(total - hi, total))

    def _ceiling():
        # host ceiling: throughput gain a PERFECT parallel program gets
        # (work scales with n, so throughput at n workers = n / wall)
        c_lo = _cpu_control(lo, cpus=probe_cpus)
        c_hi = _cpu_control(hi, cpus=probe_cpus)
        return ((hi / c_hi) / (lo / c_lo)) / (hi / lo)

    # the hypervisor's vCPU steal FLUCTUATES on minute timescales: a
    # collapse during one leg but not the other fabricates an
    # arbitrarily wrong E (both directions — a slow lo-leg even makes
    # E super-linear).  Probe the ceiling BEFORE, BETWEEN and AFTER
    # the legs; the measurement is only VALID when the host stayed
    # quiet throughout (min ceiling >= 0.85) and E is physical
    # (<= 1.05).
    try:
        ceil0 = _ceiling()
        r_lo = release(lo, p_lo)
        ceil1 = _ceiling()
        r_hi = release(hi, p_hi)
        ceil2 = _ceiling()
    except BaseException:
        for p in (p_lo, p_hi):
            if p.poll() is None:
                p.kill()
        raise
    ceiling = min(ceil0, ceil1, ceil2)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    valid = 0.85 <= ceiling <= 1.08 and eff <= 1.05  # >1.08 = gauge fault, not quiet
    print(json.dumps({
        "metric": f"throughput scaling efficiency, num_cpus {lo} -> {hi} (N vs 4N substitute)",
        "cpus_lo": lo, "cpus_hi": hi,
        f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
        "points": r_lo["points"],
        f"points_per_sec_{lo}": r_lo["points_per_sec"],
        f"points_per_sec_{hi}": r_hi["points_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "host_ceiling_before": round(ceil0, 3),
        "host_ceiling_mid": round(ceil1, 3),
        "host_ceiling_after": round(ceil2, 3),
        "host_parallel_ceiling": round(ceiling, 3),
        "host_quiet_throughout": valid,
        "normalized_efficiency": round(min(1.0, eff / ceiling), 3) if ceiling > 0 else None,
        "pass": valid and eff >= 0.8,
        "note": ("host_parallel_ceiling is the min of three no-Ray "
                 "multiprocessing controls (before/between/after the two "
                 "legs); hypervisor vCPU-steal episodes bound any parallel "
                 "program's measurable efficiency and can fabricate wrong E "
                 "in either direction when they hit only one leg, so a run "
                 "is only valid when the host stayed quiet throughout"),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
