#!/usr/bin/env python
"""Freeze golden tables for deterministic non-SQL-expressible queries.

The driver's correctness gate compares queries() against oracle_sql()
at sf=0.01.  Queries whose computation ANSI SQL cannot express
(simhash, MinHash+LSH, Karney geodesics, real-NTv2 grid shifts,
product-quantized ANN top-k) are
gated against frozen parquet goldens under proj_ray/data/goldens/,
which the oracle SQL reads via ``SELECT ... FROM read_parquet(...)``.

PROVENANCE — every golden here is generated by an implementation
INDEPENDENT of the distributed engine path it gates:

- minhash_lsh_candidates / minhash_dedup_clusters: per-doc scalar
  signatures + Python dict buckets + union-find clustering (this file)
  vs the engine's vectorized banding, distributed bucket groupby, join
  fallbacks and min-label propagation.
- geod_inverse_ellipsoidal: per-point scalar Karney port
  (tools/scalar_ref.py; paper-value-validated in
  tests/test_scalar_ref.py) vs the masked-vectorized kernel.
- grid_shift_real / grid_shift_real_inv: per-point scalar NTv2
  reader + bilinear + fixed-point inverse (tools/scalar_ref.py) vs
  the engine's vectorized reader/kernels and fused Transform.

Regenerate only if the driver's testdata generation changes:
    python tools/freeze_goldens.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.01"
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "proj_ray", "data", "goldens")

_M = np.uint64(0xFFFFFFFFFFFFFFFF)


# --- scalar reference hashes (per-document definitions) -------------------

def mix64_s(x):
    x = np.uint64(x)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M
        return x ^ (x >> np.uint64(31))


def ref_shingles(t, k):
    b = np.frombuffer((t or "").encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if b.size < k:
        return np.array([mix64_s(b.sum() if b.size else 0)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        n = b.size - k + 1
        acc = np.zeros(n, dtype=np.uint64)
        BASE = np.uint64(1099511628211)
        for j in range(k):
            acc = (acc * BASE + b[j:j + n]) & _M
    return np.array([mix64_s(v) for v in acc], dtype=np.uint64)


def ref_simhash(t, k=4):
    sh = ref_shingles(t, k)
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = bits.astype(np.int64).sum(axis=0) * 2 - sh.size
    out = np.uint64(0)
    for i in np.flatnonzero(votes > 0):
        out |= np.uint64(1) << np.uint64(i)
    return out


# --- scalar MinHash / LSH reference ---------------------------------------

def _mix64_vec(x):
    """splitmix64 over one doc's shingle vector (the independence vs
    the engine is the per-DOC processing; the engine's risk surface is
    its batch-segmented reduceat bookkeeping across documents)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M
        return x ^ (x >> np.uint64(31))


def ref_minhash_sig(t, num_perm=64, k=5):
    """Per-doc MinHash signature: min over shingles of
    mix64(shingle ^ seed_p), seeds = mix64(1..num_perm)."""
    wh = ref_shingles(t, k)
    sig = np.empty(num_perm, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            seed = mix64_s(np.uint64(p + 1))
            sig[p] = _mix64_vec(wh ^ seed).min()
    return sig


def ref_band_hashes(sig, bands=16):
    """Polynomial band hash over each band's rows, mix64-finalized."""
    rows = sig.size // bands
    out = np.empty(bands, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            acc = np.uint64(0)
            for j in range(rows):
                acc = (acc * np.uint64(0x100000001B3) + sig[b * rows + j]) & _M
            out[b] = mix64_s(acc)
    return out


class _UnionFind:
    """Independent clustering algorithm (the engine uses min-label
    propagation; this is path-compressed union-find)."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def freeze_simhash_near_dups_golden(ids, texts, radius=3):
    """TRUE ground truth for simhash_near_dups: scalar per-doc simhash
    + brute-force ALL-pairs hamming (no banding — the engine's banded
    search has exact recall at radius n_bands-1 by pigeonhole, so the
    two sets must be identical)."""
    sh = np.array([ref_simhash(t) for t in texts], dtype=np.uint64)
    order = np.argsort(ids, kind="mergesort")
    sids, ssh = ids[order], sh[order]
    da, db, hm = [], [], []
    for i in range(len(sids)):
        x = ssh[i] ^ ssh[i + 1:]
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                            axis=1).sum(axis=1)
        for j in np.flatnonzero(ham <= radius):
            da.append(int(sids[i]))
            db.append(int(sids[i + 1 + j]))
            hm.append(int(ham[j]))
    t = pa.table({"doc_a": pa.array(da, pa.int64()),
                  "doc_b": pa.array(db, pa.int64()),
                  "hamming": pa.array(hm, pa.int64())})
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "simhash_near_dups_sf001.parquet"))
    print(f"simhash_near_dups golden written ({t.num_rows} pairs)")


def freeze_minhash_goldens(ids, texts, num_perm=64, bands=16, k=5):
    """Both LSH goldens from one scalar banding pass + dict buckets +
    union-find."""
    buckets: dict = {}
    for did, text in zip(ids.tolist(), texts):
        sig = ref_minhash_sig(text, num_perm=num_perm, k=k)
        bh = ref_band_hashes(sig, bands=bands)
        for b in range(bands):
            buckets.setdefault((b, int(bh[b])), []).append(did)

    # minhash_lsh_candidates: per-doc partner counts (sum & max over
    # the doc's bands of bucket_size - 1)
    partners = {did: [] for did in ids.tolist()}
    for (_b, _h), members in buckets.items():
        sz = len(members)
        for did in members:
            partners[did].append(sz - 1)
    rows = sorted(partners)
    t = pa.table({
        "doc_id": pa.array(rows, pa.int64()),
        "collision_partners": pa.array(
            [int(sum(partners[d])) for d in rows], pa.int64()),
        "max_bucket_partners": pa.array(
            [int(max(partners[d])) for d in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "minhash_lsh_candidates_sf001.parquet"))
    print("minhash_lsh_candidates golden written (scalar)")

    # minhash_dedup_clusters: union-find over bucket co-membership
    uf = _UnionFind()
    for (_b, _h), members in buckets.items():
        ms = sorted(set(members))
        for other in ms[1:]:
            uf.union(ms[0], other)
    t = pa.table({
        "doc_id": pa.array(sorted(ids.tolist()), pa.int64()),
        "cluster": pa.array([uf.find(d) if d in uf.parent else d
                             for d in sorted(ids.tolist())], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "minhash_dedup_clusters_sf001.parquet"))
    print("minhash_dedup_clusters golden written (scalar union-find)")


def freeze_geod_golden():
    """geod_inverse_ellipsoidal from the scalar Karney port
    (tools/scalar_ref.py; validated in tests/test_scalar_ref.py)."""
    from scalar_ref import karney_inverse_scalar

    from proj_ray.pipelines.derive import (LAT_MUL, LON_MUL, lonlat_numpy,
                                           pid_numpy)

    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    pid = pid_numpy(li["l_orderkey"].to_numpy(),
                    li["l_linenumber"].to_numpy())
    lon, lat = lonlat_numpy(pid)
    lon2 = (pid * LAT_MUL % 36000 - 18000) / 1.0e2
    lat2 = (pid * LON_MUL % 16000 - 8000) / 1.0e2
    n = pid.size
    s12 = np.empty(n)
    azi1 = np.empty(n)
    for i in range(n):
        s12[i], azi1[i], _ = karney_inverse_scalar(
            lon[i], lat[i], lon2[i], lat2[i])
    t = pa.table({
        "pid": pa.array(pid, pa.int64()),
        "s12_mm": pa.array(np.floor(s12 * 1e3 + 0.5).astype(np.int64)),
        "azi1_udeg": pa.array(np.floor(azi1 * 1e6 + 0.5).astype(np.int64)),
        "converged": pa.array(np.ones(n, dtype=bool)),
    })
    pq.write_table(t, os.path.join(OUT_DIR, "geod_inverse_sf001.parquet"))
    print(f"geod_inverse golden written (scalar Karney, {n} rows)")


def freeze_knn_geodesic_golden(k=5):
    """knn_geodesic / knn_s2_geodesic from the scalar Karney port:
    per-point scalar distances over the FULL corpus per query + a
    plain Python sort — no partial top-k merge, no pruning, no Ray.
    Ranks by (s12, id); output distances as integer millimetres."""
    from scalar_ref import karney_inverse_scalar

    from proj_ray.pipelines.derive import lonlat_numpy, pid_numpy
    from proj_ray.pipelines.queries import _KNN_QUERIES

    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    pid = pid_numpy(li["l_orderkey"].to_numpy(),
                    li["l_linenumber"].to_numpy())
    lon, lat = lonlat_numpy(pid)
    n = pid.size
    rows = {"qid": [], "id": [], "rank": [], "s12_mm": []}
    for qid, qx, qy in _KNN_QUERIES:
        dist = [karney_inverse_scalar(lon[i], lat[i], qx, qy)[0]
                for i in range(n)]
        order = sorted(range(n), key=lambda i: (dist[i], int(pid[i])))[:k]
        for r, i in enumerate(order, 1):
            rows["qid"].append(int(qid))
            rows["id"].append(int(pid[i]))
            rows["rank"].append(r)
            rows["s12_mm"].append(int(np.floor(dist[i] * 1e3 + 0.5)))
    t = pa.table({"qid": pa.array(rows["qid"], pa.int64()),
                  "id": pa.array(rows["id"], pa.int64()),
                  "rank": pa.array(rows["rank"], pa.int64()),
                  "s12_mm": pa.array(rows["s12_mm"], pa.int64())})
    pq.write_table(t, os.path.join(OUT_DIR, "knn_geodesic_sf001.parquet"))
    print(f"knn_geodesic golden written (scalar Karney brute force, "
          f"{len(rows['qid'])} rows over {n} points x {len(_KNN_QUERIES)} queries)")


def freeze_radius_geodesic_golden():
    """radius_geodesic from the scalar Karney port: per-point scalar
    distances over the FULL corpus per query + a plain filter — no
    shard pruning, no superset-box reasoning, no Ray."""
    from scalar_ref import karney_inverse_scalar

    from proj_ray.pipelines.derive import lonlat_numpy, pid_numpy
    from proj_ray.pipelines.queries import _KNN_QUERIES, _RADIUS_M

    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    pid = pid_numpy(li["l_orderkey"].to_numpy(),
                    li["l_linenumber"].to_numpy())
    lon, lat = lonlat_numpy(pid)
    n = pid.size
    rows = {"qid": [], "id": [], "s12_mm": []}
    for qid, qx, qy in _KNN_QUERIES:
        for i in range(n):
            s = karney_inverse_scalar(lon[i], lat[i], qx, qy)[0]
            if s <= _RADIUS_M:
                rows["qid"].append(int(qid))
                rows["id"].append(int(pid[i]))
                rows["s12_mm"].append(int(np.floor(s * 1e3 + 0.5)))
    t = pa.table({"qid": pa.array(rows["qid"], pa.int64()),
                  "id": pa.array(rows["id"], pa.int64()),
                  "s12_mm": pa.array(rows["s12_mm"], pa.int64())})
    pq.write_table(t, os.path.join(OUT_DIR, "radius_geodesic_sf001.parquet"))
    print(f"radius_geodesic golden written (scalar Karney full scan, "
          f"{len(rows['qid'])} rows <= {_RADIUS_M/1e3:.0f} km)")


def freeze_grid_goldens():
    """grid_shift_real (fwd) + grid_shift_real_inv from the scalar
    NTv2 implementation (tools/scalar_ref.py)."""
    from scalar_ref import ntv2_transform_scalar, read_ntv2_scalar

    from proj_ray.pipelines.derive import LAT_MUL, LON_MUL, pid_numpy

    ntf = "/root/reference/nad/ntf_r93.gsb"
    grids = read_ntv2_scalar(ntf)
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    pid = pid_numpy(li["l_orderkey"].to_numpy(),
                    li["l_linenumber"].to_numpy())
    lon = (pid * LON_MUL % 1200 - 400) / 1.0e2
    lat = (4250 + pid * LAT_MUL % 850) / 1.0e2
    for inverse, fname in [(False, "grid_shift_real_sf001.parquet"),
                           (True, "grid_shift_real_inv_sf001.parquet")]:
        out_lon, out_lat = ntv2_transform_scalar(grids, lon, lat,
                                                 inverse=inverse)
        t = pa.table({"pid": pa.array(pid, pa.int64()),
                      "lon_shifted": pa.array(out_lon),
                      "lat_shifted": pa.array(out_lat)})
        pq.write_table(t, os.path.join(OUT_DIR, fname))
        print(f"{fname} written (scalar NTv2, {pid.size} rows)")


def freeze_ann_pq_golden(k=10):
    """ann_pq_topk: shared deterministic PQ trainer/encoder definitions
    (functions.vector — same provenance stance as kmeans_cosine), but a
    single-process per-query scan: full-corpus encode in one numpy
    call, per-query asymmetric-distance loop, one lexsort — none of the
    engine's batching, partial top-k or two-level merge."""
    import duckdb

    from proj_ray.functions.vector import pq_adist, pq_encode, pq_train

    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy().astype(np.int64)
    M = np.array(emb["embedding"].to_pylist(), dtype=np.float32)
    order = np.argsort(ids, kind="mergesort")
    ids, M = ids[order], M[order]
    Q = M[np.isin(ids, [0, 1, 2])]

    con = duckdb.connect()
    sv = con.sql(f"SELECT embedding FROM '{SF_DIR}/embeddings.parquet' "
                 f"WHERE vec_id % 7 = 0 ORDER BY vec_id LIMIT 1024").fetchall()
    con.close()
    S = np.array([list(r[0]) for r in sv], dtype=np.float32)
    books = pq_train(S, m=8, ks=16)
    codes = pq_encode(M, books)
    Q64 = np.asarray(Q, dtype=np.float64)
    rows = {"qid": [], "vec_id": [], "rank": [], "adist": []}
    for j in range(Q64.shape[0]):
        d = pq_adist(Q64[j], books, codes)
        top = np.lexsort((ids, d))[:k]
        rows["qid"].extend([j] * len(top))
        rows["vec_id"].extend(ids[top].tolist())
        rows["rank"].extend(range(1, len(top) + 1))
        rows["adist"].extend(d[top].tolist())
    pq.write_table(
        pa.table({"qid": pa.array(rows["qid"], pa.int64()),
                  "vec_id": pa.array(rows["vec_id"], pa.int64()),
                  "rank": pa.array(rows["rank"], pa.int64()),
                  "adist": pa.array(rows["adist"], pa.float64())}),
        os.path.join(OUT_DIR, "ann_pq_topk_sf001.parquet"))
    print("ann_pq_topk golden written (single-process scan)")


def freeze_ann_ivfpq_golden(k=10):
    """ann_ivfpq_topk: shared quantizer/codebook definitions, scalar
    per-query probe + masked PQ scan (no batching, no merge)."""
    import duckdb

    from proj_ray.functions.vector import (_normalize_rows, ivf_assign,
                                           kmeans_cosine, pq_adist,
                                           pq_encode, pq_train)

    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy().astype(np.int64)
    M = np.array(emb["embedding"].to_pylist(), dtype=np.float32)
    order = np.argsort(ids, kind="mergesort")
    ids, M = ids[order], M[order]
    Q = M[np.isin(ids, [0, 1, 2])]

    con = duckdb.connect()
    sv = con.sql(f"SELECT embedding FROM '{SF_DIR}/embeddings.parquet' "
                 f"WHERE vec_id % 7 = 0 ORDER BY vec_id LIMIT 1024").fetchall()
    con.close()
    S = np.array([list(r[0]) for r in sv], dtype=np.float32)
    C = kmeans_cosine(S, 16)
    books = pq_train(S, m=8, ks=16)
    cells = ivf_assign(M, C)
    codes = pq_encode(M, books)
    Qn = _normalize_rows(Q.astype(np.float32))
    probe = np.argsort(-(Qn @ C.T), axis=1)[:, :8]
    Q64 = np.asarray(Q, dtype=np.float64)
    rows = {"qid": [], "vec_id": [], "rank": [], "adist": []}
    for j in range(Q64.shape[0]):
        msk = np.isin(cells, probe[j])
        d = pq_adist(Q64[j], books, codes[msk])
        top = np.lexsort((ids[msk], d))[:k]
        rows["qid"].extend([j] * len(top))
        rows["vec_id"].extend(ids[msk][top].tolist())
        rows["rank"].extend(range(1, len(top) + 1))
        rows["adist"].extend(d[top].tolist())
    pq.write_table(
        pa.table({"qid": pa.array(rows["qid"], pa.int64()),
                  "vec_id": pa.array(rows["vec_id"], pa.int64()),
                  "rank": pa.array(rows["rank"], pa.int64()),
                  "adist": pa.array(rows["adist"], pa.float64())}),
        os.path.join(OUT_DIR, "ann_ivfpq_topk_sf001.parquet"))
    print("ann_ivfpq_topk golden written (scalar probe + masked PQ scan)")


def freeze_polygon_area_golden():
    """polygon_area_geodesic: per-edge SCALAR Karney inverse with the
    GEOD_AREA term + fsum + crossings-parity reduction
    (scalar_ref.polygon_area_scalar) — vs the engine's vectorized
    lanes + groupby shuffle."""
    from scalar_ref import polygon_area_scalar

    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    ok = li["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ln = li["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
    import pandas as pd
    df = pd.DataFrame({"ok": ok, "ln": ln}).drop_duplicates()
    rows = []
    for o, g in df.groupby("ok"):
        lns = np.sort(g["ln"].to_numpy())
        if lns.size < 3:
            continue
        pid = o * 10 + lns
        lon = ((pid * 104729) % 36000 - 18000) / 100.0
        lat = ((pid * 7919) % 16000 - 8000) / 100.0
        perim, area = polygon_area_scalar(lon.tolist(), lat.tolist())
        rows.append((int(o), int(lns.size), perim, area))
    pq.write_table(
        pa.table({"l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
                  "n_vertices": pa.array([r[1] for r in rows], pa.int64()),
                  "perimeter_m": pa.array([r[2] for r in rows], pa.float64()),
                  "area_m2": pa.array([r[3] for r in rows], pa.float64())}),
        os.path.join(OUT_DIR, "polygon_area_geodesic_sf001.parquet"))
    print(f"polygon_area_geodesic golden written ({len(rows)} rings)")


def freeze_spatial_clusters_golden(radius_m=30000.0):
    """spatial_clusters: single-process brute-force edge scan (chunked
    full O(n^2) haversine over the DISTINCT derived points — no cells,
    no replication, none of the engine's bucketing) + pure-Python
    union-find with min-pid representatives; labels join back to
    per-input-row multiplicity.  Independent of both the engine's
    replicated grid-bucket pair join AND its min-label propagation."""
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linenumber"])
    ok = li["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ln = li["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
    pid_rows = ok * 10 + ln
    upid = np.unique(pid_rows)  # ascending: min index <=> min pid
    lon = ((upid * 104729) % 36000 - 18000) / 100.0
    lat = ((upid * 7919) % 16000 - 8000) / 100.0
    d2r = np.pi / 180.0
    lonr, latr = lon * d2r, lat * d2r
    n = upid.size

    parent = np.arange(n, dtype=np.int64)

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    chunk = 256
    n_edges = 0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # distances from rows [lo:hi) to cols [lo:) (upper triangle only)
        sdlat = np.sin((latr[None, lo:] - latr[lo:hi, None]) * 0.5)
        sdlon = np.sin((lonr[None, lo:] - lonr[lo:hi, None]) * 0.5)
        h = (sdlat * sdlat
             + np.cos(latr[lo:hi, None]) * np.cos(latr[None, lo:])
             * sdlon * sdlon)
        d = 2.0 * 6371008.7714 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        d = np.floor(d * 1.0e3 + 0.5) / 1.0e3
        ii, jj = np.nonzero(d < radius_m)
        jj = jj + lo
        ii = ii + lo
        keep = jj > ii
        for a, b in zip(ii[keep], jj[keep]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                # union by min index => representative stays min pid
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
                n_edges += 1
    label = np.array([upid[find(int(i))] for i in range(n)], dtype=np.int64)
    lut = dict(zip(upid.tolist(), label.tolist()))
    cluster_rows = np.array([lut[int(p)] for p in pid_rows], dtype=np.int64)
    pq.write_table(
        pa.table({"pid": pa.array(pid_rows, pa.int64()),
                  "cluster": pa.array(cluster_rows, pa.int64())}),
        os.path.join(OUT_DIR, "spatial_clusters_sf001.parquet"))
    n_comp = len({lut[int(p)] for p in upid})
    print(f"spatial_clusters: {n} distinct pts, {n_comp} components "
          f"(union ops {n_edges})")


def freeze_traj_simplify_golden(tol_deg=60.0):
    """traj_simplify_dp: pure-Python scalar Douglas-Peucker per user —
    recursive splitting with scalar float arithmetic (same IEEE ops the
    engine vectorizes: squared deviation num^2/den compared to tol^2,
    first-maximum tie-break), independent of the engine's numpy path."""
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["event_id", "user_id", "ts"])
    eid = ev["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid = ev["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    tu = ev["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    tol2 = float(tol_deg) * float(tol_deg)

    by_user = {}
    for i in range(eid.size):
        by_user.setdefault(int(uid[i]), []).append((int(tu[i]), int(eid[i])))

    rows = []
    for u in sorted(by_user):
        pts = sorted(by_user[u])
        ids = [e for _, e in pts]
        lon = [float((e * 104729) % 36000 - 18000) / 100.0 for e in ids]
        lat = [float((e * 7919) % 16000 - 8000) / 100.0 for e in ids]
        n = len(ids)
        keep = [False] * n
        keep[0] = keep[n - 1] = True

        def dp(i, j):
            if j - i < 2:
                return
            x1, y1, x2, y2 = lon[i], lat[i], lon[j], lat[j]
            dx, dy = x2 - x1, y2 - y1
            den = dx * dx + dy * dy
            best, best_d2 = -1, -1.0
            for p in range(i + 1, j):
                if den == 0.0:
                    d2 = ((lon[p] - x1) * (lon[p] - x1)
                          + (lat[p] - y1) * (lat[p] - y1))
                else:
                    num = dx * (y1 - lat[p]) - (x1 - lon[p]) * dy
                    d2 = (num * num) / den
                if d2 > best_d2:
                    best, best_d2 = p, d2
            if best_d2 > tol2:
                keep[best] = True
                dp(i, best)
                dp(best, j)

        dp(0, n - 1)
        kept = [p for p in range(n) if keep[p]]
        rows.append((u, n, len(kept), sum(kept),
                     sum(ids[p] for p in kept)))

    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_points": pa.array([r[1] for r in rows], pa.int64()),
        "n_kept": pa.array([r[2] for r in rows], pa.int64()),
        "kept_idx_sum": pa.array([r[3] for r in rows], pa.int64()),
        "kept_eid_sum": pa.array([r[4] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT_DIR, "traj_simplify_sf001.parquet"))
    kept_frac = sum(r[2] for r in rows) / max(1, sum(r[1] for r in rows))
    print(f"traj_simplify: {len(rows)} users, kept {kept_frac:.1%} of points")


def freeze_semdedup_golden(ncells=16, tau=0.3):
    """semdedup_keep from per-vector scalar loops: shared deterministic
    driver-side quantizer (kmeans_cosine on the same sample — the
    freeze_ann_goldens tradeoff note applies), then cell assignment and
    the within-cell earlier-mate rule computed WITHOUT the pipeline:
    per-vector cell argmax, and for each (i, j<i) cluster pair one
    scalar dimension-by-dimension cosine loop (the pinned order
    vector.dot_f64_ordered documents) against threshold tau."""
    import duckdb

    from proj_ray.functions.vector import _normalize_rows, kmeans_cosine

    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy().astype(np.int64)
    M = np.array(emb["embedding"].to_pylist(), dtype=np.float32)
    order = np.argsort(ids, kind="mergesort")
    ids, M = ids[order], M[order]

    con = duckdb.connect()
    sv = con.sql(f"SELECT embedding FROM '{SF_DIR}/embeddings.parquet' "
                 f"WHERE vec_id % 7 = 0 ORDER BY vec_id LIMIT 1024").fetchall()
    con.close()
    S = np.array([list(r[0]) for r in sv], dtype=np.float32)
    C = kmeans_cosine(S, ncells)

    Mn = _normalize_rows(M)
    cells = np.argmax(Mn @ C.T, axis=1).astype(np.int64)

    def cos_scalar(a32, b32):
        dot = na = nb = 0.0
        for d in range(a32.shape[0]):
            x, y = float(a32[d]), float(b32[d])
            dot += x * y
            na += x * x
            nb += y * y
        denom = math.sqrt(na) * math.sqrt(nb)
        return dot / (denom if denom != 0.0 else 1.0)

    kept = np.ones(len(ids), np.int64)
    for c in np.unique(cells):
        members = np.nonzero(cells == c)[0]  # ids already ascending
        for a in range(1, len(members)):
            i = members[a]
            for b in range(a):
                j = members[b]
                if cos_scalar(M[i], M[j]) >= tau:
                    kept[i] = 0
                    break
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "cell": pa.array(cells, pa.int64()),
                  "kept": pa.array(kept, pa.int64())})
    pq.write_table(t, os.path.join(OUT_DIR, "semdedup_keep_sf001.parquet"))
    print(f"semdedup_keep golden written (scalar loops, "
          f"{int(kept.sum())}/{len(ids)} kept)")


def ref_winnow_selections(t, k=16, w=8):
    """Scalar winnowing reference: per-window Python loop over the
    scalar shingle hashes (ref_shingles), min with rightmost tie-break,
    position-keyed dedup.  Independent of the engine's strided
    sliding-window kernel (functions/text.winnow_selections)."""
    grams = ref_shingles(t, k)
    g = grams.size
    sels = {}
    if g < w:
        mn = grams.min()
        pos = int(np.max(np.flatnonzero(grams == mn)))
        sels[pos] = grams[pos]
    else:
        for a in range(g - w + 1):
            win = grams[a:a + w]
            mn = win.min()
            pos = a + int(np.max(np.flatnonzero(win == mn)))
            sels[pos] = grams[pos]
    return sels, g


def freeze_winnow_goldens(ids, texts, k=16, w=8, min_shared=3):
    """winnow_fingerprints (per-doc selection stats) and
    winnow_dup_pairs (docs sharing >= min_shared distinct selected
    fingerprints) — both from the scalar per-window reference."""
    from collections import defaultdict
    from itertools import combinations

    rows = {c: [] for c in ("doc_id", "n_grams", "n_selected",
                            "fp_xor", "fp_min", "fp_max")}
    fp_docs = defaultdict(set)
    for did, t in zip(ids, texts):
        sels, g = ref_winnow_selections(t, k, w)
        vals = np.array(list(sels.values()), dtype=np.uint64)
        x = np.uint64(0)
        for v in vals:
            x ^= v
        rows["doc_id"].append(int(did))
        rows["n_grams"].append(int(g))
        rows["n_selected"].append(len(sels))
        rows["fp_xor"].append(x)
        rows["fp_min"].append(vals.min())
        rows["fp_max"].append(vals.max())
        for v in set(int(v) for v in vals):
            fp_docs[v].add(int(did))
    t1 = pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "n_grams": pa.array(rows["n_grams"], pa.int64()),
        "n_selected": pa.array(rows["n_selected"], pa.int64()),
        "fp_xor": pa.array(rows["fp_xor"], pa.uint64()),
        "fp_min": pa.array(rows["fp_min"], pa.uint64()),
        "fp_max": pa.array(rows["fp_max"], pa.uint64()),
    })
    pq.write_table(t1, os.path.join(OUT_DIR, "winnow_fingerprints_sf001.parquet"))
    print(f"winnow_fingerprints golden written ({len(ids)} docs)")

    cnt = defaultdict(int)
    for docs in fp_docs.values():
        if len(docs) < 2:
            continue
        for a, b in combinations(sorted(docs), 2):
            cnt[(a, b)] += 1
    keep = sorted((a, b, c) for (a, b), c in cnt.items()
                  if c >= min_shared)
    t2 = pa.table({
        "doc_a": pa.array([r[0] for r in keep], pa.int64()),
        "doc_b": pa.array([r[1] for r in keep], pa.int64()),
        "n_shared": pa.array([r[2] for r in keep], pa.int64()),
    })
    pq.write_table(t2, os.path.join(OUT_DIR, "winnow_dup_pairs_sf001.parquet"))
    sizes = sorted((len(d) for d in fp_docs.values()), reverse=True)
    print(f"winnow_dup_pairs golden written ({len(keep)} pairs; "
          f"largest fp bucket {sizes[0] if sizes else 0} docs)")


def ref_cdc_chunks(t, k=16, bbits=6):
    """Scalar content-defined chunking reference: per-gram Python loop
    over the scalar shingle hashes, chunks materialized as byte
    strings (the engine never materializes them — it hashes byte
    ranges).  Independent of functions/text.cdc_chunk_spans."""
    bs = (t or "").encode("utf-8")
    L = len(bs)
    mask = (1 << bbits) - 1
    cuts = []
    if L >= k:
        grams = ref_shingles(t, k)
        for i, h in enumerate(grams):
            if (int(h) & mask) == 0 and i + k < L:
                cuts.append(i + k)
    bounds = [0] + cuts + [L]
    return [bs[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def freeze_cdc_goldens(texts, k=16, bbits=6):
    """cdc_dedup_stats (corpus chunk-level dedup totals) from the
    scalar substring-materializing reference."""
    from collections import Counter

    counts = Counter()
    lengths = {}
    for t in texts:
        for c in ref_cdc_chunks(t, k, bbits):
            counts[c] += 1
            lengths[c] = len(c)
    n_total = sum(counts.values())
    n_distinct = len(counts)
    dup_chunks = sum(c - 1 for c in counts.values())
    dup_bytes = sum((c - 1) * lengths[ch] for ch, c in counts.items())
    t2 = pa.table({
        "n_chunks_total": pa.array([n_total], pa.int64()),
        "n_distinct": pa.array([n_distinct], pa.int64()),
        "dup_chunks": pa.array([dup_chunks], pa.int64()),
        "dup_bytes": pa.array([dup_bytes], pa.int64()),
    })
    pq.write_table(t2, os.path.join(OUT_DIR, "cdc_dedup_stats_sf001.parquet"))
    print(f"cdc_dedup_stats golden written ({n_total} chunks, "
          f"{n_distinct} distinct, {dup_bytes} dup bytes)")


def freeze_incremental_neardup(ids, texts, num_perm=64, bands=16, k=5,
                               threshold=0.5):
    """Golden for incremental_neardup_new: scalar per-doc MinHash +
    dict band buckets + scalar signature-agreement verify, fully
    independent of the engine's batch kernels and partitioned-index
    probe path.  Split/mutation mirrors the query: corpus = doc_id %%
    5 != 0; shard = doc_id %% 5 == 0, where doc_id %% 15 == 0 docs
    (donor doc_id+1 present) become near-dups of the donor (first word
    replaced by 'zz<doc_id>')."""
    import math

    by_id = dict(zip(ids.tolist(), texts))
    corpus = {d: t for d, t in by_id.items() if d % 5 != 0}
    shard = {}
    for d, t in by_id.items():
        if d % 5 != 0:
            continue
        if d % 15 == 0 and (d + 1) in by_id:
            dt = by_id[d + 1]
            shard[d] = "zz" + str(d) + (dt[dt.index(" "):]
                                        if " " in dt else "")
        else:
            shard[d] = t

    buckets: dict = {}
    sig_c = {}
    for d, t in corpus.items():
        sig = ref_minhash_sig(t, num_perm=num_perm, k=k)
        sig_c[d] = sig
        bh = ref_band_hashes(sig, bands=bands)
        for b in range(bands):
            buckets.setdefault((b, int(bh[b])), []).append(d)

    need = int(math.ceil(threshold * num_perm))
    out_id, out_nc, out_nm, out_dup = [], [], [], []
    for d in sorted(shard):
        sig = ref_minhash_sig(shard[d], num_perm=num_perm, k=k)
        bh = ref_band_hashes(sig, bands=bands)
        cands = set()
        for b in range(bands):
            cands.update(buckets.get((b, int(bh[b])), []))
        nm = sum(1 for c in cands
                 if int((sig == sig_c[c]).sum()) >= need)
        out_id.append(d)
        out_nc.append(len(cands))
        out_nm.append(nm)
        out_dup.append(1 if nm > 0 else 0)
    t = pa.table({
        "doc_id": pa.array(out_id, pa.int64()),
        "n_candidates": pa.array(out_nc, pa.int64()),
        "n_matched": pa.array(out_nm, pa.int64()),
        "is_dup": pa.array(out_dup, pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "incremental_neardup_sf001.parquet"))
    print(f"incremental_neardup golden written (scalar, {t.num_rows} rows,"
          f" {sum(out_dup)} dups)")


def freeze_cluster_hull_golden():
    """cluster_convex_hull: Jarvis gift-wrapping march (an algorithm
    independent of the engine's Andrew monotone chain) over the
    spatial-clusters golden labels; clusters with >= 3 distinct
    coordinates emit CCW hull vertices starting at the
    lexicographically smallest (lon, lat).  Collinear mid-points drop
    via the farthest-on-tie rule, the strict-turn counterpart the
    chain implements."""
    lbl = pq.read_table(os.path.join(OUT_DIR,
                                     "spatial_clusters_sf001.parquet"))
    df = lbl.to_pandas().drop_duplicates("pid")
    upid = df["pid"].to_numpy(np.int64)
    lon = ((upid * 104729) % 36000 - 18000) / 100.0
    lat = ((upid * 7919) % 16000 - 8000) / 100.0
    df = df.assign(lon=lon, lat=lat)

    def cross(o, a, b):
        return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])

    def d2(a, b):
        return (a[0]-b[0])**2 + (a[1]-b[1])**2

    def jarvis(P):
        start = P[0]
        hull, cur = [start], start
        while True:
            cand = None
            for q in P:
                if q == cur:
                    continue
                if cand is None:
                    cand = q
                    continue
                c = cross(cur, cand, q)
                if c < 0 or (c == 0.0 and d2(cur, q) > d2(cur, cand)):
                    cand = q
            if cand == start:
                break
            hull.append(cand)
            cur = cand
            assert len(hull) <= len(P)
        return hull

    out_c, out_o, out_x, out_y = [], [], [], []
    for cl, g in df.groupby("cluster"):
        P = sorted(set(zip(g["lon"], g["lat"])))
        if len(P) < 3:
            continue
        for i, (x, y) in enumerate(jarvis(P)):
            out_c.append(int(cl))
            out_o.append(i)
            out_x.append(x)
            out_y.append(y)
    t = pa.table({"cluster": pa.array(out_c, pa.int64()),
                  "ord": pa.array(out_o, pa.int64()),
                  "lon": pa.array(out_x, pa.float64()),
                  "lat": pa.array(out_y, pa.float64())})
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "cluster_hull_sf001.parquet"))
    print(f"cluster_convex_hull golden written (Jarvis, {t.num_rows} rows)")


def freeze_cluster_diameter_golden():
    """cluster_diameter: brute-force O(m^2) max squared planar
    distance over ALL distinct member coordinates per cluster (the
    engine reduces to hull vertices first — this golden is the
    convexity-reduction check), same >= 3-distinct-coords contract as
    the hull golden."""
    lbl = pq.read_table(os.path.join(OUT_DIR,
                                     "spatial_clusters_sf001.parquet"))
    df = lbl.to_pandas().drop_duplicates("pid")
    upid = df["pid"].to_numpy(np.int64)
    df = df.assign(lon=((upid * 104729) % 36000 - 18000) / 100.0,
                   lat=((upid * 7919) % 16000 - 8000) / 100.0)
    out_c, out_n, out_d = [], [], []
    for cl, g in df.groupby("cluster"):
        P = np.unique(np.stack([g["lon"].to_numpy(),
                                g["lat"].to_numpy()], axis=1), axis=0)
        if len(P) < 3:
            continue
        dx = P[:, None, 0] - P[None, :, 0]
        dy = P[:, None, 1] - P[None, :, 1]
        out_c.append(int(cl))
        out_n.append(len(P))
        out_d.append(float((dx * dx + dy * dy).max()))
    t = pa.table({"cluster": pa.array(out_c, pa.int64()),
                  "n_distinct": pa.array(out_n, pa.int64()),
                  "d2_deg": pa.array(out_d, pa.float64())})
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "cluster_diameter_sf001.parquet"))
    print(f"cluster_diameter golden written ({t.num_rows} rows)")


def freeze_hard_negatives_golden(k=10):
    """hard_negatives_topk: single-process numpy replica — cosine
    against queries vec_id 0..2, candidates restricted to label !=
    query label and vec_id != query id, ties broken by vec_id."""
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    vid = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lab = emb["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    M = np.array(emb["embedding"].to_pylist(), dtype=np.float32)
    order = np.argsort(vid)
    vid, lab, M = vid[order], lab[order], M[order]
    Q = M[:3]
    qlab = lab[:3]
    Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-30)
    norms = np.linalg.norm(M, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    sims = (M @ Qn.astype(np.float32).T) / norms[:, None]
    rows_q, rows_v, rows_r, rows_s = [], [], [], []
    for j in range(3):
        ok = (lab != qlab[j]) & (vid != vid[j])
        s = sims[:, j][ok]
        ids = vid[ok]
        sel = np.lexsort((ids, -s))[:k]
        for r, i in enumerate(sel):
            rows_q.append(j)
            rows_v.append(int(ids[i]))
            rows_r.append(r + 1)
            rows_s.append(float(np.float64(s[i])))
    t = pa.table({"qid": pa.array(rows_q, pa.int64()),
                  "vec_id": pa.array(rows_v, pa.int64()),
                  "rank": pa.array(rows_r, pa.int64()),
                  "sim": pa.array(rows_s, pa.float64())})
    pq.write_table(t, os.path.join(OUT_DIR,
                                   "hard_negatives_sf001.parquet"))
    print(f"hard_negatives golden written ({t.num_rows} rows)")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text"])
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = docs["text"].to_pylist()
    print(f"{len(texts)} documents from {SF_DIR}")

    freeze_winnow_goldens(ids, texts)
    freeze_cdc_goldens(texts)
    freeze_simhash_near_dups_golden(ids, texts)
    freeze_minhash_goldens(ids, texts)
    freeze_incremental_neardup(ids, texts)
    freeze_semdedup_golden()
    freeze_geod_golden()
    freeze_grid_goldens()
    freeze_knn_geodesic_golden()
    freeze_radius_geodesic_golden()
    freeze_spatial_clusters_golden()
    freeze_cluster_hull_golden()
    freeze_cluster_diameter_golden()
    freeze_hard_negatives_golden()
    freeze_ann_pq_golden()
    freeze_ann_ivfpq_golden()
    freeze_polygon_area_golden()
    freeze_traj_simplify_golden()


if __name__ == "__main__":
    main()
