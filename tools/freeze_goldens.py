#!/usr/bin/env python
"""Freeze golden tables for deterministic non-SQL-expressible queries.

The driver's correctness gate compares queries() against oracle_sql()
at sf=0.01.  Queries whose computation ANSI SQL cannot express
(Karney geodesics, real-NTv2 grid shifts, geodesic kNN/radius search,
geodesic polygon area, spatial clusters and their hulls, trajectory
simplification) are gated against frozen parquet goldens under
proj_ray/data/goldens/, which the oracle SQL reads via
``SELECT ... FROM read_parquet(...)``.

PROVENANCE — every golden here is generated by an implementation
INDEPENDENT of the distributed engine path it gates:

- geod_inverse_ellipsoidal: per-point scalar Karney port
  (tools/scalar_ref.py; paper-value-validated in
  tests/test_scalar_ref.py) vs the masked-vectorized kernel.
- grid_shift_real / grid_shift_real_inv: per-point scalar NTv2
  reader + bilinear + fixed-point inverse (tools/scalar_ref.py) vs
  the engine's vectorized reader/kernels and fused Transform.

Regenerate only if the driver's testdata generation changes:
    python tools/freeze_goldens.py
"""

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


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    freeze_geod_golden()
    freeze_grid_goldens()
    freeze_knn_geodesic_golden()
    freeze_radius_geodesic_golden()
    freeze_spatial_clusters_golden()
    freeze_cluster_hull_golden()
    freeze_cluster_diameter_golden()
    freeze_polygon_area_golden()
    freeze_traj_simplify_golden()


if __name__ == "__main__":
    main()
