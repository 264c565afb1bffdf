"""kNN stage: top-k nearest stream points to a small broadcast query set.

Pattern: the query side is tiny (a handful of probe points / vectors),
so kNN is a broadcast + per-batch PARTIAL top-k + bounded associative
reduce — no shuffle of the point stream:

  1. each batch computes distances of its points to all queries
     (vectorized (B,Q) matrix) and keeps only its local top-k per query
  2. an intermediate map_batches top-k level re-reduces candidate
     blocks (associative: the comparator (d, id) is a total order), so
     the driver concatenates at most k*Q*ceil(#cand/reduce_batch) rows
     instead of k*Q*#blocks
  3. one final reduce yields the global top-k

Metrics:

- ``planar`` — squared-euclidean in the lon/lat columns;
  deterministic identical IEEE arithmetic, so ranks match a SQL oracle
  exactly (ties broken by id).  Output (qid, id, rank, d2).
- ``geodesic`` — TRUE ellipsoidal distance via the Karney order-6
  inverse (kernels.geodesic.geod_inverse, the reference's
  src/geodesic.c:944), computed vectorized per batch per query.  This
  is the north star's "refine with Karney geodesic distance" leg made
  exact: the metric itself is geodesic, not a planar prefilter with a
  recall gap.  Output (qid, id, rank, s12_mm) — integer millimetres
  (ranking uses the full f64 distance; ids break ties).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..kernels.geodesic import WGS84_A, WGS84_F, geod_inverse

# certificate bounds MUST use the same ellipsoid as geod_inverse
_E2 = WGS84_F * (2.0 - WGS84_F)
_B_MIN = WGS84_A * (1.0 - WGS84_F)          # semi-minor axis
_M_MIN = WGS84_A * (1.0 - _E2)              # min meridional curvature radius

_CAND_SCHEMA = pa.schema([("qj", pa.int64()), ("id", pa.int64()),
                          ("d", pa.float64())])


def _topk_per_query(qj, ids, d, k):
    """Vectorized per-query top-k by the total order (d, id): one
    lexsort, then the first k rows of each qj segment."""
    if qj.size == 0:
        return qj, ids, d
    order = np.lexsort((ids, d, qj))
    qs, idss, ds = qj[order], ids[order], d[order]
    starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
    seg = np.diff(np.r_[starts, len(qs)])
    within = np.arange(len(qs)) - np.repeat(starts, seg)
    keep = within < k
    return qs[keep], idss[keep], ds[keep]


def _reduce_candidates(t: pa.Table, k: int) -> pa.Table:
    qj = t["qj"].to_numpy(zero_copy_only=False)
    ids = t["id"].to_numpy(zero_copy_only=False)
    d = t["d"].to_numpy(zero_copy_only=False)
    qs, idss, ds = _topk_per_query(qj, ids, d, k)
    return pa.table({"qj": pa.array(qs, pa.int64()),
                     "id": pa.array(idss, pa.int64()),
                     "d": pa.array(ds, pa.float64())})


def knn_topk(ds, queries, k=5, metric="planar"):
    """``queries`` = [(qid, qlon, qlat), ...] (small); ``ds`` has the
    point columns ``pid``, ``lon`` and ``lat``. Returns a pyarrow Table
    with rank 1..k per query by (distance, pid as ``id``):
    (qid, id, rank, d2) for ``metric="planar"``,
    (qid, id, rank, s12_mm) for ``metric="geodesic"``.  Points with a
    non-finite lon or lat are never neighbours."""
    if metric not in ("planar", "geodesic"):
        raise ValueError(f"unknown metric {metric!r}")
    q = np.asarray([[ql, qa] for _, ql, qa in queries],
                   dtype=np.float64).reshape(-1, 2)
    qids = [qid for qid, _, _ in queries]
    nq = len(qids)

    def partial(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        ids = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        ok = np.isfinite(lon) & np.isfinite(lat)
        if not ok.all():
            lon, lat, ids = lon[ok], lat[ok], ids[ok]
        n = lon.size
        if metric == "planar":
            dl = lon[:, None] - q[None, :, 0]
            dp = lat[:, None] - q[None, :, 1]
            dmat = dl * dl + dp * dp  # (B, Q)
        else:
            dmat = np.empty((n, nq), dtype=np.float64)
            for j in range(nq):
                s12, _, _, _ = geod_inverse(
                    lon, lat, np.full(n, q[j, 0]), np.full(n, q[j, 1]))
                dmat[:, j] = s12
        qj = np.repeat(np.arange(nq, dtype=np.int64), n)
        qs, idss, dsel = _topk_per_query(qj, np.tile(ids, nq),
                                         dmat.T.reshape(-1), k)
        return pa.table({"qj": pa.array(qs, pa.int64()),
                         "id": pa.array(idss, pa.int64()),
                         "d": pa.array(dsel, pa.float64())})

    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)
    # associative intermediate reduce bounds the driver concat
    red = cand.map_batches(lambda t: _reduce_candidates(t, k),
                           batch_format="pyarrow", batch_size=1 << 18)
    chunks = list(red.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    tbl = pa.concat_tables(chunks) if chunks else _CAND_SCHEMA.empty_table()
    final = _reduce_candidates(tbl, k)
    qj = final["qj"].to_numpy()
    ids = final["id"].to_numpy()
    d = final["d"].to_numpy()
    # finalize: map qj -> qid, compute 1-based ranks per segment
    if len(qj):
        starts = np.flatnonzero(np.r_[True, qj[1:] != qj[:-1]])
        seg = np.diff(np.r_[starts, len(qj)])
        rank = np.arange(len(qj)) - np.repeat(starts, seg) + 1
    else:
        rank = np.array([], dtype=np.int64)
    qid_arr = np.asarray(qids, dtype=np.int64)[qj] if len(qj) else np.array([], dtype=np.int64)
    cols = {"qid": pa.array(qid_arr, pa.int64()),
            "id": pa.array(ids, pa.int64()),
            "rank": pa.array(rank.astype(np.int64), pa.int64())}
    if metric == "planar":
        cols["d2"] = pa.array(d, pa.float64())
    else:
        cols["s12_mm"] = pa.array(np.floor(d * 1e3 + 0.5).astype(np.int64),
                                  pa.int64())
    return pa.table(cols)


def geodesic_box_lb(qx, qy, lon0, lon1, lat0, lat1):
    """Lower bound (metres) on the WGS84 ellipsoidal geodesic distance
    from the query point (qx, qy) — inside the closed box
    [lon0,lon1]x[lat0,lat1] — to ANY point on the ellipsoid outside it.

    Any surface path from q to an outside point crosses the box
    boundary at some point c, and s(q, p) >= s(q, c); c lies on a
    latitude edge or on a longitude edge, each of which admits a
    closed-form bound:

    - latitude edge (geodetic lat = latE): the metric is
      ds^2 = M(phi)^2 dphi^2 + (N cos phi)^2 dlam^2 >= M_min^2 dphi^2
      with M_min = a(1-e^2) (the meridional curvature radius is
      minimal at the equator), so s(q, c) >= M_min * |qy - latE| rad.
    - longitude edge (meridian half-plane lam = lonE): every point of
      the ellipsoid lies outside the closed ball of radius b, and
      nearest-point projection onto a convex ball is 1-Lipschitz, so
      radially projecting a surface path onto the b-sphere never
      lengthens it; endpoints project to their GEOCENTRIC directions.
      Hence s(q, c) >= b * angle(q_hat, c_hat), and the angular
      distance from q_hat to the full meridian great circle of lonE is
      asin(cos(phi_c) * |sin(qx - lonE)|) with phi_c the geocentric
      latitude of q (tan phi_c = (1-e^2) tan qy).

    Edges clamped away (lat edge at +-90, or the box spanning all 360
    degrees of longitude) contribute no constraint; with no edges at
    all the read was a full scan and the bound is +inf.  Used by
    knn_s2_certified(metric="geodesic") to certify that a shard-pruned
    top-k equals the full-scan answer: unread points are outside the
    box, so their distance is >= this bound.
    """
    bounds = []
    if lat0 > -90.0:
        bounds.append(_M_MIN * math.radians(qy - lat0))
    if lat1 < 90.0:
        bounds.append(_M_MIN * math.radians(lat1 - qy))
    if not (lon0 <= -180.0 and lon1 >= 180.0):
        phic = math.atan((1.0 - _E2) * math.tan(math.radians(qy)))
        s_edge = min(abs(math.sin(math.radians(qx - lon0))),
                     abs(math.sin(math.radians(qx - lon1))))
        bounds.append(_B_MIN * math.asin(math.cos(phic) * s_edge))
    return min(bounds) if bounds else math.inf


def _geocentric_lat(lat_deg):
    return math.atan((1.0 - _E2) * math.tan(math.radians(lat_deg)))


def geodesic_radius_box(qx, qy, radius_m):
    """Exact-superset lon/lat box for a geodesic radius query: EVERY
    point of the WGS84 ellipsoid within ``radius_m`` of (qx, qy) lies
    inside the returned box.  Returns (dlat_deg, dlon_deg) half-widths;
    dlon_deg is None when no longitude bound is safe (query or band too
    close to a pole, or the radius wraps) — read the full lon range.

    - latitude: ds >= M_min |dphi| (minimum meridional curvature
      radius), so s <= R implies |dlat| <= R / M_min.
    - longitude: s >= b * angle(q_hat, p_hat) (1-Lipschitz radial
      projection onto the b-sphere, see geodesic_box_lb), and the
      angle from q_hat to p's meridian circle is
      asin(cos(phi_c_q) |sin dlam|); hence s <= R implies
      |sin dlam| <= sin(R/b) / cos(phi_c_q).  This bounds |dlam| only
      on [0, 90deg] (sin is not monotonic past 90), so points with
      |dlam| > 90deg must be excluded separately: there
      cos(angle) = sin(pc_q) sin(pc_p) + cos(pc_q) cos(pc_p) cos(dlam)
      <= sin(pc_q) sin(pc_p) <= sin^2(pc_max) over the latitude band,
      so when sin^2(pc_max) <= cos(R/b) every such point is >= R away
      and the asin bound is a true superset.  When that guard (or
      sin(R/b) < cos(phi_c_q)) fails, fall back to the full range.
    """
    dlat = math.degrees(radius_m / _M_MIN)
    lat_lo = max(qy - dlat, -90.0)
    lat_hi = min(qy + dlat, 90.0)
    rb = radius_m / _B_MIN
    if rb >= math.pi / 2:
        return dlat, None
    pc_max = max(abs(_geocentric_lat(lat_lo)), abs(_geocentric_lat(lat_hi)))
    if math.sin(pc_max) ** 2 > math.cos(rb):
        return dlat, None
    t = math.sin(rb) / math.cos(_geocentric_lat(qy))
    if t >= 1.0:
        return dlat, None
    return dlat, math.degrees(math.asin(t))
