"""Radius pair join: brute-force parity proving the 3x3 cell cover."""

import numpy as np
import pandas as pd
import pyarrow as pa

from proj_ray.kernels.geodesic import haversine
from proj_ray.pipelines.derive import lonlat_numpy


def _brute_pairs(pid, lon, lat, radius_m, chunk=512):
    parts = []
    for lo in range(0, pid.size, chunk):
        hi = min(lo + chunk, pid.size)
        d = haversine(lon[lo:hi, None], lat[lo:hi, None],
                      lon[None, :], lat[None, :])
        d = np.floor(d * 1.0e3 + 0.5) / 1.0e3
        keep = (pid[lo:hi, None] < pid[None, :]) & (d < radius_m)
        ii, jj = np.nonzero(keep)
        parts.append(pd.DataFrame({"pid_a": pid[lo + ii], "pid_b": pid[jj],
                                   "dist_m": d[ii, jj]}))
    return pd.concat(parts, ignore_index=True)


def test_radius_pair_join_matches_bruteforce(ray_session):
    """The replicated grid-bucket join equals the O(n^2) scan —
    including duplicate pids, the antimeridian wrap and the +-80 deg
    band edges (the derived lattice covers all three)."""
    import ray.data as rd

    from proj_ray.stages.pairjoin import radius_pair_join_stage

    rng = np.random.default_rng(23)
    # cluster pids so a decent number of pairs actually falls inside
    # 120 km; duplicates exercise the keyed-distinct finish
    pid = np.unique(rng.integers(0, 120000, 12000).astype(np.int64))
    pid = np.concatenate([pid, pid[: pid.size // 10]])  # dup 10%
    lon, lat = lonlat_numpy(pid)
    radius = 30000.0  # the radius the 3x3 cover is proved for

    ds = rd.from_arrow(pa.table({"pid": pa.array(pid, pa.int64()),
                                 "lon": pa.array(lon, pa.float64()),
                                 "lat": pa.array(lat, pa.float64())}))
    pairs = radius_pair_join_stage(ds.repartition(8), radius_m=radius)
    got = pairs.to_pandas()
    assert not got.duplicated(["pid_a", "pid_b"]).any()  # distinct by design
    got = got.sort_values(["pid_a", "pid_b"]).reset_index(drop=True)

    upid = np.unique(pid)
    ulon, ulat = lonlat_numpy(upid)
    exp = _brute_pairs(upid, ulon, ulat, radius)
    exp = exp.sort_values(["pid_a", "pid_b"]).reset_index(drop=True)
    assert len(exp) > 50  # non-degenerate fixture
    pd.testing.assert_frame_equal(
        got.astype({"pid_a": np.int64, "pid_b": np.int64}), exp)


def test_spatial_clusters_matches_fresh_union_find(ray_session):
    """Engine CC labels equal a freshly-computed brute-force union-find
    at sf0.001 (independent of the frozen golden); the CC kernel and
    the attach are tested on their own in test_cc."""
    from proj_ray.pipelines.queries import QUERIES

    li = pd.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber"])
    pid_rows = (li["l_orderkey"].to_numpy(np.int64) * 10
                + li["l_linenumber"].to_numpy(np.int64))
    upid = np.unique(pid_rows)
    lon, lat = lonlat_numpy(upid)
    parent = np.arange(upid.size, dtype=np.int64)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    exp_pairs = _brute_pairs(upid, lon, lat, 30000.0)
    order = {int(p): k for k, p in enumerate(upid)}
    for a, b in zip(exp_pairs["pid_a"], exp_pairs["pid_b"]):
        ra, rb = find(order[int(a)]), find(order[int(b)])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    lut = {int(p): int(upid[find(k)]) for k, p in enumerate(upid)}
    want = pd.DataFrame({"pid": pid_rows,
                         "cluster": [lut[int(p)] for p in pid_rows]})
    want = want.sort_values(["pid", "cluster"]).reset_index(drop=True)

    got = QUERIES["spatial_clusters"]["fn"]("/root/testdata/sf0.001")
    got = got.to_pandas().sort_values(["pid", "cluster"]).reset_index(drop=True)
    assert (want["cluster"] != want["pid"]).any()  # non-degenerate
    pd.testing.assert_frame_equal(
        got.astype({"pid": np.int64, "cluster": np.int64}), want)


def test_trajectory_length_edge_cases(ray_session):
    """Duplicate (order, line) rows collapse (sf0.001 lineitem carries
    real duplicates) and the int-mm sum equals a scalar per-segment
    loop."""
    from proj_ray.kernels.geodesic import haversine
    from proj_ray.pipelines.queries import QUERIES

    fn = QUERIES["trajectory_length"]["fn"]
    got = fn("/root/testdata/sf0.001").to_pandas()
    li = pd.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber"])
    li = li.drop_duplicates()
    want_rows = []
    for ok, g in li.groupby("l_orderkey"):
        ln = np.sort(g["l_linenumber"].to_numpy())
        pid = ok * 10 + ln.astype(np.int64)
        lon, lat = lonlat_numpy(pid)
        tot = 0
        for k in range(1, len(pid)):
            d = float(haversine(np.array([lon[k - 1]]), np.array([lat[k - 1]]),
                                np.array([lon[k]]), np.array([lat[k]]))[0])
            tot += int(np.floor(d * 1.0e3 + 0.5))
        want_rows.append((ok, len(pid), len(pid) - 1, tot))
    want = pd.DataFrame(want_rows, columns=["l_orderkey", "n_vertices",
                                            "n_segments", "total_mm"])
    key = ["l_orderkey"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({c: want[c].dtype for c in want.columns}), want)


def test_rect_overlap_join_matches_bruteforce(ray_session):
    """Reference-point grid join equals the O(nA*nB) scan — including
    negative coordinates, rects spanning many cells, touching edges
    (area 0) and containment."""
    import ray.data as rd

    from proj_ray.stages.pairjoin import rect_overlap_join_stage

    rng = np.random.default_rng(5)
    nA, nB = 400, 300
    def mk(n, base):
        cx = rng.integers(-2000, 32000, n)
        cy = rng.integers(-2000, 16000, n)
        w = rng.integers(0, 2500, n)   # up to multi-cell spans; 0-width
        h = rng.integers(0, 1800, n)
        return pd.DataFrame({"rid": np.arange(n, dtype=np.int64) + base,
                             "x0": cx - w, "x1": cx + w,
                             "y0": cy - h, "y1": cy + h})
    A, B = mk(nA, 0), mk(nB, 10_000)
    got = rect_overlap_join_stage(
        rd.from_pandas(A).repartition(4),
        rd.from_pandas(B).repartition(3)).to_pandas()
    assert not got.duplicated(["rid_a", "rid_b"]).any()  # exactly-once
    got = got.sort_values(["rid_a", "rid_b"]).reset_index(drop=True)

    ov = ((A["x0"].to_numpy()[:, None] <= B["x1"].to_numpy()[None, :])
          & (B["x0"].to_numpy()[None, :] <= A["x1"].to_numpy()[:, None])
          & (A["y0"].to_numpy()[:, None] <= B["y1"].to_numpy()[None, :])
          & (B["y0"].to_numpy()[None, :] <= A["y1"].to_numpy()[:, None]))
    ii, jj = np.nonzero(ov)
    area = ((np.minimum(A["x1"].to_numpy()[ii], B["x1"].to_numpy()[jj])
             - np.maximum(A["x0"].to_numpy()[ii], B["x0"].to_numpy()[jj]))
            * (np.minimum(A["y1"].to_numpy()[ii], B["y1"].to_numpy()[jj])
               - np.maximum(A["y0"].to_numpy()[ii], B["y0"].to_numpy()[jj])))
    want = pd.DataFrame({"rid_a": A["rid"].to_numpy()[ii],
                         "rid_b": B["rid"].to_numpy()[jj],
                         "overlap_area": area.astype(np.int64)})
    want = want.sort_values(["rid_a", "rid_b"]).reset_index(drop=True)
    assert (want["overlap_area"] == 0).any()  # touching edges present
    pd.testing.assert_frame_equal(
        got.astype({c: want[c].dtype for c in want.columns}), want)


def _empty_sf(path):
    """A scale-factor directory whose lineitem, orders, part, events and
    documents tables have zero rows (events and documents with their
    real schemas), and a DuckDB connection with a view over each."""
    import duckdb
    import pyarrow.parquet as pq

    empty = pa.array([], pa.int64())
    pq.write_table(pa.table({"l_orderkey": empty,
                             "l_linenumber": pa.array([], pa.int32())}),
                   str(path / "lineitem.parquet"))
    pq.write_table(pa.table({"o_orderkey": empty}),
                   str(path / "orders.parquet"))
    pq.write_table(pa.table({"p_partkey": empty}),
                   str(path / "part.parquet"))
    pq.write_table(pa.schema([("event_id", pa.int64()),
                              ("ts", pa.timestamp("us")),
                              ("user_id", pa.int64()),
                              ("event_type", pa.string()),
                              ("value", pa.float64()),
                              ("props", pa.string())]).empty_table(),
                   str(path / "events.parquet"))
    pq.write_table(pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string()),
                              ("lang", pa.string()),
                              ("source", pa.string()),
                              ("n_chars", pa.int64())]).empty_table(),
                   str(path / "documents.parquet"))
    con = duckdb.connect()
    for t in ("lineitem", "orders", "part", "events", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{path}/{t}.parquet'")
    return con


# queries whose oracle is a frozen golden of the sf0.01 answer
_GOLDEN_ORACLES = {"knn_s2_geodesic", "polygon_area_geodesic",
                   "geod_inverse_ellipsoidal", "traj_simplify_dp",
                   "knn_geodesic", "radius_geodesic", "cluster_convex_hull",
                   "cluster_diameter"}


def _assert_empty_like_oracle(path, con, names):
    from proj_ray.pipelines.queries import QUERIES

    for name in names:
        got = QUERIES[name]["fn"](str(path))
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        want = con.sql(QUERIES[name]["sql"]).fetchdf()
        if name in _GOLDEN_ORACLES:  # the golden holds the sf0.01 rows
            want = want.iloc[:0]
        assert len(want) == 0, name
        assert list(got.columns) == list(want.columns), name
        assert list(got.dtypes) == list(want.dtypes), name
        assert len(got) == 0, name


def test_grid_joins_empty_input_keep_oracle_schema(tmp_path, ray_session):
    """Zero-row inputs: radius_pair_join, rect_overlap_join and the
    per-cluster hull and diameter return their oracles' (empty) columns
    and dtypes, spatial_clusters an empty int64 (pid, cluster) frame."""
    from proj_ray.pipelines.queries import QUERIES

    con = _empty_sf(tmp_path)
    _assert_empty_like_oracle(tmp_path, con, (
        "radius_pair_join", "rect_overlap_join", "cluster_convex_hull",
        "cluster_diameter"))

    got = QUERIES["spatial_clusters"]["fn"](str(tmp_path)).to_pandas()
    want = pd.DataFrame({"pid": np.empty(0, np.int64),
                         "cluster": np.empty(0, np.int64)})
    pd.testing.assert_frame_equal(got, want)


def test_cell_and_knn_queries_empty_input_keep_oracle_schema(tmp_path,
                                                            ray_session):
    """Zero-row inputs: the kNN and radius queries, the shard-pruned
    bbox read, the cell aggregates and the raster queries return zero
    rows with their oracles' columns and dtypes (the golden-oracle
    queries: their golden's) instead of raising."""
    con = _empty_sf(tmp_path)
    _assert_empty_like_oracle(tmp_path, con, (
        "knn_points", "knn_s2_pruned", "knn_geodesic", "knn_s2_geodesic",
        "radius_geodesic", "s2_shard_bbox", "s2_cell_center",
        "salted_cell_agg",
        "geohash_cell_agg", "tile_pyramid_counts", "tile_agg", "s2_cell_agg",
        "hex_cell_agg", "zonal_stats", "raster_focal_mean", "raster_warp",
        "raster_polygonize"))


def test_point_queries_empty_input_keep_oracle_schema(tmp_path, ray_session):
    """Zero-row inputs: the per-point transform, tiling, PIP and geodesic
    queries, the per-order ring queries, the per-user trajectory
    simplification and the page geoparser return zero rows with their
    oracles' columns and dtypes (the golden-oracle queries: their
    golden's)."""
    con = _empty_sf(tmp_path)
    _assert_empty_like_oracle(tmp_path, con, (
        "points_webmerc", "points_utm", "points_lcc", "points_geocent",
        "helmert7_xyz", "webmerc_inverse", "tile_assign", "pip_join",
        "haversine_dist", "polygon_area_geodesic", "trajectory_length",
        "grid_shift_fwd", "catalog_datum_mix", "grid_shift_lla_compiled",
        "vertical_shift_gtx", "pm_shift_paris", "axis_units_km",
        "geod_line_interp", "geod_inverse_ellipsoidal", "traj_simplify_dp",
        "geoparse_extract"))


def _nonfinite_points():
    """Three points within 30 km of one another, one far away, and
    NaN / +-inf lanes on both coordinates (two of them next to the
    cluster)."""
    pid = np.arange(10, dtype=np.int64) * 3 + 5
    lon = np.array([10.0, 10.1, 10.2, 50.0, np.nan, 10.05, np.inf,
                    -np.inf, 10.0, np.nan])
    lat = np.array([40.0, 40.05, 40.1, -20.0, 40.0, np.nan, 40.0,
                    np.inf, -np.inf, np.nan])
    return pid, lon, lat


def test_grid_joins_skip_nonfinite_lanes(ray_session):
    """Points with a NaN or inf coordinate are not replicated, pair with
    nothing and keep their own pid as their cluster; the finite points
    join as usual.  The block kernels raise no numpy warning."""
    import warnings

    import ray.data as rd

    from proj_ray.stages import pairjoin
    from proj_ray.stages.cc import attach_clusters

    pid, lon, lat = _nonfinite_points()
    tbl = pa.table({"pid": pa.array(pid, pa.int64()),
                    "lon": pa.array(lon, pa.float64()),
                    "lat": pa.array(lat, pa.float64())})
    finite = np.isfinite(lon) & np.isfinite(lat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = pairjoin._replicate(tbl)
        assert set(reps["pid"].to_pylist()) == set(pid[finite].tolist())
        a, b, _ = (np.concatenate(c) for c in
                   zip(*pairjoin._radius_pairs(reps, 30000.0)))
    assert sorted(zip(a.tolist(), b.tolist())) == [(5, 8), (5, 11), (8, 11)]

    ds = rd.from_arrow(tbl)
    pairs = pairjoin.radius_pair_join_stage(ds, 30000.0).to_pandas()
    assert sorted(zip(pairs["pid_a"], pairs["pid_b"])) == [(5, 8), (5, 11),
                                                           (8, 11)]
    edges = pairjoin.radius_spanning_edges_stage(ds, 30000.0)
    got = attach_clusters(ds, edges).to_pandas()
    got = dict(zip(got["pid"], got["cluster"]))
    want = {p: (5 if p in (5, 8, 11) else p) for p in pid.tolist()}
    assert got == want
