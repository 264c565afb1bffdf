"""Round-5 session-17 operators: convex hulls, cluster diameter,
geohash cells and the tile pyramid."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# convex_hull_ccw kernel + cluster_convex_hull invariants at sf0.001
# ---------------------------------------------------------------------------

def test_convex_hull_kernel_properties():
    from proj_ray.kernels.hull import _cross, convex_hull_ccw

    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(3, 60))
        pts = (np.round(rng.uniform(-5, 5, (n, 2)), 2) if trial % 2
               else rng.normal(size=(n, 2)))
        h = convex_hull_ccw(pts[:, 0], pts[:, 1])
        if len(h) < 3:
            continue
        # CCW with strict turns at every corner
        m = len(h)
        for i in range(m):
            o, a, b = h[i], h[(i + 1) % m], h[(i + 2) % m]
            assert _cross(o[0], o[1], a[0], a[1], b[0], b[1]) > 0
        # every input point inside or on the hull (left of every edge)
        for px, py in pts:
            assert all(_cross(h[i][0], h[i][1],
                              h[(i + 1) % m][0], h[(i + 1) % m][1],
                              px, py) >= -1e-9 for i in range(m))
        # starts at the lexicographically smallest vertex
        assert tuple(h[0]) == min(map(tuple, h))


def test_convex_hull_degenerate_inputs():
    from proj_ray.kernels.hull import convex_hull_ccw

    # all collinear: the 2-vertex extent segment
    x = np.array([0.0, 1.0, 2.0, 3.0])
    h = convex_hull_ccw(x, 2 * x)
    assert h.tolist() == [[0.0, 0.0], [3.0, 6.0]]
    # fewer than 3 distinct points: passthrough sorted
    h = convex_hull_ccw(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert h.tolist() == [[1.0, 2.0]]


def test_cluster_convex_hull_empty_sf_keeps_schema(ray_session):
    # sf0.001 has no cluster with >= 3 distinct coords: typed empty out
    from proj_ray.pipelines.queries import cluster_convex_hull

    hull = cluster_convex_hull(SF)
    assert len(hull) == 0
    assert list(hull.columns) == ["cluster", "ord", "lon", "lat"]


def test_cluster_convex_hull_contains_members(ray_session):
    from proj_ray.kernels.hull import _cross
    from proj_ray.pipelines.queries import (cluster_convex_hull,
                                            lonlat_numpy, spatial_clusters)

    sf01 = "/root/testdata/sf0.01"
    hull = cluster_convex_hull(sf01)
    assert len(hull) > 0
    lbl = spatial_clusters(sf01)
    if not isinstance(lbl, pd.DataFrame):
        lbl = lbl.to_pandas()
    lbl = lbl.drop_duplicates("pid")
    lon, lat = lonlat_numpy(lbl["pid"].to_numpy(np.int64))
    lbl = lbl.assign(lon=lon, lat=lat)
    for cl, h in list(hull.groupby("cluster"))[:50]:
        hx = h.sort_values("ord")[["lon", "lat"]].to_numpy()
        m = len(hx)
        if m < 3:
            continue
        mem = lbl[lbl.cluster == cl]
        for px, py in mem[["lon", "lat"]].to_numpy():
            assert all(_cross(hx[i][0], hx[i][1],
                              hx[(i + 1) % m][0], hx[(i + 1) % m][1],
                              px, py) >= -1e-9 for i in range(m)), cl


# ---------------------------------------------------------------------------
# cluster_diameter: hull reduction == brute force; empty-SF schema
# ---------------------------------------------------------------------------

def test_diameter_hull_reduction_equals_bruteforce():
    from proj_ray.kernels.hull import convex_hull_ccw

    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(3, 80))
        P = (np.round(rng.uniform(-3, 3, (n, 2)), 2) if trial % 2
             else rng.normal(size=(n, 2)))
        P = np.unique(P, axis=0)
        if len(P) < 3:
            continue
        dx = P[:, None, 0] - P[None, :, 0]
        dy = P[:, None, 1] - P[None, :, 1]
        brute = (dx * dx + dy * dy).max()
        h = convex_hull_ccw(P[:, 0], P[:, 1])
        hx = h[:, None, 0] - h[None, :, 0]
        hy = h[:, None, 1] - h[None, :, 1]
        assert (hx * hx + hy * hy).max() == brute


def test_cluster_diameter_empty_sf_keeps_schema(ray_session):
    from proj_ray.pipelines.queries import cluster_diameter

    out = cluster_diameter(SF)
    assert len(out) == 0
    assert list(out.columns) == ["cluster", "n_distinct", "d2_deg"]


# ---------------------------------------------------------------------------
# geohash_cell_agg: oracle parity + reference geohash encoding check
# ---------------------------------------------------------------------------

def _ref_geohash(lon, lat, nchars):
    # textbook bisection geohash (independent of the bit-interleave
    # implementation): alternate lon/lat halvings, 5 bits per char
    alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
    lo_x, hi_x, lo_y, hi_y = -180.0, 180.0, -90.0, 90.0
    bits, even, out, ch = 0, True, "", 0
    nbits = 0
    while len(out) < nchars:
        if even:
            mid = (lo_x + hi_x) / 2
            bit = lon >= mid
            lo_x, hi_x = (mid, hi_x) if bit else (lo_x, mid)
        else:
            mid = (lo_y + hi_y) / 2
            bit = lat >= mid
            lo_y, hi_y = (mid, hi_y) if bit else (lo_y, mid)
        ch = (ch << 1) | int(bit)
        nbits += 1
        even = not even
        if nbits == 5:
            out += alpha[ch]
            ch, nbits = 0, 0
    return out


def test_geohash_cell_agg_oracle_and_reference(ray_session):
    from proj_ray.pipelines.queries import geohash_cell_agg, lonlat_numpy
    import pyarrow.parquet as pq

    got = geohash_cell_agg(SF).reset_index(drop=True)
    want = _orc_tables(["lineitem"], "geohash_cell_agg")
    assert got["gh4"].tolist() == want["gh4"].tolist()
    for c in ["n_points", "min_pid"]:
        assert np.array_equal(got[c].to_numpy(np.int64),
                              want[c].to_numpy(np.int64)), c
    # the 20-bit prefix equals the textbook bisection geohash's first
    # 4 chars for every aggregated cell's min_pid representative
    lon, lat = lonlat_numpy(got["min_pid"].to_numpy(np.int64))
    for g, x, y in zip(got["gh4"], lon, lat):
        assert g == _ref_geohash(float(x), float(y), 4)


def _orc_tables(tables, name):
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    from proj_ray.pipelines.queries import QUERIES
    return con.sql(QUERIES[name]["sql"]).fetchdf()


# ---------------------------------------------------------------------------
# tile_pyramid_counts: pyramid consistency invariants
# ---------------------------------------------------------------------------

def test_tile_pyramid_consistency(ray_session):
    import pyarrow.parquet as pq
    from proj_ray.pipelines.queries import (_PYR_ZMAX, _PYR_ZMIN,
                                            tile_pyramid_counts)

    out = tile_pyramid_counts(SF)
    li = pq.read_table(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    total = li.num_rows
    for z in range(_PYR_ZMIN, _PYR_ZMAX + 1):
        lvl = out[out.z == z]
        assert int(lvl.n_points.sum()) == total, z
    # every parent equals the sum of its <= 4 children
    for z in range(_PYR_ZMIN, _PYR_ZMAX):
        par = out[out.z == z].set_index(["tx", "ty"]).n_points
        ch = out[out.z == z + 1].copy()
        roll = (ch.assign(tx=ch.tx // 2, ty=ch.ty // 2)
                .groupby(["tx", "ty"]).n_points.sum())
        assert par.sort_index().equals(roll.sort_index()), z
