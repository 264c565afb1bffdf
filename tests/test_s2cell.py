"""S2 cell index: vectorized kernel vs scalar Python-int reference,
self-consistency (roundtrips, containment, Hilbert adjacency), and the
oracle-determinism pin (numpy vs DuckDB trig bit-equality on the
synthetic centidegree domain), then the shard-pruned kNN and radius
readers over the resumable Hilbert shard layout, on Ray.  The per-block
cell assignment is gated end-to-end by the s2_cell_agg / s2_cell_center
driver queries."""

import os

import numpy as np
import pytest

from proj_ray.kernels import s2cell as s2
from tools.scalar_ref import s2_cell_id_scalar, s2_center_scalar


def _write_shards(df, idx):
    """Write the level-3 Hilbert shard layout of ``df`` (pid, lon, lat)
    to ``idx`` through the resumable writer, as one fragment."""
    import pyarrow as pa

    from proj_ray.stages.s2_stage import s2_shard_write_resumable

    table = pa.Table.from_pandas(df, preserve_index=False)
    assert s2_shard_write_resumable([(0, "df")], lambda _: table, idx,
                                    shard_level=3) == (1, 0)


def _grid_points(n, seed=3):
    rng = np.random.default_rng(seed)
    lon = rng.integers(-18000, 18000, n).astype(np.float64) / 100.0
    lat = rng.integers(-8000, 8000, n).astype(np.float64) / 100.0
    return lon, lat


# poles, date line, face-tie directions (|x|=|y|, |y|=|z|, corners)
_SPECIAL = np.array([
    (0.0, 90.0), (0.0, -90.0), (180.0, 0.0), (-180.0, 0.0),
    (179.999999, 45.0), (-179.999999, -45.0),
    (45.0, 0.0), (-45.0, 0.0), (135.0, 0.0), (-135.0, 0.0),
    (0.0, 45.0), (0.0, -45.0), (90.0, 45.0),
    (45.0, 35.26438968275465),   # (1,1,1)/sqrt(3) corner direction
    (0.0, 0.0), (1e-14, -1e-14),
])


def test_scalar_parity_bitwise():
    lon, lat = _grid_points(3000)
    lon = np.concatenate([lon, _SPECIAL[:, 0]])
    lat = np.concatenate([lat, _SPECIAL[:, 1]])
    for level in (30, 17, 7, 1, 0):
        vec = s2.cell_id_from_lonlat(lon, lat, level)
        sc = np.array([s2_cell_id_scalar(a, b, level)
                       for a, b in zip(lon, lat)], dtype=np.uint64)
        assert (vec == sc).all(), level


def test_nonfinite_lanes_get_id_zero():
    """NaN and +-inf in lon or lat give id 0 (CellId::None) at every
    level, with no RuntimeWarning, and the finite lanes of the same
    batch keep their scalar-reference ids bit-for-bit."""
    import warnings

    lon, lat = _grid_points(300, seed=9)
    bad_lon = np.array([np.nan, np.inf, -np.inf, 0.0, 10.0, np.nan])
    bad_lat = np.array([0.0, 10.0, 45.0, np.nan, -np.inf, np.inf])
    perm = np.random.default_rng(2).permutation(len(lon) + len(bad_lon))
    lon = np.concatenate([lon, bad_lon])[perm]
    lat = np.concatenate([lat, bad_lat])[perm]
    fin = np.isfinite(lon) & np.isfinite(lat)
    assert (~fin).sum() == len(bad_lon)
    for level in (30, 17, 7, 0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ids = s2.cell_id_from_lonlat(lon, lat, level)
        assert ids.dtype == np.uint64
        assert (ids[~fin] == 0).all(), level
        sc = np.array([s2_cell_id_scalar(a, b, level)
                       for a, b in zip(lon[fin], lat[fin])], dtype=np.uint64)
        assert (ids[fin] == sc).all(), level
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert s2.cell_id_from_lonlat(np.nan, 0.0) == 0


def test_near_zero_components_all_faces():
    """A batch on all six faces whose off-axis components are tiny (down
    to subnormal) raises no overflow, divide or invalid flag, and keeps
    the scalar reference's ids.  Each face's (u, v) divides only its own
    lanes, by their major component.  Underflow stays ignored: lon/lat ->
    xyz itself rounds these components into the subnormal range."""
    tiny = (0.0, 1e-310, -1e-310, 1e-300, -1e-14)
    lon, lat = [], []
    for clon in (0.0, 90.0, 180.0, -90.0):
        for a in tiny:
            for b in tiny:
                lon.append(clon + a)
                lat.append(b)
    for clat in (90.0, -90.0, 89.999999999, -89.999999999):
        for a in tiny:
            lon.append(a)
            lat.append(clat)
    lon, lat = np.array(lon), np.array(lat)
    with np.errstate(all="raise", under="ignore"):
        face, _, _ = s2.xyz_to_face_uv(*s2.lonlat_to_xyz(lon, lat))
        ids = s2.cell_id_from_lonlat(lon, lat)
    assert set(face.tolist()) == set(range(6))
    sc = np.array([s2_cell_id_scalar(a, b) for a, b in zip(lon, lat)],
                  dtype=np.uint64)
    assert (ids == sc).all()


def test_center_scalar_parity_and_roundtrip():
    lon, lat = _grid_points(1500, seed=11)
    leaf = s2.cell_id_from_lonlat(lon, lat)
    for level in (30, 23, 9, 4, 0):
        ids = s2.id_at_level(leaf, level) if level < 30 else leaf
        assert (s2.level_of(ids) == level).all()
        clon, clat = s2.cell_center_lonlat(ids)
        # re-encoding the exact center at the same level returns the id
        assert (s2.cell_id_from_lonlat(clon, clat, level) == ids).all()
        sc = np.array([s2_center_scalar(int(c)) for c in ids])
        np.testing.assert_allclose(clon, sc[:, 0], atol=1e-12)
        np.testing.assert_allclose(clat, sc[:, 1], atol=1e-12)


def test_hilbert_roundtrip_and_adjacency():
    rng = np.random.default_rng(5)
    f = rng.integers(0, 6, 4000).astype(np.uint64)
    i = rng.integers(0, 1 << 30, 4000).astype(np.uint64)
    j = rng.integers(0, 1 << 30, 4000).astype(np.uint64)
    pos = s2.hilbert_pos(f, i, j)
    i2, j2 = s2.hilbert_ij(f, pos)
    assert (i2 == i).all() and (j2 == j).all()
    # consecutive curve positions are 4-adjacent cells on every face —
    # the locality property that makes range-partitioning by id a
    # spatial shard key
    for face in range(6):
        seq = np.arange(4096, dtype=np.uint64) << np.uint64(2 * (30 - 6))
        ii, jj = s2.hilbert_ij(np.full(4096, face, np.uint64), seq)
        ii >>= np.uint64(24)
        jj >>= np.uint64(24)
        step = (np.abs(np.diff(ii.astype(np.int64)))
                + np.abs(np.diff(jj.astype(np.int64))))
        assert step.max() == 1


def test_containment_and_range():
    lon, lat = _grid_points(2000, seed=17)
    leaf = s2.cell_id_from_lonlat(lon, lat)
    for level in (2, 9, 16, 29):
        ids = s2.id_at_level(leaf, level)
        lo, hi = s2.cell_range(ids)
        assert ((leaf >= lo) & (leaf <= hi)).all()
        # parent at a coarser level contains the child's whole interval
        par = s2.id_at_level(ids, level - 2)
        plo, phi = s2.cell_range(par)
        assert ((lo >= plo) & (hi <= phi)).all()


def test_int64_view_parent_arithmetic():
    """The SQL oracle coarsens on the int64 bit-pattern view with
    two's-complement & / |; must equal the uint64 kernel arithmetic,
    including faces 4-5 where the int64 view is negative."""
    lon = np.array([-170.0, -100.0, 10.0, 100.0, 170.0, 0.0])
    lat = np.array([-70.0, -10.0, 5.0, 10.0, 70.0, -89.0])
    leaf = s2.cell_id_from_lonlat(lon, lat)
    assert (leaf.view(np.int64) < 0).any()  # negative-view faces hit
    for level in (3, 11, 21):
        want = s2.id_at_level(leaf, level)
        lsb = 1 << (2 * (30 - level))
        got = np.array([(int(v) & -lsb) | lsb
                        for v in leaf.view(np.int64)], dtype=np.int64)
        assert (got.view(np.uint64) == want).all()


def test_duckdb_trig_bit_parity():
    """Oracle-determinism pin: DuckDB's cos/sin/pi agree bit-for-bit
    with numpy's over the full centidegree domain the synthetic points
    live on — the only transcendental step in the s2_cell_agg oracle;
    everything after is order-matched IEEE arithmetic."""
    duckdb = pytest.importorskip("duckdb")
    import pyarrow as pa

    con = duckdb.connect()
    assert con.execute("SELECT pi()").fetchone()[0] == np.pi
    for vals in (np.arange(-18000, 18000, dtype=np.float64) / 100.0,
                 np.arange(-8000, 8000, dtype=np.float64) / 100.0):
        rad = vals * (np.pi / 180.0)
        con.register("t", pa.table({"v": vals}))
        got = con.execute(
            "SELECT cos(v * (pi()/180.0)) AS c, sin(v * (pi()/180.0)) AS s"
            " FROM t").fetchnumpy()
        con.unregister("t")
        assert (np.cos(rad).view(np.uint64) == got["c"].view(np.uint64)).all()
        assert (np.sin(rad).view(np.uint64) == got["s"].view(np.uint64)).all()


def test_bbox_covering_no_miss():
    """The shard-pruning contract: bbox_covering is an exact SUPERSET —
    the level-L cell of any point inside the bbox is always in the
    covering (randomized boxes incl. pole caps, antimeridian-adjacent
    strips, face corners and degenerate slivers)."""
    rng = np.random.default_rng(123)
    boxes = [(-180.0, 180.0, -90.0, 90.0), (170.0, 180.0, 80.0, 90.0),
             (-180.0, -170.0, -90.0, -80.0), (-1.0, 1.0, 89.0, 90.0),
             (44.0, 46.0, 34.0, 36.0), (-180.0, 180.0, -0.01, 0.01)]
    for _ in range(40):
        lon0 = rng.uniform(-180, 179)
        lon1 = min(180.0, lon0 + rng.uniform(0.01, 200))
        lat0 = rng.uniform(-90, 89)
        lat1 = min(90.0, lat0 + rng.uniform(0.01, 100))
        boxes.append((lon0, lon1, lat0, lat1))
    for lon0, lon1, lat0, lat1 in boxes:
        level = int(rng.integers(1, 9))
        cover = set(s2.bbox_covering(lon0, lon1, lat0, lat1, level).tolist())
        lon = rng.uniform(lon0, lon1, 3000)
        lat = rng.uniform(lat0, lat1, 3000)
        # edges + corners
        lon = np.concatenate([lon, [lon0, lon1, lon0, lon1],
                              rng.uniform(lon0, lon1, 40),
                              [lon0] * 40, [lon1] * 40])
        lat = np.concatenate([lat, [lat0, lat0, lat1, lat1],
                              [lat0] * 40, rng.uniform(lat0, lat1, 40),
                              [lat1] * 40])
        ids = s2.id_at_level(s2.cell_id_from_lonlat(lon, lat), level)
        missing = [int(i) for i in np.unique(ids) if int(i) not in cover]
        assert not missing, (lon0, lon1, lat0, lat1, level, missing[:3])


def test_bbox_covering_empty_and_tight():
    assert len(s2.bbox_covering(10.0, 5.0, 0.0, 1.0, 4)) == 0  # inverted
    # a sliver well inside one face covers a handful of cells, not a face
    c = s2.bbox_covering(10.0, 10.1, 10.0, 10.1, 6)
    assert 1 <= len(c) <= 9
    full = s2.bbox_covering(-180.0, 180.0, -90.0, 90.0, 2)
    assert len(full) == 6 * 4 ** 2  # whole sphere at level 2


def test_pip_polar_cap_matches_scalar_pnpoly():
    """PIP join equals the scalar even-odd reference on a polar-cap
    polygon (the one the ±85°-clamped Web-Mercator cells cannot index)
    plus 85.5-90° stress points (no Ray: the actor class is callable on
    a plain Arrow table)."""
    import pyarrow as pa

    from proj_ray.stages.pip_stage import PIPJoinActor
    from tests.test_kernels import scalar_pip_rows

    polys = [
        ("cap_n", [(-180.0, 86.0), (-60.0, 86.0), (60.0, 86.0),
                   (180.0, 86.0), (180.0, 90.0), (-180.0, 90.0)]),
        ("box_eu", [(-10.0, 35.0), (30.0, 35.0), (30.0, 60.0),
                    (-10.0, 60.0)]),
        ("box_pac", [(150.0, -20.0), (179.0, -20.0), (179.0, 20.0),
                     (150.0, 20.0)]),
    ]
    rng = np.random.default_rng(9)
    lon = np.concatenate([rng.uniform(-180, 180, 4000),
                          rng.uniform(-180, 180, 500)])
    lat = np.concatenate([rng.uniform(-90, 90, 4000),
                          rng.uniform(85.5, 90, 500)])  # polar stress
    t = pa.table({"pid": pa.array(np.arange(len(lon)), pa.int64()),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    out = PIPJoinActor(polys, id_cols=("pid",))(t)
    got = sorted(zip(out["pid"].to_pylist(), out["polygon_id"].to_pylist()))
    assert any(pid == "cap_n" for _, pid in got)
    assert got == scalar_pip_rows(polys, lon, lat)


def test_knn_s2_certified_forced_doubling(tmp_path, ray_session):
    """The radius-doubling certificate: starting from a radius far too
    small (several doublings forced), the pruned kNN still returns
    exactly the brute-force top-k with the (d2, id) tie-break."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.pipelines.queries import knn_s2_certified
    from proj_ray.stages.knn_stage import knn_topk

    rng = np.random.default_rng(31)
    n = 20000
    df = pd.DataFrame({"pid": np.arange(n, dtype=np.int64),
                       "lon": rng.uniform(-180, 180, n),
                       "lat": rng.uniform(-90, 90, n)})
    idx = str(tmp_path / "shards")
    _write_shards(df, idx)
    queries = [(0, -100.0, 40.0), (1, 0.0, 0.0), (2, 179.5, 88.0),
               (3, -180.0, -90.0)]
    got = knn_s2_certified(idx, queries, k=5, shard_level=3,
                           r0=0.05).to_pandas()
    want = knn_topk(rd.from_pandas(df), queries, k=5).to_pandas()
    key = ["qid", "rank"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.equals(want)


def test_geodesic_box_lb_is_a_true_lower_bound():
    """Property: for random query points and boxes, EVERY point outside
    the box has Karney distance >= geodesic_box_lb — including
    polar-adjacent boxes, clamped edges, and anti-meridian neighbours."""
    from proj_ray.kernels.geodesic import geod_inverse
    from proj_ray.stages.knn_stage import geodesic_box_lb

    rng = np.random.default_rng(7)
    n = 4000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    cases = [(-100.0, 40.0, 3.0), (0.0, 0.0, 0.5), (179.0, 88.0, 5.0),
             (-179.5, -40.0, 2.0), (10.0, 50.0, 0.05), (120.0, -89.0, 1.0),
             (0.0, 89.9, 10.0), (-60.0, 10.0, 170.0)]
    for qx, qy, r in cases:
        lon0, lon1 = max(qx - r, -180.0), min(qx + r, 180.0)
        lat0, lat1 = max(qy - r, -90.0), min(qy + r, 90.0)
        lb = geodesic_box_lb(qx, qy, lon0, lon1, lat0, lat1)
        outside = ~((lon >= lon0) & (lon <= lon1)
                    & (lat >= lat0) & (lat <= lat1))
        if not outside.any():
            continue
        s12, _, _, _ = geod_inverse(lon[outside], lat[outside],
                                    np.full(outside.sum(), qx),
                                    np.full(outside.sum(), qy))
        assert float(s12.min()) >= lb - 1e-6, (qx, qy, r, s12.min(), lb)


def test_knn_geodesic_pruned_matches_brute_force(tmp_path, ray_session):
    """Geodesic-metric certified pruned kNN == brute-force geodesic
    kNN, with several forced radius doublings and polar/anti-meridian
    queries (where geodesic_box_lb degrades to a full-domain read)."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.pipelines.queries import knn_s2_certified
    from proj_ray.stages.knn_stage import knn_topk

    rng = np.random.default_rng(97)
    n = 20000
    df = pd.DataFrame({"pid": np.arange(n, dtype=np.int64),
                       "lon": rng.uniform(-180, 180, n),
                       "lat": rng.uniform(-90, 90, n)})
    idx = str(tmp_path / "gshards")
    _write_shards(df, idx)
    queries = [(0, -100.0, 40.0), (1, 0.0, 0.0), (2, 179.5, 88.0),
               (3, -180.0, -90.0)]
    got = knn_s2_certified(idx, queries, k=5, shard_level=3, r0=0.05,
                           metric="geodesic").to_pandas()
    want = knn_topk(rd.from_pandas(df), queries, k=5,
                    metric="geodesic").to_pandas()
    key = ["qid", "rank"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.equals(want)
    assert (want["s12_mm"] > 0).all()


def test_knn_geodesic_matches_scalar_karney(ray_session):
    """Engine geodesic kNN over a small stream == per-point scalar
    Karney port + plain sort (independent implementation)."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.knn_stage import knn_topk
    from tools.scalar_ref import karney_inverse_scalar

    rng = np.random.default_rng(11)
    n = 800
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-85, 85, n)
    pid = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"pid": pid, "lon": lon, "lat": lat})
    queries = [(0, 12.5, 41.9), (1, -70.0, -33.4)]
    got = knn_topk(rd.from_pandas(df), queries, k=7,
                   metric="geodesic").to_pandas()
    for qid, qx, qy in queries:
        dist = [karney_inverse_scalar(lon[i], lat[i], qx, qy)[0]
                for i in range(n)]
        order = sorted(range(n), key=lambda i: (dist[i], i))[:7]
        sub = got[got["qid"] == qid].sort_values("rank")
        assert sub["id"].tolist() == [int(i) for i in order]
        want_mm = [int(np.floor(dist[i] * 1e3 + 0.5)) for i in order]
        assert sub["s12_mm"].tolist() == want_mm


def test_knn_non_finite_lanes_and_zero_queries(ray_session):
    """Lanes with a NaN or +-inf lon or lat are never neighbours under
    either metric: ranks run 1..n_finite when k exceeds it, and the rows
    equal the run on the finite lanes alone.  Zero queries give an
    empty table with the metric's schema."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.knn_stage import knn_topk

    lon = np.array([0.0, 1.0, np.nan, np.inf, 2.0, -np.inf, 3.0, 1.0])
    lat = np.array([0.0, np.nan, 0.0, 0.0, 1.0, 5.0, np.inf, -2.0])
    df = pd.DataFrame({"pid": np.arange(lon.size, dtype=np.int64),
                       "lon": lon, "lat": lat})
    finite = np.isfinite(lon) & np.isfinite(lat)
    n_finite = int(finite.sum())
    queries = [(7, 0.0, 0.0), (8, 10.0, -5.0)]
    for metric, dcol in (("planar", "d2"), ("geodesic", "s12_mm")):
        got = knn_topk(rd.from_pandas(df), queries, k=n_finite + 2,
                       metric=metric)
        want = knn_topk(rd.from_pandas(df[finite].reset_index(drop=True)),
                        queries, k=n_finite + 2, metric=metric)
        g = got.to_pandas()
        assert set(g["id"]) <= set(np.flatnonzero(finite).tolist())
        for qid, _, _ in queries:
            ranks = g.loc[g["qid"] == qid, "rank"].tolist()
            assert ranks == list(range(1, n_finite + 1))
        assert g.equals(want.to_pandas())
        empty = knn_topk(rd.from_pandas(df), [], k=3, metric=metric)
        assert empty.num_rows == 0
        assert empty.column_names == ["qid", "id", "rank", dcol]
        assert empty.schema == got.schema


def test_geodesic_radius_box_is_exact_superset():
    """Property: every point within R Karney metres of q lies inside
    the (dlat, dlon) box from geodesic_radius_box — across equatorial,
    mid-lat, polar-adjacent and anti-meridian queries and radii from
    10 km to 3000 km."""
    from proj_ray.kernels.geodesic import geod_inverse
    from proj_ray.stages.knn_stage import geodesic_radius_box

    rng = np.random.default_rng(23)
    n = 6000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    cases = [(-100.0, 40.0, 3e5), (0.0, 0.0, 1e4), (179.5, 60.0, 5e5),
             (-179.9, -10.0, 3e5), (20.0, 85.0, 3e5), (0.0, 89.5, 1e5),
             (50.0, -40.0, 3e6)]
    for qx, qy, r in cases:
        dlat, dlon = geodesic_radius_box(qx, qy, r)
        s12, _, _, _ = geod_inverse(lon, lat, np.full(n, qx), np.full(n, qy))
        inside_r = s12 <= r
        in_lat = np.abs(lat - qy) <= dlat
        assert in_lat[inside_r].all(), (qx, qy, r, "lat bound violated")
        if dlon is not None:
            dl = np.abs((lon - qx + 180.0) % 360.0 - 180.0)
            assert (dl[inside_r] <= dlon + 1e-9).all(), \
                (qx, qy, r, "lon bound violated")


def test_radius_search_pruned_matches_brute_force(tmp_path, ray_session):
    """Pruned geodesic radius search == brute-force Karney filter,
    including an anti-meridian site (two disjoint lon boxes, shard
    sets unioned) and a polar site (lon bound degrades to full range)."""
    import pandas as pd

    from proj_ray.kernels.geodesic import geod_inverse
    from proj_ray.pipelines.queries import radius_search_geodesic

    rng = np.random.default_rng(41)
    n = 20000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    pid = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"pid": pid, "lon": lon, "lat": lat})
    idx = str(tmp_path / "radshards")
    _write_shards(df, idx)
    queries = [(0, -100.0, 40.0), (1, 179.8, 20.0), (2, 10.0, 89.0),
               (3, -180.0, -60.0)]
    R = 800_000.0
    got = radius_search_geodesic(idx, queries, R, shard_level=3).to_pandas()
    got = got.sort_values(["qid", "id"]).reset_index(drop=True)
    rows = {"qid": [], "id": [], "s12_mm": []}
    for qid, qx, qy in queries:
        s12, _, _, _ = geod_inverse(lon, lat, np.full(n, qx), np.full(n, qy))
        m = s12 <= R
        rows["qid"].extend([qid] * int(m.sum()))
        rows["id"].extend(pid[m].tolist())
        rows["s12_mm"].extend(np.floor(s12[m] * 1e3 + 0.5).astype(np.int64).tolist())
    import pandas as pd2
    want = pd2.DataFrame(rows).sort_values(["qid", "id"]).reset_index(drop=True)
    assert len(want) > 0 and all(want.groupby("qid").size() > 0)
    assert got.astype("int64").equals(want.astype("int64"))


@pytest.mark.parametrize("case", ["empty", "no_shard", "every_shard"])
def test_s2_shard_bbox_degenerate_coverings(case, tmp_path, ray_session):
    """s2_shard_bbox returns its oracle's rows (the full-scan bbox
    filter) when the point table is empty, when the bbox covering
    touches none of the written shards, and when it touches all of
    them."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from proj_ray.pipelines.derive import lonlat_numpy, pid_numpy
    from proj_ray.pipelines.queries import (QUERIES, _S2_BBOX,
                                            _S2_SHARD_LEVEL, s2_shard_bbox)

    ok = np.arange(1, 100_000, dtype=np.int64)
    ln = np.ones_like(ok)
    lon, lat = lonlat_numpy(pid_numpy(ok, ln))
    shard = s2.id_at_level(s2.cell_id_from_lonlat(lon, lat),
                           _S2_SHARD_LEVEL).view(np.int64)
    cover = s2.bbox_covering(*_S2_BBOX, _S2_SHARD_LEVEL).view(np.int64)
    covered = np.isin(shard, cover)
    keep = {"empty": np.zeros(len(ok), bool),
            "no_shard": ~covered,
            "every_shard": covered}[case]
    keep &= np.cumsum(keep) <= 200
    pq.write_table(pa.table({"l_orderkey": ok[keep],
                             "l_linenumber": ln[keep].astype(np.int32)}),
                   str(tmp_path / "lineitem.parquet"))

    got = s2_shard_bbox(str(tmp_path))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM "
            f"'{tmp_path}/lineitem.parquet'")
    want = con.sql(QUERIES["s2_shard_bbox"]["sql"]).fetchdf()
    want = want.sort_values("pid").reset_index(drop=True)
    assert list(got.dtypes) == list(want.dtypes)
    assert got.equals(want)
    if case == "every_shard":
        # covered shards also hold points outside the bbox
        assert 0 < len(want) < keep.sum()
    else:
        assert len(want) == 0


def test_s2_index_layout_sf001(tmp_path, ray_session, sf_dir):
    """The shard-pruned queries' index over sf0.01 holds one file per
    (lineitem part file, level-3 shard) — at most 384 per part file; a
    second build runs no unit (the manifest is unchanged); and the
    per-process root it lives in is removed when the interpreter
    exits."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from proj_ray.pipelines.derive import lonlat_numpy, pid_numpy
    from proj_ray.pipelines.queries import (_S2_SHARD_LEVEL, _process_root,
                                            _s2_index_dir)
    from proj_ray.sources import part_units

    sf = os.path.join(os.path.dirname(sf_dir), "sf0.01")
    d = _s2_index_dir(sf)
    assert os.path.dirname(d) == _process_root()
    files = sorted(os.path.relpath(os.path.join(r, f), d)
                   for r, _, fs in os.walk(d) for f in fs
                   if f.endswith(".parquet"))
    want = []
    for stem, path in part_units(sf, "lineitem"):
        t = pq.read_table(path, columns=["l_orderkey", "l_linenumber"])
        lon, lat = lonlat_numpy(pid_numpy(t["l_orderkey"].to_numpy(),
                                          t["l_linenumber"].to_numpy()))
        shards = np.unique(s2.id_at_level(s2.cell_id_from_lonlat(lon, lat),
                                          _S2_SHARD_LEVEL).view(np.int64))
        assert shards.size <= 6 * 4 ** _S2_SHARD_LEVEL
        want += [f"s2_shard={c}/part-{stem}.parquet" for c in shards.tolist()]
    assert files == sorted(want)

    manifest = open(os.path.join(d, "_manifest.jsonl")).read()
    assert _s2_index_dir(sf) == d
    assert open(os.path.join(d, "_manifest.jsonl")).read() == manifest

    code = ("from proj_ray.pipelines.queries import _process_root; "
            "d = _process_root(); open(d + '/x', 'w').close(); print(d)")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    child = out.stdout.strip()
    assert os.path.dirname(child) == str(tmp_path)
    assert not os.path.exists(child)
