"""Unit tests for pure NumPy kernels (no Ray): math helpers, grids,
tiling, point-in-polygon, geodesics."""

import numpy as np
import pytest

from proj_ray.kernels import common as C
from proj_ray.kernels import geodesic as G
from proj_ray.kernels import pip as P
from proj_ray.kernels import tiling as T
from proj_ray.kernels.grid import (
    ShiftGrid,
    apply_gridshift,
    gridlist_from_nadgrids,
    nad_cvt,
    read_ctable2,
    write_ctable2,
)


def test_adjlon():
    assert C.adjlon(np.array([0.0]))[0] == 0.0
    np.testing.assert_allclose(C.adjlon(np.array([3 * np.pi]))[0], -np.pi, atol=1e-12)
    np.testing.assert_allclose(C.adjlon(np.array([-3.5 * np.pi]))[0], 0.5 * np.pi, atol=1e-12)
    # within the truncated SPI fast path: untouched
    v = 3.14159265358
    assert C.adjlon(np.array([v]))[0] == v


def test_phi2_inverts_tsfn():
    e = 0.081819190842622  # WGS84
    phi = np.linspace(-1.4, 1.4, 101)
    ts = C.tsfn(phi, np.sin(phi), e)
    back = C.phi2(ts, e)
    np.testing.assert_allclose(back, phi, atol=2e-10)


def test_mlfn_roundtrip():
    es = 0.0066943799901413165
    en = C.enfn(es)
    phi = np.linspace(-1.5, 1.5, 101)
    ml = C.mlfn(phi, np.sin(phi), np.cos(phi), en)
    back = C.inv_mlfn(ml, es, en)
    np.testing.assert_allclose(back, phi, atol=1e-10)


def _count_up(sizes):
    """A step that adds ``inc`` each pass and settles a lane once its
    value reaches ``stop``; records how many lanes each pass ran."""
    def step(x, stop, inc):
        sizes.append(x.size)
        x = x + inc
        return x, x >= stop
    return step


def test_iterate_lanes_settles_each_lane_on_its_own_pass():
    sizes = []
    x = np.array([0.0, 0.0, 10.0, 0.0, np.nan, 0.0])
    stop = np.array([1.0, 3.0, 0.0, 99.0, 1.0, 2.0])
    active = np.array([True, True, False, True, False, True])
    out, ok = C.iterate_lanes(_count_up(sizes), x, (stop, 1.0), 4, active)
    assert out is x
    # lanes 0/5/1 stop after passes 1/2/3 with that pass's value; lane 3
    # runs out of passes and keeps its last iterate; lane 2 (inactive)
    # and lane 4 (NaN, inactive) are untouched
    np.testing.assert_array_equal(out, [1.0, 3.0, 10.0, 4.0, np.nan, 2.0])
    np.testing.assert_array_equal(ok, [True, True, False, False, False, True])
    assert sizes == [4, 3, 2, 1]  # settled lanes leave the loop


def test_iterate_lanes_tuple_state_zero_lanes_and_no_gather():
    seen = []

    def step(a, b, k):
        seen.append((a, b))
        return (a + k, b * 2.0), a + k > 1.5

    a, b = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    (a2, b2), ok = C.iterate_lanes(step, (a, b), (1.0,), 5, np.ones(2, dtype=bool))
    assert seen[0][0] is a and seen[0][1] is b  # every lane runs: no gather
    np.testing.assert_array_equal(a2, [2.0, 2.0])
    np.testing.assert_array_equal(b2, [4.0, 2.0])
    assert ok.all()
    sizes = []
    out, ok = C.iterate_lanes(_count_up(sizes), np.empty(0), (np.empty(0), 1.0), 3,
                              np.zeros(0, dtype=bool))
    assert out.shape == ok.shape == (0,) and sizes == []


def _synth_grid(grid_id="SYNTH_A", ll=(-80.0, 37.0), delta=0.25, n=(25, 17), amp=1e-5):
    """FIXTURES.md §3: smooth deterministic shift field, radians."""
    d2r = np.pi / 180.0
    nlam, nphi = n
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    cvs[..., 0] = amp * np.sin(ii * 0.3) * np.cos(jj * 0.2)
    cvs[..., 1] = amp * np.cos(ii * 0.25) * np.sin(jj * 0.15)
    return ShiftGrid(grid_id, (ll[0] * d2r, ll[1] * d2r), (delta * d2r, delta * d2r),
                     (nlam, nphi), cvs)


def test_grid_forward_inverse_roundtrip():
    g = _synth_grid()
    d2r = np.pi / 180.0
    rng = np.random.default_rng(7)
    lam = rng.uniform(-79.5, -75.0, 500) * d2r
    phi = rng.uniform(37.5, 40.5, 500) * d2r
    fl, fp = nad_cvt(lam, phi, g, inverse=False)
    assert np.isfinite(fl).all()
    bl, bp = nad_cvt(fl, fp, g, inverse=True)
    # inverse converges to 1e-12 rad (src/nad_cvt.c:3-4)
    np.testing.assert_allclose(bl, lam, atol=1e-11)
    np.testing.assert_allclose(bp, phi, atol=1e-11)


def test_grid_first_match_priority_and_optional():
    d2r = np.pi / 180.0
    g1 = _synth_grid("A", ll=(-80.0, 37.0), amp=1e-5)
    g2 = _synth_grid("B", ll=(-80.0, 37.0), amp=5e-5)
    lam = np.array([-78.0 * d2r])
    phi = np.array([38.0 * d2r])
    l12, _ = apply_gridshift([g1, g2], False, lam, phi)
    l21, _ = apply_gridshift([g2, g1], False, lam, phi)
    l1, _ = apply_gridshift([g1], False, lam, phi)
    l2, _ = apply_gridshift([g2], False, lam, phi)
    assert l12[0] == l1[0] and l21[0] == l2[0] and l1[0] != l2[0]
    # point outside all grids passes through unshifted
    lam_out = np.array([100.0 * d2r])
    lo, _ = apply_gridshift([g1, g2], False, lam_out, np.array([0.0]))
    assert lo[0] == lam_out[0]
    # @optional missing grid skipped; missing required raises
    gl = gridlist_from_nadgrids("@missing,null", loader=lambda name: None)
    assert len(gl) == 1 and gl[0].id == "null"
    try:
        gridlist_from_nadgrids("missing", loader=lambda name: None)
        assert False, "expected FileNotFoundError"
    except FileNotFoundError:
        pass


def test_grid_subgrid_descent():
    d2r = np.pi / 180.0
    parent = _synth_grid("P", ll=(-80.0, 37.0), delta=0.25, amp=1e-5)
    child = _synth_grid("C", ll=(-79.0, 38.0), delta=0.05, n=(21, 21), amp=3e-5)
    parent.children = [child]
    inside_child = (np.array([-78.7 * d2r]), np.array([38.3 * d2r]))
    outside_child = (np.array([-76.0 * d2r]), np.array([37.5 * d2r]))
    lc, _ = apply_gridshift([parent], False, *inside_child)
    lc_only, _ = apply_gridshift([child], False, *inside_child)
    assert lc[0] == lc_only[0]
    lp, _ = apply_gridshift([parent], False, *outside_child)
    pno = ShiftGrid("P", parent.ll, parent.delta, parent.lim, parent.cvs)
    lp_only, _ = apply_gridshift([pno], False, *outside_child)
    assert lp[0] == lp_only[0]


def test_ctable2_roundtrip(tmp_path):
    g = _synth_grid()
    path = str(tmp_path / "synth.ct2")
    write_ctable2(path, g)
    g2 = read_ctable2(path)
    assert g2.id == g.id and g2.lim == g.lim
    np.testing.assert_array_equal(g2.cvs, g.cvs)


def test_null_grid_noop():
    g = ShiftGrid.null_grid()
    lam = np.array([0.5, -2.0])
    phi = np.array([0.3, 1.0])
    lo, po = apply_gridshift([g], False, lam, phi)
    np.testing.assert_array_equal(lo, lam)
    np.testing.assert_array_equal(po, phi)


def test_tiling_basics():
    # zoom 1: quadrants
    cid = T.cell_id(np.array([-90.0, 90.0, -90.0, 90.0]),
                    np.array([45.0, 45.0, -45.0, -45.0]), 1)
    assert list(cid) == [0, 1, 2, 3]
    # determinism + parent nesting
    rng = np.random.default_rng(3)
    lon = rng.uniform(-180, 180, 1000)
    lat = rng.uniform(-85, 85, 1000)
    c10 = T.cell_id(lon, lat, 10)
    c7 = T.cell_id(lon, lat, 7)
    np.testing.assert_array_equal(T.parent_cell(c10, 10, 7), c7)
    # invalid points
    assert T.cell_id(np.array([0.0]), np.array([89.0]), 5)[0] == -1


def scalar_pnpoly(ring, x, y):
    """Independent scalar even-odd test: the closed bbox prefilter, then
    pnpoly's strict comparisons edge by edge (src/PJ_healpix.c:103-138)."""
    xs = [v[0] for v in ring]
    ys = [v[1] for v in ring]
    if not (min(xs) <= x <= max(xs) and min(ys) <= y <= max(ys)):
        return False
    inside = False
    j = len(ring) - 1
    for i in range(len(ring)):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > y) != (yj > y):
            if x < (xj - xi) * (y - yi) / (yj - yi) + xi:
                inside = not inside
        j = i
    return inside


def scalar_pip_rows(polys, lon, lat):
    """Every (point index, polygon_id) pair the scalar test accepts, sorted."""
    return sorted((k, pid) for pid, ring in polys
                  for k, (x, y) in enumerate(zip(lon, lat))
                  if scalar_pnpoly(ring, x, y))


def _contains(ring, px, py):
    pt, _ = P.PolygonSet([("p", ring)]).join(px, py)
    mask = np.zeros(len(px), dtype=bool)
    mask[pt] = True
    return mask


def test_pip_square_and_concave():
    sq = [(0, 0), (10, 0), (10, 10), (0, 10)]
    px = np.array([5.0, 15.0, -1.0, 9.999])
    py = np.array([5.0, 5.0, 5.0, 9.999])
    np.testing.assert_array_equal(_contains(sq, px, py), [True, False, False, True])
    # concave (C-shape)
    cc = [(0, 0), (10, 0), (10, 10), (0, 10), (0, 7), (7, 7), (7, 3), (0, 3)]
    assert not _contains(cc, np.array([3.0]), np.array([5.0]))[0]  # in the notch
    assert _contains(cc, np.array([8.5]), np.array([5.0]))[0]
    # all-matches join over overlapping polygons
    a = ("a", [(0, 0), (4, 0), (4, 4), (0, 4)])
    b = ("b", [(2, 2), (8, 2), (8, 8), (2, 8)])
    pts, pls = P.PolygonSet([a, b]).join(np.array([3.0, 5.0, 9.0]), np.array([3.0, 5.0, 9.0]))
    assert list(zip(pts.tolist(), pls.tolist())) == [(0, 0), (0, 1), (1, 1)]


def test_pip_matches_scalar_oracle():
    """Engine PIP vs an independent scalar even-odd implementation —
    the north rule's exact-join-rows check in miniature."""
    ring = [(0, 0), (6, 1), (10, 5), (5, 9), (1, 6)]
    rng = np.random.default_rng(11)
    px = rng.uniform(-2, 12, 2000)
    py = rng.uniform(-2, 12, 2000)
    expected = np.array([scalar_pnpoly(ring, x, y) for x, y in zip(px, py)])
    np.testing.assert_array_equal(_contains(ring, px, py), expected)


def test_geodesic():
    # along the equator the geodesic is the equator: s = a * dlon
    s, a1, a2, ok = G.geod_inverse(np.array([0.0]), np.array([0.0]),
                                   np.array([1.0]), np.array([0.0]))
    np.testing.assert_allclose(s[0], 6378137.0 * np.pi / 180.0, atol=1e-3)
    assert ok[0] and abs(a1[0] - 90.0) < 1e-9
    # coincident
    s0, _, _, _ = G.geod_inverse(np.array([5.0]), np.array([5.0]),
                                 np.array([5.0]), np.array([5.0]))
    assert s0[0] == 0.0
    # direct o inverse ~ id
    rng = np.random.default_rng(5)
    lon1 = rng.uniform(-170, 170, 50)
    lat1 = rng.uniform(-80, 80, 50)
    lon2 = lon1 + rng.uniform(-5, 5, 50)
    lat2 = lat1 + rng.uniform(-5, 5, 50)
    s, azi1, _, ok = G.geod_inverse(lon1, lat1, lon2, lat2)
    assert ok.all()
    lo, la, _ = G.geod_direct(lon1, lat1, azi1, s)
    np.testing.assert_allclose(lo, lon2, atol=1e-8)
    np.testing.assert_allclose(la, lat2, atol=1e-8)
    # haversine sanity: within 0.6% of ellipsoidal for mid-latitudes
    h = G.haversine(lon1, lat1, lon2, lat2)
    assert (np.abs(h - s) / np.maximum(s, 1.0) < 0.006).all()


def test_factors_known_values():
    """Scale factors: merc k = sec(phi)-like (ellipsoidal), UTM k0 at CM,
    stere polar conformal h == k."""
    from proj_ray.crs import CRS
    from proj_ray.kernels.factors import factors

    # spherical merc: h = k = 1/cos(phi)
    P = CRS("+proj=merc +ellps=sphere")
    f = factors(P, np.array([0.0, 10.0]), np.array([0.0, 45.0]))
    np.testing.assert_allclose(f["k"], 1.0 / np.cos(np.radians([0.0, 45.0])), rtol=1e-5)
    np.testing.assert_allclose(f["h"], f["k"], rtol=1e-5)   # conformal
    np.testing.assert_allclose(f["omega"], 0.0, atol=1e-4)  # no angular distortion
    # UTM: k = 0.9996 on the central meridian
    P2 = CRS("+proj=utm +zone=33 +datum=WGS84")
    f2 = factors(P2, np.array([15.0]), np.array([45.0]))
    np.testing.assert_allclose(f2["k"][0], 0.9996, rtol=1e-6)
    np.testing.assert_allclose(f2["conv"][0], 0.0, atol=1e-6)  # no convergence on CM
    # convergence magnitude off-CM: |gamma| = atan(tan(dlam) sin(phi))
    f3 = factors(P2, np.array([18.0]), np.array([45.0]))
    expect = np.arctan(np.tan(np.radians(3.0)) * np.sin(np.radians(45.0)))
    np.testing.assert_allclose(abs(f3["conv"][0]), expect, rtol=1e-3)
    # equal-area projection: areal scale s == 1 everywhere
    P4 = CRS("+proj=cea +ellps=sphere")
    f4 = factors(P4, np.array([20.0, -50.0]), np.array([15.0, 60.0]))
    np.testing.assert_allclose(f4["s"], 1.0, rtol=1e-5)


def test_grid_catalog_asof_mix():
    """Dated catalog: linear mix between before/after grids by date
    (pj_gridcatalog.c:102-230), date=0 => after only."""
    from proj_ray.kernels.gridcatalog import CatalogEntry, GridCatalog, parse_catalog_date

    assert parse_catalog_date("2000-02-01") == 2000 + 31 / 372.0
    assert parse_catalog_date("1997.5") == 1997.5

    d2r = np.pi / 180.0
    # two constant-shift grids at dates 2000 and 2010
    def const_grid(gid, shift):
        cvs = np.zeros((5, 5, 2), dtype=np.float32)
        cvs[..., 0] = shift
        return ShiftGrid(gid, (-10 * d2r, -10 * d2r), (5 * d2r, 5 * d2r), (5, 5), cvs)

    region = (-10 * d2r, -10 * d2r, 10 * d2r, 10 * d2r)
    cat = GridCatalog([
        CatalogEntry(const_grid("G2000", 1e-5), region, 2000.0),
        CatalogEntry(const_grid("G2010", 3e-5), region, 2010.0),
    ])
    lam = np.array([0.0])
    phi = np.array([0.0])
    # date 2005 => halfway mix: shift = -(2e-5) on lam (fwd subtracts)
    lo, _, _ = cat.apply(2005.0, False, lam, phi)
    np.testing.assert_allclose(lo[0], -2e-5, atol=1e-10)
    # date 0 => pure after (first entry with date >= 0 is G2000)
    lo0, _, _ = cat.apply(0.0, False, lam, phi)
    np.testing.assert_allclose(lo0[0], -1e-5, atol=1e-10)
    # point outside all regions passes through
    lo2, _, _ = cat.apply(2005.0, False, np.array([2.0]), np.array([0.0]))
    assert lo2[0] == 2.0


def test_grid_catalog_csv_reader(tmp_path):
    """read_catalog_csv (pj_gc_reader.c): title line discarded, comments
    and blanks skipped, dmstor corners, priority/date columns optional,
    read stops at the first short line."""
    from proj_ray.kernels.gridcatalog import read_catalog_csv

    d2r = np.pi / 180.0

    def const_grid(gid, shift):
        cvs = np.zeros((5, 5, 2), dtype=np.float32)
        cvs[..., 0] = shift
        return ShiftGrid(gid, (-10 * d2r, -10 * d2r), (5 * d2r, 5 * d2r), (5, 5), cvs)

    grids = {"g2000.gsb": const_grid("G2000", 1e-5),
             "g2010.gsb": const_grid("G2010", 3e-5)}
    csv = tmp_path / "catalog.csv"
    csv.write_text(
        "gridname,ll_long,ll_lat,ur_long,ur_lat,priority,date\n"
        "# a comment line\n"
        "\n"
        "g2000.gsb,-10,-10,10,10,0,2000.0\n"
        "g2010.gsb,-10d0'0\",-10,10,10,1,2010-01-01\n"
        "short,line\n"
        "g2000.gsb,-10,-10,10,10,0,2020.0\n")  # after short line: ignored
    cat = read_catalog_csv(str(csv), lambda name: grids[name])
    assert len(cat.entries) == 2  # the short line terminates the read
    assert cat.entries[0].date == 2000.0
    assert cat.entries[1].date == 2010.0  # 2010-01-01 -> 2010.0
    assert cat.entries[1].priority == 1
    np.testing.assert_allclose(cat.entries[1].region[0], -10 * d2r, rtol=1e-12)
    # behaves identically to the code-constructed catalog
    lo, _, _ = cat.apply(2005.0, False, np.array([0.0]), np.array([0.0]))
    np.testing.assert_allclose(lo[0], -2e-5, atol=1e-10)


def test_init_file_reader(tmp_path, monkeypatch):
    """Keyed init files (pj_init.c get_init/get_opt): <key> ... <>,
    multi-line definitions, # comments; PROJ_LIB lookup wins over the
    curated EPSG subset; args before +init win over file params."""
    from proj_ray.crs import CRS, read_init_file

    f = tmp_path / "myepsg"
    f.write_text(
        "# test init file\n"
        "<9999> +proj=merc +lon_0=10   # trailing comment\n"
        "  +k=0.5 <>\n"
        "<4326> +proj=longlat +datum=WGS84 +no_defs <>\n")
    assert read_init_file(str(f), "9999") == "+proj=merc +lon_0=10 +k=0.5"
    assert read_init_file(str(f), "nope") is None

    monkeypatch.setenv("PROJ_LIB", str(tmp_path))
    P = CRS("+init=myepsg:9999 +ellps=WGS84")
    assert P.proj_name == "merc" and P.k0 == 0.5
    # explicit args precede the +init expansion => first-wins
    P2 = CRS("+k=0.9 +init=myepsg:9999 +ellps=WGS84")
    assert P2.k0 == 0.9
    # file shadows the curated dict for the same fname when PROJ_LIB set
    P3 = CRS("+init=epsg:4326")
    assert P3.proj_name in ("longlat", "latlong")
    monkeypatch.delenv("PROJ_LIB")
    with pytest.raises(FileNotFoundError):
        # unknown init FILE without PROJ_LIB: the C's pj_open_lib
        # failure keeps the positive system errno (2)
        CRS("+init=myepsg:9999")


def test_catalog_datum_transform_e2e(tmp_path, monkeypatch):
    """+catalog=<csv> +date=<d> wired through the datum step
    (pj_datum_set.c:96-108 -> pj_gc_apply_gridshift): PROJ_LIB file
    resolution, linear before/after mixing, and the reference's own
    0/0 NaN quirk when the date equals an entry date exactly."""
    from proj_ray.kernels.grid import write_ctable2
    from proj_ray.transform import make_transform

    d2r = np.pi / 180.0
    for name, shift_sec in (("g2000.lla", 3.6), ("g2010.lla", 10.8)):
        cvs = np.zeros((11, 11, 2), dtype=np.float32)
        cvs[..., 0] = shift_sec / 3600.0 * d2r
        g = ShiftGrid(name, (-10 * d2r, -10 * d2r), (2 * d2r, 2 * d2r),
                      (11, 11), cvs)
        write_ctable2(str(tmp_path / name), g)
    (tmp_path / "catalog.csv").write_text(
        "gridname,ll_long,ll_lat,ur_long,ur_lat,priority,date\n"
        "g2000.lla,-10,-10,10,10,0,2000.0\n"
        "g2010.lla,-10,-10,10,10,0,2010.0\n")
    monkeypatch.setenv("PROJ_LIB", str(tmp_path))

    t = make_transform("+proj=latlong +catalog=catalog.csv +date=2005.0 +ellps=WGS84",
                       "+proj=latlong +datum=WGS84")
    lon, lat, _ = t(np.array([0.0]), np.array([0.0]))
    # halfway mix of the 3.6" and 10.8" grids: -7.2 arcsec on lon
    np.testing.assert_allclose(lon[0], -7.2 / 3600.0, atol=1e-9)
    np.testing.assert_allclose(lat[0], 0.0, atol=1e-12)

    # date exactly on an entry: before==after -> 0/0 mix -> NaN output,
    # same as the reference's mix_ratio arithmetic (pj_gridcatalog.c:208)
    t2 = make_transform("+proj=latlong +catalog=catalog.csv +date=2000.0 +ellps=WGS84",
                        "+proj=latlong +datum=WGS84")
    lon2, _, _ = t2(np.array([0.0]), np.array([0.0]))
    assert not np.isfinite(lon2[0])

    # date=0 => pure "after" grid, no mixing
    t0 = make_transform("+proj=latlong +catalog=catalog.csv +ellps=WGS84",
                        "+proj=latlong +datum=WGS84")
    lon0, _, _ = t0(np.array([0.0]), np.array([0.0]))
    np.testing.assert_allclose(lon0[0], -3.6 / 3600.0, atol=1e-9)

    # nadgrids wins over catalog when both present (pj_datum_set elif)
    from proj_ray.crs import CRS
    c = CRS("+proj=latlong +nadgrids=@null +catalog=catalog.csv +ellps=WGS84")
    assert c.catalog_name is None


@pytest.mark.parametrize("date", ["", " +date=2005.0"], ids=["no_date", "date_2005"])
def test_catalog_missing_grid_fails_its_points(tmp_path, monkeypatch, date):
    """A catalog entry whose grid file is missing fails the points that
    select it with HUGE (pj_gc_apply_gridshift's -38,
    src/pj_gridcatalog.c:137-152), as the 'after' or the 'before' grid;
    every other point keeps the value the catalog without that entry
    gives (shifted by its own grid, or passed through off every region)."""
    from proj_ray.kernels.grid import write_ctable2
    from proj_ray.transform import make_transform

    d2r = np.pi / 180.0
    for name, lon0, shift_sec in (("g2000.ct2", 20, 3.6), ("g2010.ct2", 20, 10.8),
                                  ("w2010.ct2", -20, 10.8)):
        cvs = np.zeros((11, 11, 2), dtype=np.float32)
        cvs[..., 0] = shift_sec / 3600.0 * d2r
        write_ctable2(str(tmp_path / name),
                      ShiftGrid(name, (lon0 * d2r, -10 * d2r), (d2r, 2 * d2r),
                                (11, 11), cvs))
    head = "gridname,ll_long,ll_lat,ur_long,ur_lat,priority,date\n"
    kept = "g2000.ct2,20,-10,30,10,0,2000.0\ng2010.ct2,20,-10,30,10,0,2010.0\n"
    (tmp_path / "kept.csv").write_text(head + kept)
    # without a date nope.ct2 is the 'after' grid of (0, 0) and (-15, 0);
    # at 2005 it is the 'before' grid of (-15, 0), and (0, 0) has no
    # 'after' grid and passes through
    (tmp_path / "cat.csv").write_text(
        head + "nope.ct2,-10,-10,10,10,0,2000.0\n"
        "nope.ct2,-20,-10,-10,10,0,1990.0\n"
        "w2010.ct2,-20,-10,-10,10,0,2010.0\n" + kept)
    monkeypatch.setenv("PROJ_LIB", str(tmp_path))

    lon = np.array([0.0, 25.0, 60.0, -15.0, 5.0])
    lat = np.array([0.0, 0.0, 0.0, 0.0, 80.0])
    x, y, _ = make_transform(f"+proj=latlong +catalog=cat.csv +ellps=WGS84{date}",
                             "+proj=latlong +datum=WGS84")(lon, lat)
    kx, ky, _ = make_transform(f"+proj=latlong +catalog=kept.csv +ellps=WGS84{date}",
                               "+proj=latlong +datum=WGS84")(lon, lat)
    failed = [not date, False, False, True, False]
    assert np.array_equal(np.isinf(x), failed) and np.array_equal(np.isinf(y), failed)
    ok = ~np.array(failed)
    assert x[ok].tobytes() == kx[ok].tobytes() and y[ok].tobytes() == ky[ok].tobytes()
    assert x[1] != 25.0  # shifted by g2000 / the g2000-g2010 mix
