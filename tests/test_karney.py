"""Karney geodesic suite: paper-value golden, direct∘inverse
consistency, antipodal convergence, Vincenty cross-check, special
lines (meridian / equator / poles)."""

import numpy as np

from proj_ray.kernels.geodesic import (
    geod_direct,
    geod_inverse,
    vincenty_inverse,
)


def _roundtrip_err_deg(lon1, lat1, lon2, lat2):
    s12, azi1, _azi2, ok = geod_inverse(lon1, lat1, lon2, lat2)
    assert ok.all()
    lo2, la2, _ = geod_direct(lon1, lat1, azi1, s12)
    dlon = (lo2 - lon2 + 540.0) % 360.0 - 180.0
    return np.hypot(dlon * np.cos(np.radians(lat2)), la2 - lat2)


def test_karney_paper_value():
    """Karney (2013) near-antipodal inverse sample: equatorial points
    (0,0) -> (0, 179.5) on WGS84, beyond the equatorial-geodesic limit
    (lam12 > pi(1-f)), give s12 = 19980861.9088796 m via the astroid
    start + Newton path."""
    s12, azi1, azi2, ok = geod_inverse(
        np.array([0.0]), np.array([0.0]), np.array([179.5]), np.array([0.0]))
    assert ok.all()
    np.testing.assert_allclose(s12[0], 19980861.9088796, atol=1e-4)


def test_karney_known_lines():
    """Closed-form anchors: equatorial arc = a * lam, meridian
    half-length, coincident points."""
    s, a1, _, _ = geod_inverse(np.array([0.0]), np.array([0.0]),
                               np.array([10.0]), np.array([0.0]))
    np.testing.assert_allclose(s[0], 6378137.0 * np.radians(10.0), rtol=1e-12)
    assert a1[0] == 90.0
    # WGS84 meridian quarter = 10001965.7293 m -> pole-to-pole 2x
    s, _, _, _ = geod_inverse(np.array([0.0]), np.array([-90.0]),
                              np.array([0.0]), np.array([90.0]))
    np.testing.assert_allclose(s[0], 2 * 10001965.7293127, atol=1e-3)
    s, _, _, _ = geod_inverse(np.array([5.0]), np.array([5.0]),
                              np.array([5.0]), np.array([5.0]))
    assert s[0] == 0.0


def test_karney_direct_inverse_consistency():
    """Random global pairs: direct(inverse) returns the target to
    sub-micrometer."""
    rng = np.random.default_rng(11)
    N = 5000
    lon1 = rng.uniform(-180, 180, N)
    lat1 = rng.uniform(-90, 90, N)
    lon2 = rng.uniform(-180, 180, N)
    lat2 = rng.uniform(-90, 90, N)
    err = _roundtrip_err_deg(lon1, lat1, lon2, lat2)
    assert err.max() < 1e-8  # degrees (~1 mm)


def test_karney_antipodal():
    """Near-antipodal pairs (Vincenty's failure mode) converge and
    roundtrip."""
    lat1 = np.array([0.0, 0.5, 30.0, -30.0, 0.0, 41.0])
    lon1 = np.zeros(6)
    lat2 = np.array([0.0, -0.5, -30.0, 30.0, -0.1, -41.0])
    lon2 = np.array([179.5, 179.8, 179.9, 179.99, 180.0, 179.99999])
    err = _roundtrip_err_deg(lon1, lat1, lon2, lat2)
    assert err.max() < 1e-8
    s12, _, _, ok = geod_inverse(lon1, lat1, lon2, lat2)
    assert ok.all()
    assert (s12 > 19_000_000).all() and (s12 < 20_010_000).all()


def test_karney_matches_vincenty_where_it_converges():
    rng = np.random.default_rng(3)
    N = 2000
    lon1 = rng.uniform(-180, 180, N)
    lat1 = rng.uniform(-80, 80, N)
    lon2 = rng.uniform(-180, 180, N)
    lat2 = rng.uniform(-80, 80, N)
    sk, _, _, _ = geod_inverse(lon1, lat1, lon2, lat2)
    sv, _, _, okv = vincenty_inverse(lon1, lat1, lon2, lat2)
    d = np.abs(sk[okv] - sv[okv])
    assert d.max() < 1e-2  # Vincenty itself is only good to ~0.1 mm


def test_vincenty_direct_agrees_with_karney_direct():
    """The retained Vincenty direct stand-in agrees with the Karney
    direct kernel to sub-mm away from the antipodal region (its
    documented validity domain)."""
    import numpy as np

    from proj_ray.kernels.geodesic import geod_direct, vincenty_direct

    rng = np.random.default_rng(3)
    n = 300
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-80, 80, n)
    azi = rng.uniform(-180, 180, n)
    s12 = rng.uniform(1.0, 5e6, n)
    klon, klat, kazi = geod_direct(lon, lat, azi, s12)
    vlon, vlat, vazi = vincenty_direct(lon, lat, azi, s12)
    dlon = np.abs((vlon - klon + 180.0) % 360.0 - 180.0)
    assert np.nanmax(dlon) < 1e-7 and np.nanmax(np.abs(vlat - klat)) < 1e-7


# ---------------------------------------------------------------------------
# geodesic polygon area (GEOD_AREA / geod_polygon_* parity)
# ---------------------------------------------------------------------------

def test_polygon_area_sphere_octant_exact():
    """On a sphere the octant (0,0)-(90,0)-(0,90) has area exactly
    pi*R^2/2 and perimeter 3*pi*R/2 — closed form, no series."""
    from proj_ray.kernels.karney import geod_polygon_area

    R = 6400000.0
    P, A, n = geod_polygon_area([0.0, 90.0, 0.0], [0.0, 0.0, 90.0], R, 0.0)
    assert n == 3
    np.testing.assert_allclose(abs(A), np.pi * R * R / 2.0, rtol=1e-14)
    np.testing.assert_allclose(P, 3.0 * np.pi * R / 2.0, rtol=1e-14)


def test_polygon_area_additivity_orientation_and_cap():
    from proj_ray.kernels.karney import geod_polygon_area

    a, f = 6378137.0, 1.0 / 298.257223563
    # additivity: split a quad along a diagonal -> areas add
    quad_lon = [0.0, 40.0, 42.0, -3.0]
    quad_lat = [0.0, 5.0, 45.0, 38.0]
    _, A, _ = geod_polygon_area(quad_lon, quad_lat, a, f)
    _, A1, _ = geod_polygon_area([0.0, 40.0, 42.0], [0.0, 5.0, 45.0], a, f)
    _, A2, _ = geod_polygon_area([0.0, 42.0, -3.0], [0.0, 45.0, 38.0], a, f)
    np.testing.assert_allclose(A, A1 + A2, rtol=1e-12)
    # orientation: reversed ring flips the sign
    _, Ar, _ = geod_polygon_area(quad_lon[::-1], quad_lat[::-1], a, f)
    np.testing.assert_allclose(Ar, -A, rtol=1e-12)
    # pole-enclosing ring (odd prime-meridian crossings parity): a
    # 72-gon at lat 85 approximates the spherical cap 2*pi*R^2*(1-sin85)
    lons = list(np.arange(-180.0, 180.0, 5.0))
    lats = [85.0] * len(lons)
    _, Acap, _ = geod_polygon_area(lons, lats, a, f)
    R2 = 6371007.18 ** 2  # authalic radius, close enough for 1% check
    cap = 2.0 * np.pi * R2 * (1.0 - np.sin(np.radians(85.0)))
    assert abs(Acap - cap) / cap < 0.01 and Acap > 0


def test_polygon_area_vector_matches_scalar_bitwise():
    """The vectorized GEOD_AREA lanes equal the scalar port bit-for-bit
    on a random pair sweep and on two full rings."""
    import os
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools"))
    from scalar_ref import karney_inverse_scalar, polygon_area_scalar

    from proj_ray.kernels.karney import (geod_inverse_karney,
                                         geod_polygon_area)

    a, f = 6378137.0, 1.0 / 298.257223563
    rng = np.random.default_rng(40)
    lon1 = rng.uniform(-180, 180, 200)
    lat1 = rng.uniform(-89.9, 89.9, 200)
    lon2 = rng.uniform(-180, 180, 200)
    lat2 = rng.uniform(-89.9, 89.9, 200)
    s12, _, _, _, S12 = geod_inverse_karney(lon1, lat1, lon2, lat2, a, f,
                                            with_area=True)
    for i in range(200):
        ss, _, _, SS = karney_inverse_scalar(lon1[i], lat1[i],
                                             lon2[i], lat2[i], a, f,
                                             with_area=True)
        assert ss == s12[i] and SS == S12[i], i
    for lons, lats in [
        ([-74, -102, -131, -163, 163, 96, 10, -33],
         [-72.9, -71.9, -74.3, -77.5, -77.4, -65.9, -70.0, -77.3]),
        (list(np.arange(-180.0, 180.0, 30.0)), [85.0] * 12),
    ]:
        pv = geod_polygon_area(lons, lats, a, f)
        ps = polygon_area_scalar(lons, lats, a, f)
        assert pv[0] == ps[0] and pv[1] == ps[1]


def test_stages_never_pass_a_non_finite_lane_as_a_distance():
    """The kernel gives a NaN-longitude lane a finite distance (9,985 km
    from (NaN, 0) to (1, 1); 0 m to a site on the same parallel) and flags
    it ``ok``. ``geod_inverse_ellipsoidal`` keeps such a row with
    ``converged`` false and null distance and azimuth, with no cast
    warning; the radius search drops it, as ``knn_topk`` does."""
    import warnings

    import pyarrow as pa

    from proj_ray.pipelines.queries import _geod_inverse_rows, _radius_hits

    lon = [np.nan, 5.0, 0.0, np.inf, 3.0]
    lat = [0.0, np.inf, 1.0, 2.0, 4.0]
    t = pa.table({"pid": pa.array([11, 12, 13, 14, 15], pa.int64()),
                  "lon": lon, "lat": lat})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _geod_inverse_rows(t)
    assert out["pid"].to_pylist() == [11, 12, 13, 14, 15]
    assert out["converged"].to_pylist() == [False, False, True, False, True]
    for col in ("s12_mm", "azi1_udeg"):
        assert out[col].type == pa.int64()
        assert out[col].is_null().to_pylist() == [True, True, False, True, False]
    # finite lanes are unchanged by their non-finite neighbours
    clean = _geod_inverse_rows(t.take([2, 4]))
    assert all(c.null_count == 0 for c in clean.columns)
    assert clean.to_pylist() == out.take([2, 4]).to_pylist()

    pts = pa.table({"pid": pa.array([1, 2, 3, 4], pa.int64()),
                    "lon": [np.nan, 10.2, 1.0, 10.0],
                    "lat": [50.0, 50.0, np.nan, np.inf]})
    hits = _radius_hits(pts, 7, 10.0, 50.0, 300000.0)
    assert hits["id"].to_pylist() == [2]
    assert hits["qid"].to_pylist() == [7]
    hits = _radius_hits(pts, 7, 0.0, 0.0, 300000.0)
    assert hits.num_rows == 0
