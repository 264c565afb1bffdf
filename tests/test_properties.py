"""Hypothesis property tests — randomized invariants over the pure
kernels (no Ray).  These complement the golden/differential suites with
fuzzed coverage of the algebraic contracts each kernel must satisfy:
round trips, symmetry, wrap periodicity, metric lower bounds, cell
containment.  All strategies avoid the documented singular regions
(poles, antipodes) where the contracts legitimately weaken; those
regions are pinned separately by the golden tests."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

_SETTINGS = dict(max_examples=60, deadline=None)

lon_st = st.floats(min_value=-179.99, max_value=179.99,
                   allow_nan=False, allow_infinity=False)
lat_st = st.floats(min_value=-89.5, max_value=89.5,
                   allow_nan=False, allow_infinity=False)


@settings(**_SETTINGS)
@given(lon_st, lat_st)
def test_webmerc_roundtrip(lon, lat):
    """fwd(inv) ≈ id for Web Mercator over the whole usable domain
    (the C clips nothing here; |err| bounded by series conditioning)."""
    from proj_ray.transform import make_transform

    fwd = make_transform("+proj=latlong +datum=WGS84",
                         "+proj=merc +a=6378137 +b=6378137")
    inv = make_transform("+proj=merc +a=6378137 +b=6378137",
                         "+proj=latlong +datum=WGS84")
    x, y, _ = fwd(np.array([lon]), np.array([lat]))
    lo, la, _ = inv(x, y)
    assert abs(lo[0] - lon) < 1e-9 and abs(la[0] - lat) < 1e-9


@settings(**_SETTINGS)
@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
       st.integers(min_value=-3, max_value=3))
def test_adjlon_periodicity_and_range(rad, k):
    """adjlon wraps into (-pi, pi] and is 2*pi-periodic (adjlon.c)."""
    from proj_ray.kernels.common import adjlon

    a = adjlon(np.array([rad]))[0]
    b = adjlon(np.array([rad + 2.0 * math.pi * k]))[0]
    assert -math.pi - 1e-12 <= a <= math.pi + 1e-12
    assert abs(a - b) < 1e-9


@settings(**_SETTINGS)
@given(st.floats(min_value=-1.5607, max_value=1.5607, allow_nan=False),
       st.integers(min_value=0, max_value=9))
def test_rtodms_dmstor_roundtrip(rad, prec_shift):
    """The DMS writer/parser pair (rtodms.c / dmstor.c) round-trips to
    the printed precision: |dmstor(rtodms(r)) - r| < half an ulp of the
    seconds field."""
    from proj_ray.crs import dmstor, rtodms

    prec = 3 + prec_shift % 4
    s = rtodms(rad, prec=prec)
    back = dmstor(s)
    tol = 0.5 * 10.0 ** (-prec) / 3600.0 * math.pi / 180.0 * 1.001
    assert abs(back - rad) <= tol, (s, back, rad, tol)


@settings(**_SETTINGS)
@given(lon_st, lat_st, lon_st, lat_st)
def test_geod_inverse_symmetry_and_triangle(lon1, lat1, lon2, lat2):
    """Karney inverse: s12 symmetric under endpoint swap, zero iff the
    points coincide, and bounded by pi * a."""
    from proj_ray.kernels.geodesic import geod_inverse

    s_ab, _, _, _ = geod_inverse(np.array([lon1]), np.array([lat1]),
                                 np.array([lon2]), np.array([lat2]))
    s_ba, _, _, _ = geod_inverse(np.array([lon2]), np.array([lat2]),
                                 np.array([lon1]), np.array([lat1]))
    assert abs(s_ab[0] - s_ba[0]) <= 1e-8 * max(1.0, s_ab[0])
    assert 0.0 <= s_ab[0] <= math.pi * 6378137.0 * 1.001
    if (lon1, lat1) == (lon2, lat2):
        assert s_ab[0] == 0.0


@settings(**_SETTINGS)
@given(lon_st, lat_st,
       st.floats(min_value=0.02, max_value=60.0, allow_nan=False),
       st.lists(st.tuples(lon_st, lat_st), min_size=8, max_size=8))
def test_geodesic_box_lb_property(qx, qy, r, pts):
    """Every point outside the clamped box [qx+-r, qy+-r] is at least
    geodesic_box_lb metres from q (the pruned-kNN certificate)."""
    from proj_ray.kernels.geodesic import geod_inverse
    from proj_ray.stages.knn_stage import geodesic_box_lb

    lon0, lon1 = max(qx - r, -180.0), min(qx + r, 180.0)
    lat0, lat1 = max(qy - r, -90.0), min(qy + r, 90.0)
    lb = geodesic_box_lb(qx, qy, lon0, lon1, lat0, lat1)
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    outside = ~((lon >= lon0) & (lon <= lon1)
                & (lat >= lat0) & (lat <= lat1))
    if not outside.any():
        return
    s12, _, _, _ = geod_inverse(lon[outside], lat[outside],
                                np.full(int(outside.sum()), qx),
                                np.full(int(outside.sum()), qy))
    assert float(s12.min()) >= lb - 1e-6


@settings(**_SETTINGS)
@given(lon_st, lat_st,
       st.floats(min_value=1e3, max_value=3e6, allow_nan=False),
       st.lists(st.tuples(lon_st, lat_st), min_size=8, max_size=8))
def test_geodesic_radius_box_property(qx, qy, r_m, pts):
    """Every point within r_m Karney metres of q lies inside the
    geodesic_radius_box superset (the radius-search pruning contract),
    including wrapped longitudes."""
    from proj_ray.kernels.geodesic import geod_inverse
    from proj_ray.stages.knn_stage import geodesic_radius_box

    dlat, dlon = geodesic_radius_box(qx, qy, r_m)
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    s12, _, _, _ = geod_inverse(lon, lat, np.full(lon.size, qx),
                                np.full(lon.size, qy))
    within = s12 <= r_m
    assert (np.abs(lat - qy)[within] <= dlat + 1e-12).all()
    if dlon is not None:
        dl = np.abs((lon - qx + 180.0) % 360.0 - 180.0)
        assert (dl[within] <= dlon + 1e-9).all()


@settings(**_SETTINGS)
@given(st.lists(st.tuples(lon_st, lat_st), min_size=1, max_size=32),
       st.integers(min_value=0, max_value=30))
def test_s2_parent_contains_leaf(pts, level):
    """S2: the level-L ancestor's Hilbert range always contains the
    leaf id (the shard-pruning containment contract)."""
    from proj_ray.kernels import s2cell as s2

    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    leaf = s2.cell_id_from_lonlat(lon, lat)
    ids = s2.id_at_level(leaf, level)
    lo, hi = s2.cell_range(ids)
    assert ((leaf >= lo) & (leaf <= hi)).all()
