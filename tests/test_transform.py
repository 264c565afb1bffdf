"""Transform compile and call contracts: one grid search for every way a
grid is named, no step writes the caller's arrays, and non-finite lanes
raise no numpy warning."""

import warnings

import numpy as np
import pytest

from proj_ray.kernels.common import DEG_TO_RAD
from proj_ray.kernels.grid import ShiftGrid
from proj_ray.sources.grids import VShiftGrid, dir_grid_loader, write_gtx, write_ntv2
from proj_ray.transform import make_transform

WGS84 = "+proj=latlong +datum=WGS84"


def _const_grid(gid, lon0, lat0, shift, n=11):
    """An n x n one-degree grid at (lon0, lat0) with a constant shift
    (radians, lam and phi)."""
    cvs = np.empty((n, n, 2), dtype=np.float32)
    cvs[..., 0], cvs[..., 1] = shift
    return ShiftGrid(gid, (lon0 * DEG_TO_RAD, lat0 * DEG_TO_RAD),
                     (DEG_TO_RAD, DEG_TO_RAD), (n, n), cvs)


def test_ntv2_sibling_grids_same_by_every_name(tmp_path, monkeypatch):
    """An NTv2 file with two top-level grids shifts points in BOTH grids
    (the reference's gi->next sibling chain, src/pj_gridlist.c), whether
    +nadgrids names it by absolute path, by a $PROJ_LIB-relative name or
    through dir_grid_loader, forward and inverse, to the same bytes."""
    lib = tmp_path / "lib"
    lib.mkdir()
    write_ntv2(str(lib / "two.gsb"),
               [(_const_grid("WEST", -10.0, 40.0, (2e-6, 1e-6)), None),
                (_const_grid("EAST", 20.0, 40.0, (-3e-6, 2e-6)), None)])
    monkeypatch.setenv("PROJ_LIB", str(lib))
    monkeypatch.chdir(tmp_path)
    lon, lat = np.array([-5.0, 25.0]), np.array([45.0, 45.0])
    ways = [(f"+nadgrids={lib / 'two.gsb'}", None), ("+nadgrids=two.gsb", None),
            ("+nadgrids=two.gsb", dir_grid_loader(str(lib)))]
    for inverse in (False, True):
        outs = []
        for nad, loader in ways:
            grid_crs = f"+proj=latlong +ellps=WGS84 {nad}"
            src, dst = (WGS84, grid_crs) if inverse else (grid_crs, WGS84)
            x, y, _ = make_transform(src, dst, grid_loader=loader)(lon, lat)
            outs.append(x.tobytes() + y.tobytes())
            assert (x != lon).all() and (y != lat).all()
        assert outs[0] == outs[1] == outs[2]


def _pairs(tmp_path):
    write_ntv2(str(tmp_path / "h.gsb"),
               [(_const_grid("H", -20.0, 30.0, (2e-6, -1e-6), n=41), None)])
    vals = np.full((41, 41), 12.5, dtype=np.float32)
    write_gtx(str(tmp_path / "v.gtx"),
              VShiftGrid("V", (-20.0 * DEG_TO_RAD, 30.0 * DEG_TO_RAD),
                         (DEG_TO_RAD, DEG_TO_RAD), (41, 41), vals))
    return [
        (WGS84, "+proj=utm +zone=32 +datum=WGS84"),        # degrees -> radians
        ("+proj=latlong +datum=WGS84 +axis=neu", "+proj=merc +datum=WGS84 +axis=wsu"),
        ("+proj=merc +datum=WGS84 +axis=wsu", "+proj=latlong +datum=WGS84 +axis=neu"),
        (WGS84, "+proj=latlong +datum=WGS84 +lon_wrap=180"),
        (WGS84, "+proj=geocent +datum=WGS84 +units=km"),
        ("+proj=geocent +datum=WGS84 +units=km", WGS84),
        ("+proj=latlong +ellps=bessel +towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7",
         WGS84),                                           # Helmert step
        ("+proj=latlong +ellps=GRS80 +nadgrids=h.gsb", WGS84),
        (WGS84, "+proj=latlong +ellps=GRS80 +nadgrids=h.gsb"),
        ("+proj=latlong +datum=WGS84 +geoidgrids=v.gtx", WGS84),
        (WGS84, "+proj=latlong +datum=WGS84 +geoidgrids=v.gtx"),
    ]


def test_call_never_writes_its_inputs(tmp_path):
    """Every step builds new arrays: the x, y and z passed in are
    byte-identical after the call, and read-only inputs are accepted."""
    loader = dir_grid_loader(str(tmp_path))
    lon = np.array([-5.0, 3.0, 179.0, -179.5, 15.0, np.nan, np.inf, 10.0])
    lat = np.array([45.0, 44.0, 35.0, 40.0, 60.0, 50.0, 45.0, np.nan])
    for src, dst in _pairs(tmp_path):
        t = make_transform(src, dst, grid_loader=loader)
        x, y, z = lon, lat, np.linspace(-50.0, 50.0, lon.size)
        if not t.src.is_latlong:
            x, y, z = make_transform(WGS84, src)(lon, lat, z)
        ins = [np.array(a) for a in (x, y, z)]
        for a in ins:
            a.flags.writeable = False
        before = [a.tobytes() for a in ins]
        out = t(*ins)
        assert [a.tobytes() for a in ins] == before, (src, dst)
        assert np.isfinite(out[0][:5]).any(), (src, dst)


@pytest.mark.parametrize("src, dst, x, y", [
    ("+init=epsg:4326", "+init=epsg:31467", (9.0, 10.5), (50.0, 52.0)),  # Helmert + tmerc
    ("+init=epsg:32632", "+init=epsg:4326", (500e3, 650e3), (5.0e6, 5.5e6)),  # utm inverse
    (WGS84, "+proj=geocent +datum=WGS84", (9.0, 10.5), (50.0, 52.0)),
    ("+proj=geocent +datum=WGS84", "+init=epsg:31467", (4.0e6, 4.1e6), (6e5, 7e5)),
    ("+proj=latlong +ellps=GRS80 +nadgrids=h.gsb", WGS84, (-5.0, 3.0), (45.0, 44.0)),
    (WGS84, "+proj=latlong +ellps=GRS80 +nadgrids=h.gsb", (-5.0, 3.0), (45.0, 44.0)),
], ids=["helmert7_tmerc", "utm_inv", "geocent_fwd", "geocent_inv", "ntv2_fwd", "ntv2_inv"])
def test_nonfinite_lanes_raise_no_warning(tmp_path, src, dst, x, y):
    """NaN and inf lanes come out HUGE without a numpy RuntimeWarning
    (warnings are errors here), and the finite lanes beside them keep
    the bytes they have in a call of their own."""
    _pairs(tmp_path)  # writes h.gsb
    t = make_transform(src, dst, grid_loader=dir_grid_loader(str(tmp_path)))
    xs = np.array([*x, np.nan, np.inf, -np.inf, 1.0, x[0]])
    ys = np.array([*y, 1.0, 1.0, 1.0, np.nan, np.inf])
    zs = np.full(xs.size, 4.9e6) if t.src.is_geocent else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = t(xs, ys, zs)
        alone = t(xs[:2], ys[:2], None if zs is None else zs[:2])
    for got, want in zip(out[:2], alone[:2]):
        assert np.isinf(got[2:]).all(), (src, dst)
        assert np.isfinite(want).all() and got[:2].tobytes() == want.tobytes()


@pytest.mark.parametrize("axis, expect", [
    ("wsu", lambda e, n, u: (-e, -n, u)),
    ("neu", lambda e, n, u: (n, e, u)),
    ("nwd", lambda e, n, u: (n, -e, -u)),
    ("sed", lambda e, n, u: (-n, e, -u)),
])
def test_axis_order_both_directions(axis, expect):
    """+axis puts (east, north, up) into the declared order on output
    and takes it back out on input (src/pj_transform.c:728-825)."""
    enu = (np.array([10.0, -20.0]), np.array([30.0, 40.0]), np.array([5.0, -6.0]))
    declared = f"+proj=latlong +datum=WGS84 +axis={axis}"
    for got, want in zip(make_transform(WGS84, declared)(*enu), expect(*enu)):
        np.testing.assert_allclose(got, want, rtol=1e-15)
    for got, want in zip(make_transform(declared, WGS84)(*expect(*enu)), enu):
        np.testing.assert_allclose(got, want, rtol=1e-15)
