"""Grid-shift kernels (``proj_ray.kernels.grid``) against the per-point
scalar reference of tools/scalar_ref.py, bit for bit: the inverse's
MAX_TRY rule, snapped and degenerate lanes, the one-grid whole-batch
path of ``apply_gridshift``, the pickled size of a grid and the shape
check of ``ShiftGrid``."""

import os
import pickle
import sys

import numpy as np
import pytest

from proj_ray.kernels.common import DEG_TO_RAD, RAD_TO_DEG
from proj_ray.kernels.grid import ShiftGrid, apply_gridshift, nad_cvt, nad_intr

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

from scalar_ref import (  # noqa: E402
    _nad_cvt_s,
    _nad_intr_s,
    _SubGrid,
    ntv2_transform_scalar,
    read_ntv2_scalar,
)


def _grid(gid, ll, delta, n, amp, fi=0.3, fj=0.2):
    """Smooth shift field of ``amp`` grid cells, ll/delta in degrees."""
    nlam, nphi = n
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    d = delta * DEG_TO_RAD
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    cvs[..., 0] = amp * d * np.sin(fi * ii)
    cvs[..., 1] = amp * d * np.cos(fj * jj)
    return ShiftGrid(gid, (ll[0] * DEG_TO_RAD, ll[1] * DEG_TO_RAD), (d, d), n, cvs)


def _steep(amp):
    """41x41 nodes at 0.01 degree whose shifts swing by up to ``amp``
    cells from node to node: many inverse lanes iterate ten passes."""
    return _grid("STEEP", (10.0, 45.0), 0.01, (41, 41), amp, fi=0.9, fj=0.8)


def _scalar(g):
    s = _SubGrid(g.id, "NONE", g.ll, g.delta, g.lim, g.cvs)
    s.children = [_scalar(c) for c in g.children]
    return s


def _cvt_scalar(lam, phi, g, inverse):
    sg = _scalar(g)
    out = np.array([_nad_cvt_s(a, b, sg, inverse) for a, b in zip(lam, phi)],
                   dtype=np.float64).reshape(-1, 2)
    return out[:, 0], out[:, 1]


def _assert_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


@pytest.mark.parametrize("amp", [0.3, 0.6, 0.9])
def test_inverse_tenth_pass_is_huge_like_reference(amp):
    """nad_cvt.c's ``while (i-- && ...)`` then ``if (i < 0)``: a lane
    still iterating on its tenth pass is HUGE even when that pass meets
    TOL, exactly as the scalar reference."""
    g = _steep(amp)
    rng = np.random.default_rng(11)
    lam = rng.uniform(10.0, 10.4, 400) * DEG_TO_RAD
    phi = rng.uniform(45.0, 45.4, 400) * DEG_TO_RAD
    vl, vp = nad_cvt(lam, phi, g, inverse=True)
    sl, sp = _cvt_scalar(lam, phi, g, inverse=True)
    assert (~np.isfinite(sl)).sum() > 0  # the rule is exercised
    _assert_bits(vl, sl)
    _assert_bits(vp, sp)


def test_inverse_tenth_pass_through_transform(tmp_path):
    """The same rule end to end: make_transform into a steep NTv2 grid
    equals ntv2_transform_scalar bit for bit (lanes the grid cannot
    invert pass through unshifted in both)."""
    from proj_ray.sources.grids import dir_grid_loader, write_ntv2
    from proj_ray.transform import make_transform

    write_ntv2(str(tmp_path / "steep.gsb"), [(_steep(0.3), None)])
    t = make_transform("+proj=latlong +datum=WGS84",
                       "+proj=latlong +ellps=WGS84 +nadgrids=steep.gsb",
                       grid_loader=dir_grid_loader(str(tmp_path)))
    rng = np.random.default_rng(12)
    lon = rng.uniform(10.0, 10.4, 400)
    lat = rng.uniform(45.0, 45.4, 400)
    x, y, _ = t(lon.copy(), lat.copy())
    rx, ry = ntv2_transform_scalar(read_ntv2_scalar(str(tmp_path / "steep.gsb")),
                                   lon, lat, inverse=True)
    assert ((rx == lon) & (ry == lat)).sum() > 0  # some lanes pass through
    _assert_bits(x, rx)
    _assert_bits(y, ry)


def _edge_lanes(g):
    """Snap lanes at tl/tp = -1 + 0.999999999995, lanes on and 5e-12
    cells past the last column and row, lanes just outside every side,
    non-finite lanes, then interior lanes; radians."""
    (l0, p0), (dl, dp), (nl, npq) = g.ll, g.delta, g.lim
    lo, hi = -1 + 0.999999999995, 5e-12
    mid_l, mid_p = l0 + 0.37 * (nl - 1) * dl, p0 + 0.61 * (npq - 1) * dp
    last_l, last_p = l0 + (nl - 1) * dl, p0 + (npq - 1) * dp
    lanes = [
        (l0 + lo * dl, mid_p), (mid_l, p0 + lo * dp), (l0 + lo * dl, p0 + lo * dp),
        (last_l, mid_p), (mid_l, last_p), (last_l, last_p), (l0, p0),
        (last_l + hi * dl, mid_p), (mid_l, last_p + hi * dp),
        (l0 - 1e-6 * dl, mid_p), (last_l + 1e-6 * dl, mid_p),
        (mid_l, p0 - 1e-6 * dp), (mid_l, last_p + 1e-6 * dp),
        (np.nan, mid_p), (mid_l, np.nan), (np.inf, mid_p), (-np.inf, mid_p),
        (mid_l, np.inf), (mid_l, -np.inf), (np.nan, np.nan),
    ]
    rng = np.random.default_rng(5)
    lam = np.concatenate([[a for a, _ in lanes], l0 + rng.uniform(0, nl - 1, 500) * dl])
    phi = np.concatenate([[b for _, b in lanes], p0 + rng.uniform(0, npq - 1, 500) * dp])
    return lam, phi


def _rough():
    """Dyadic origin and spacing put the last row exactly on
    tp = nphi - 1; rough shifts make any change in the order of
    accumulation show."""
    d = 2.0 ** -6
    cvs = 0.01 * d * np.random.default_rng(4).standard_normal((17, 25, 2))
    return ShiftGrid("G", (-1.25, 0.625), (d, d), (25, 17), cvs)


def test_nad_intr_matches_scalar_on_edge_and_degenerate_lanes():
    g = _rough()
    lam, phi = _edge_lanes(g)
    t_lam, t_phi = lam - g.ll[0], phi - g.ll[1]
    sg = _scalar(g)
    with np.errstate(invalid="ignore"):
        vl, vp = nad_intr(t_lam, t_phi, g)
        want = np.array([_nad_intr_s(a, b, sg) for a, b in zip(t_lam, t_phi)])
    _assert_bits(vl, want[:, 0])
    _assert_bits(vp, want[:, 1])


@pytest.mark.parametrize("inverse", [False, True])
def test_nad_cvt_matches_scalar_on_edge_and_degenerate_lanes(inverse):
    g = _rough()
    lam, phi = _edge_lanes(g)
    with np.errstate(invalid="ignore"):
        vl, vp = nad_cvt(lam, phi, g, inverse)
        sl, sp = _cvt_scalar(lam, phi, g, inverse)
    _assert_bits(vl, sl)
    _assert_bits(vp, sp)
    if not inverse:
        assert np.isfinite(vl[:9]).all()  # snapped lanes stay in the grid
        assert not np.isfinite(vl[9:20]).any()


def _world():
    """A childless grid over lon -10..10, lat 30..50 (the whole-batch
    case) and a parent with a child that straddles its east edge."""
    w = _grid("W", (-10.0, 30.0), 1.0, (21, 21), 0.01)
    p = _grid("P", (8.0, 40.0), 0.25, (25, 17), 0.05, fi=0.25, fj=0.15)
    p.children.append(_grid("C", (9.5, 41.0), 0.05, (21, 21), 0.05))
    return w, p


def _lanes(case):
    rng = np.random.default_rng(3)
    lon = np.concatenate([rng.uniform(-10.0, 10.0, 200), rng.uniform(9.5, 10.0, 50)])
    lat = np.concatenate([rng.uniform(30.0, 50.0, 200), rng.uniform(41.0, 42.0, 50)])
    if case == "margin":  # inside W's epsilon-inflated bbox, off its nodes
        lon = np.concatenate([lon, np.full(20, 10.0 + 1e-5)])
        lat = np.concatenate([lat, rng.uniform(41.0, 43.0, 20)])
    elif case == "partial":  # only P covers these
        lon = np.concatenate([lon, rng.uniform(10.5, 14.0, 50)])
        lat = np.concatenate([lat, rng.uniform(40.0, 44.0, 50)])
    elif case == "nonfinite":
        lon = np.concatenate([lon, [np.nan, np.inf, -np.inf, 9.7]])
        lat = np.concatenate([lat, [41.5, 41.5, 41.5, np.nan]])
    return lon, lat


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("order", ["world_first", "parent_only", "parent_first"])
@pytest.mark.parametrize("case", ["covered", "margin", "partial", "nonfinite"])
def test_apply_gridshift_matches_scalar(case, order, inverse):
    """First-match apply with subgrid descent, vs the per-point scalar
    apply: ``world_first`` on ``covered``/``margin`` lanes takes the
    one-grid whole-batch path, the other combinations the general loop."""
    w, p = _world()
    grids = {"world_first": [w, p], "parent_only": [p], "parent_first": [p, w]}[order]
    lon, lat = _lanes(case)
    with np.errstate(invalid="ignore"):
        lam, phi = apply_gridshift(grids, inverse, lon * DEG_TO_RAD, lat * DEG_TO_RAD)
        rx, ry = ntv2_transform_scalar([_scalar(g) for g in grids], lon, lat, inverse)
    _assert_bits(lam * RAD_TO_DEG, rx)
    _assert_bits(phi * RAD_TO_DEG, ry)


def test_apply_gridshift_leaves_inputs_alone():
    w, _ = _world()
    lon, lat = _lanes("covered")
    lam, phi = lon * DEG_TO_RAD, lat * DEG_TO_RAD
    lam0, phi0 = lam.copy(), phi.copy()
    ol, op = apply_gridshift([w], False, lam, phi)
    ol += 1.0
    op += 1.0
    _assert_bits(lam, lam0)
    _assert_bits(phi, phi0)


def test_flat_cache_is_not_pickled(tmp_path):
    """The float64 node copy (16 bytes a node) is built on first use and
    never travels with a pickled grid or transform."""
    cloudpickle = pytest.importorskip("cloudpickle")
    from proj_ray.sources.grids import dir_grid_loader, write_ntv2
    from proj_ray.transform import make_transform

    g = _grid("G", (-80.0, 37.0), 0.25, (25, 17), 0.05)
    lam, phi = _edge_lanes(g)
    before = len(pickle.dumps(g))
    with np.errstate(invalid="ignore"):
        nad_cvt(lam, phi, g, inverse=True)
    assert "_flat" in g.__dict__
    assert len(pickle.dumps(g)) == before
    back = pickle.loads(pickle.dumps(g))
    assert "_flat" not in back.__dict__
    with np.errstate(invalid="ignore"):
        _assert_bits(nad_cvt(lam, phi, back, True)[0], nad_cvt(lam, phi, g, True)[0])

    write_ntv2(str(tmp_path / "g.gsb"), [(g, None)])
    t = make_transform("+proj=latlong +datum=WGS84",
                       "+proj=latlong +ellps=WGS84 +nadgrids=g.gsb",
                       grid_loader=dir_grid_loader(str(tmp_path)))
    before = len(cloudpickle.dumps(t))
    t(np.array([-78.0, -75.5]), np.array([38.0, 39.5]))
    assert len(cloudpickle.dumps(t)) == before


def test_bad_grid_shape_raises_value_error():
    with pytest.raises(ValueError, match=r"\(3, 4, 2\).*\(4, 3, 2\)"):
        ShiftGrid("BAD", (0.0, 0.0), (0.1, 0.1), (3, 4), np.zeros((3, 4, 2)))
