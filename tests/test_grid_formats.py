"""Grid file format round-trips (reader(writer(g)) == g) + transform
integration through files + vertical (GTX) shift."""

import numpy as np
import pytest

from proj_ray.kernels.common import DEG_TO_RAD
from proj_ray.kernels.grid import ShiftGrid, apply_gridshift
from proj_ray.sources.grids import (
    VShiftGrid,
    dir_grid_loader,
    read_any_grid,
    read_gtx,
    read_ntv1,
    read_ntv2,
    write_gtx,
    write_ntv1,
    write_ntv2,
)


def _grid(gid="SYNTHG", ll=(-10.0, 40.0), delta=0.5, n=(21, 17), amp=1e-6):
    d2r = DEG_TO_RAD
    nlam, nphi = n
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    cvs[..., 0] = amp * np.sin(ii * 0.4 + jj * 0.1)
    cvs[..., 1] = amp * np.cos(ii * 0.2 - jj * 0.3)
    return ShiftGrid(gid, (ll[0] * d2r, ll[1] * d2r), (delta * d2r, delta * d2r),
                     (nlam, nphi), cvs)


def test_ntv2_roundtrip_with_children(tmp_path):
    parent = _grid("PARENT")
    child = _grid("CHILD", ll=(-8.0, 42.0), delta=0.1, n=(31, 21), amp=3e-6)
    path = str(tmp_path / "synth.gsb")
    write_ntv2(path, [(parent, None), (child, "PARENT")])
    tops = read_ntv2(path)
    assert len(tops) == 1
    g = tops[0]
    assert g.id == "PARENT" and len(g.children) == 1
    assert g.children[0].id == "CHILD"
    assert g.lim == parent.lim
    np.testing.assert_allclose(g.ll, parent.ll, rtol=1e-12)
    # float32 sec->rad->sec roundtrip: values match to float32 precision
    np.testing.assert_allclose(g.cvs, parent.cvs, rtol=2e-7, atol=1e-12)
    np.testing.assert_allclose(g.children[0].cvs, child.cvs, rtol=2e-7, atol=1e-12)


def test_ntv1_roundtrip(tmp_path):
    g0 = _grid("NTV1")
    path = str(tmp_path / "synth.dat")
    write_ntv1(path, g0)
    g = read_ntv1(path)
    assert g.lim == g0.lim
    np.testing.assert_allclose(g.ll, g0.ll, rtol=1e-12)
    np.testing.assert_allclose(g.cvs, g0.cvs, rtol=2e-7, atol=1e-12)


def test_gtx_roundtrip_and_vshift(tmp_path):
    d2r = DEG_TO_RAD
    vals = np.arange(15, dtype=np.float32).reshape(3, 5) / 10.0
    vg0 = VShiftGrid("G", (0.0, 0.0), (1.0 * d2r, 1.0 * d2r), (5, 3), vals)
    path = str(tmp_path / "synth.gtx")
    write_gtx(path, vg0)
    vg = read_gtx(path)
    assert vg.lim == vg0.lim
    np.testing.assert_allclose(vg.values, vg0.values)
    # vertical apply: bilinear interior value
    from proj_ray.kernels.grid import apply_vgridshift

    lam = np.array([1.5 * d2r])
    phi = np.array([0.5 * d2r])
    z = np.zeros(1)
    z2, ok = apply_vgridshift([vg], False, lam, phi, z)
    # nodes: v(1.5, .5) = mean of v[0,1],v[0,2],v[1,1],v[1,2] = (.1+.2+.6+.7)/4
    np.testing.assert_allclose(z2[0], 0.4, atol=1e-6)
    assert ok[0]
    z3, _ = apply_vgridshift([vg], True, lam, phi, z)
    np.testing.assert_allclose(z3[0], -0.4, atol=1e-6)
    # outside the grid -> inf sentinel lane
    z4, ok4 = apply_vgridshift([vg], False, np.array([100.0 * d2r]),
                               np.array([50.0 * d2r]), np.zeros(1))
    assert not ok4[0] and np.isinf(z4[0])


def test_sniffing_and_dir_loader(tmp_path):
    g = _grid("SNIFF")
    from proj_ray.kernels.grid import write_ctable2

    write_ctable2(str(tmp_path / "a.ct2"), g)
    write_ntv1(str(tmp_path / "b.dat"), g)
    write_ntv2(str(tmp_path / "c.gsb"), [(g, None)])
    for name in ("a.ct2", "b.dat", "c.gsb"):
        got = read_any_grid(str(tmp_path / name))
        assert len(got) == 1 and got[0].lim == g.lim
    loader = dir_grid_loader(str(tmp_path))
    assert loader("a.ct2").id == "SNIFF"
    assert loader("missing") is None


def test_transform_through_grid_file(tmp_path):
    """Full Transform with +nadgrids resolved from an NTv2 file."""
    from proj_ray.transform import make_transform

    g = _grid("FILEG", amp=1e-5)
    write_ntv2(str(tmp_path / "g.gsb"), [(g, None)])
    loader = dir_grid_loader(str(tmp_path))
    t = make_transform("+proj=latlong +nadgrids=g.gsb +ellps=WGS84",
                       "+proj=latlong +datum=WGS84", grid_loader=loader)
    lon = np.array([-5.0])
    lat = np.array([44.0])
    lo, la, _ = t(lon, lat)
    # shift applied (≈1e-5 rad ≈ 5e-4 deg), not a noop, and invertible
    assert 1e-5 < abs(lo[0] - lon[0]) < 1e-2
    t_inv = make_transform("+proj=latlong +datum=WGS84",
                           "+proj=latlong +nadgrids=g.gsb +ellps=WGS84",
                           grid_loader=loader)
    lo2, la2, _ = t_inv(lo, la)
    np.testing.assert_allclose(lo2, lon, atol=1e-9)
    np.testing.assert_allclose(la2, lat, atol=1e-9)


def test_transform_geoidgrids_vertical(tmp_path):
    """+geoidgrids end-to-end: z gains the geoid height (step 5) and a
    destination geoid subtracts it back (step 7)."""
    import numpy as np

    from proj_ray.kernels.common import DEG_TO_RAD as D2R
    from proj_ray.sources.grids import VShiftGrid, dir_grid_loader, write_gtx
    from proj_ray.transform import make_transform

    vals = np.full((5, 9), 42.5, dtype=np.float32)
    vg = VShiftGrid("GEOID", (-4.0 * D2R, 40.0 * D2R), (1.0 * D2R, 1.0 * D2R),
                    (9, 5), vals)
    write_gtx(str(tmp_path / "geoid.gtx"), vg)
    loader = dir_grid_loader(str(tmp_path))
    up = make_transform("+proj=latlong +datum=WGS84 +geoidgrids=geoid.gtx",
                        "+proj=latlong +datum=WGS84", grid_loader=loader)
    x, y, z = up(np.array([0.0]), np.array([42.0]), np.array([10.0]))
    np.testing.assert_allclose(z[0], 52.5, atol=1e-6)
    down = make_transform("+proj=latlong +datum=WGS84",
                          "+proj=latlong +datum=WGS84 +geoidgrids=geoid.gtx",
                          grid_loader=loader)
    _, _, z2 = down(x, y, z)
    np.testing.assert_allclose(z2[0], 10.0, atol=1e-6)
    # point outside the geoid grid -> inf z, lon/lat untouched
    x3, y3, z3 = up(np.array([90.0]), np.array([0.0]), np.array([1.0]))
    assert np.isinf(z3[0]) and np.isfinite(x3[0])


# ---------------------------------------------------------------------------
# nad2bin: ASCII .lla ingest + binary conversion (src/nad2bin.c)
# ---------------------------------------------------------------------------

_NAD2BIN = "/tmp/proj_build/src/nad2bin"

_SYNTH_LLA = None


def _synth_lla():
    global _SYNTH_LLA
    if _SYNTH_LLA is None:
        import random
        rng = random.Random(42)
        nlam, nphi = 7, 5
        lines = ["Synthetic test grid for nad2bin parity",
                 f"   {nlam}   {nphi}   1  -120.00000   0.25000"
                 "   30.00000   0.25000"]
        for i in range(nphi):
            vals = [rng.randint(-2_000_000, 2_000_000),
                    rng.randint(-2_000_000, 2_000_000)]
            for _ in range(nlam - 1):
                vals += [rng.randint(-50_000, 50_000),
                         rng.randint(-50_000, 50_000)]
            lines.append(f"{i}: " + " ".join(map(str, vals)) + " ")
        _SYNTH_LLA = "\n".join(lines) + "\n"
    return _SYNTH_LLA


def test_parse_lla_and_roundtrip_readers(tmp_path):
    from proj_ray.kernels.grid import read_ctable2
    from proj_ray.sources.grids import nad2bin_convert, parse_lla

    text = _synth_lla()
    g0 = parse_lla(text)
    assert g0.lim == (7, 5)
    # header degrees -> radians
    np.testing.assert_allclose(
        np.array(g0.ll) / DEG_TO_RAD, [-120.0, 30.0], rtol=1e-12)
    # our own readers round-trip the written binaries exactly (the cvs
    # values are float32 in both the file and the grid -> bit equality)
    p2 = str(tmp_path / "g.ct2")
    nad2bin_convert(text, p2, "ctable2")
    g2 = read_ctable2(p2)
    assert g2.lim == g0.lim
    np.testing.assert_array_equal(g2.cvs, g0.cvs)
    pn = str(tmp_path / "g.gsb")
    nad2bin_convert(text, pn, "ntv2")
    gn = read_ntv2(pn)[0]
    assert gn.lim == g0.lim
    # ntv2 stores arc-seconds float32: equal to float32 rounding
    np.testing.assert_allclose(gn.cvs, g0.cvs, rtol=2e-7, atol=1e-18)


@pytest.mark.skipif(not __import__("os").path.isfile(_NAD2BIN),
                    reason="reference nad2bin not built")
@pytest.mark.parametrize("fmt", ["ctable", "ctable2", "ntv2"])
@pytest.mark.parametrize("src", ["null", "synth", "query"])
def test_nad2bin_byte_parity(tmp_path, fmt, src):
    import subprocess
    from proj_ray.sources.grids import nad2bin_convert

    if src == "null":
        text = open("/root/reference/nad/null.lla").read()
    elif src == "query":
        # the exact table the grid_shift_lla_compiled oracle query compiles
        from proj_ray.pipelines.queries import _lla_synth_text
        text = _lla_synth_text()
    else:
        text = _synth_lla()
    ref_out = str(tmp_path / f"ref_{fmt}.bin")
    subprocess.run([_NAD2BIN, "-f", fmt, ref_out], input=text.encode(),
                   check=True, capture_output=True)
    my_out = str(tmp_path / f"my_{fmt}.bin")
    nad2bin_convert(text, my_out, fmt)
    a = open(ref_out, "rb").read()
    b = open(my_out, "rb").read()
    assert len(a) == len(b)
    if fmt == "ctable":
        # bytes 120..127 are the dumped cvs heap POINTER (value
        # meaningless; we zero it) — mask it out of the comparison
        a = a[:120] + b"\0" * 8 + a[128:]
        b = b[:120] + b"\0" * 8 + b[128:]
    assert a == b


def test_nad2bin_cli(tmp_path, capsys):
    import io
    from proj_ray.nad2bin import nad2bin_main

    out = str(tmp_path / "cli.ct2")
    rc = nad2bin_main(["-f", "ctable2", out],
                      stdin=io.StringIO(_synth_lla()),
                      stdout=io.StringIO(), stderr=io.StringIO())
    assert rc == 0 and open(out, "rb").read(9) == b"CTABLE V2"
    err = io.StringIO()
    assert nad2bin_main([], stdin=io.StringIO(""), stdout=io.StringIO(),
                        stderr=err) == 1
    assert err.getvalue().startswith("usage: nad2bin")
    assert nad2bin_main(["-f", "bogus", out],
                        stdin=io.StringIO(_synth_lla()),
                        stdout=io.StringIO(), stderr=io.StringIO()) == 3


def test_bad_shapes_raise_value_error_naming_both():
    from proj_ray.sources.grids import _ntv2_rec

    with pytest.raises(ValueError, match=r"\(3, 4\).*\(4, 3\)"):
        VShiftGrid("V", (0.0, 0.0), (0.1, 0.1), (3, 4), np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"'NUM_OREC'.*got 8 and 4"):
        _ntv2_rec(b"NUM_OREC", b"\0" * 4)
    with pytest.raises(ValueError, match=r"got 7 and 8"):
        _ntv2_rec(b"GS_TYPE", b"SECONDS ")
