"""CLI text-filter parity: cs2cs/proj/geod line grammar, '#'
passthrough, '*' error sentinel, -E echo, +to split."""

import io

from proj_ray.cli import cs2cs_main, geod_main, proj_main


def run(main, argv, text):
    out = io.StringIO()
    main(argv, stdin=io.StringIO(text), stdout=out)
    return out.getvalue().splitlines()


def test_cs2cs_golden_line():
    lines = run(cs2cs_main,
                ["+proj=latlong", "+ellps=bessel", "+towgs84=5,0,0",
                 "+to", "+proj=latlong", "+ellps=bessel", "+towgs84=1,0,0", "-E"],
                "0d00'00.000\"W 0d00'00.000\"N 0.0\n"
                "79d00'00.000\"W 45d00'00.000\"N 0.0\n")
    # golden: nad/tv_out.dist:10-11 (exact, incl. rtodms zero-field
    # trimming: '0dE', not '0d0\'0.000"E')
    assert lines[0].endswith("0dE\t0dN 4.000")
    assert "78d59'59.821\"W" in lines[1] and "44d59'59.983\"N" in lines[1]
    assert lines[1].endswith("0.540")


def test_cs2cs_comment_and_sentinel():
    lines = run(cs2cs_main,
                ["+proj=latlong", "+datum=WGS84", "+to", "+proj=merc", "+datum=WGS84",
                 "-f", "%.2f"],
                "# a comment\n10 45\n0 91\n")
    assert lines[0] == "# a comment"
    assert lines[1].startswith("1113194.91")
    assert lines[2].startswith("*\t*")


def test_cs2cs_tail_passthrough():
    lines = run(cs2cs_main,
                ["+proj=latlong", "+datum=WGS84", "+to", "+proj=merc",
                 "+datum=WGS84", "-f", "%.2f"],
                "10 45 7.5 site42 extra words\n")
    # z is printed with oform when -f is given (cs2cs.c:151-155)
    assert lines[0].endswith("7.50 site42 extra words")


def test_proj_inverse_flag():
    f = run(proj_main, ["+proj=merc", "+datum=WGS84", "-f", "%.2f"], "10 45\n")
    x = float(f[0].split("\t")[0])
    b = run(proj_main, ["+proj=merc", "+datum=WGS84", "-I", "-f", "%.8f"],
            f"{x} {f[0].split()[1]}\n")
    lon = float(b[0].split("\t")[0])
    assert abs(lon - 10.0) < 1e-6


def test_geod_equator():
    # inverse mode (-I): lat1 lon1 lat2 lon2 -> al12 al21 s12
    lines = run(geod_main, ["+ellps=WGS84", "-I"], "0d 0d 0d 1d\n")
    assert lines[0].endswith("111319.491")
    # al21 is the BACK azimuth (geod_interface.c:32): -90 for an
    # east-going equatorial line
    assert lines[0].split("\t")[1].startswith("-90d")


def test_geod_direct_roundtrip():
    # direct (default) mode: lat1 lon1 az12 s12 -> lat2 lon2 al21
    lines = run(geod_main, ["+ellps=WGS84"], "0d 0d 90d 111319.491\n")
    lat2, lon2, al21 = lines[0].split("\t")
    assert lon2.startswith("1d") and lat2.startswith("0d")
    assert al21.startswith("-90d")


def test_geod_fullout_and_oform():
    lines = run(geod_main, ["+ellps=WGS84", "-I", "-a", "-f", "%.6f"],
                "0d 0d 0d 1d\n")
    toks = lines[0].split("\t")
    # lat1 lon1 lat2 lon2 al12 al21 s12
    assert len(toks) == 7
    assert toks[4] == "90.000000" and toks[5] == "-90.000000"


def test_geod_line_mode():
    """+lat_1/+lon_1/+lat_2/+lon_2 +n_S expands the geodesic into
    n_S+1 intermediate points (do_geod, src/geod.c:46-57)."""
    lines = run(geod_main,
                ["+ellps=WGS84", "+lat_1=0", "+lon_1=0",
                 "+lat_2=0", "+lon_2=10", "+n_S=5", "-f", "%.6f"], "")
    assert len(lines) == 6
    assert lines[0].split("\t")[1] == "0.000000"
    assert lines[-1].split("\t")[1] == "10.000000"
    assert lines[3].split("\t")[1] == "6.000000"


def test_cli_init_failure_diagnostics(capsys):
    """Init failures print the reference's diagnostic + pj_strerrno
    message (src/pj_strerrno.c) instead of a traceback, exit 1."""
    import sys

    rc = proj_main(["+proj=nosuchproj"], stdin=io.StringIO("1 1\n"),
                   stdout=io.StringIO())
    err = capsys.readouterr().err
    assert rc == 3
    assert "Rel. 4.9.1, 04 March 2015" in err
    assert "<proj>: \nprojection initialization failure" in err
    assert "cause: unknown projection id" in err
    assert err.rstrip().endswith("program abnormally terminated")

    # lazy grid loading (pj_apply_gridshift/pj_gc semantics): a
    # missing catalog/grid does NOT fail init — each point fails with
    # the per-line pj_transform() diagnostic instead
    out = io.StringIO()
    rc = cs2cs_main(["+proj=latlong", "+catalog=missing.csv", "+ellps=WGS84",
                     "+to", "+proj=latlong", "+datum=WGS84"],
                    stdin=io.StringIO("0 0\n"), stdout=out)
    err = capsys.readouterr().err
    assert rc == 0
    assert out.getvalue().startswith("*\t* ")
    assert "pj_transform(): no system list, errno: 2" in err

    rc = geod_main(["+ellps=nosuchell"], stdin=io.StringIO("0d 0d 0d 1d\n"),
                   stdout=io.StringIO())
    err = capsys.readouterr().err
    assert rc == 1 and "<geod>: \nellipse setup failure" in err


def test_cs2cs_catalog_missing_grid_lane_errno(tmp_path, monkeypatch, capsys):
    """A point that selects a catalog entry whose grid file is missing
    fails alone, with the reference's -38; a point outside that entry
    passes through."""
    (tmp_path / "cat.csv").write_text(
        "gridname,ll_long,ll_lat,ur_long,ur_lat,priority,date\n"
        "nope.ct2,-10,-10,10,10,0,2000.0\n")
    monkeypatch.setenv("PROJ_LIB", str(tmp_path))
    lines = run(cs2cs_main, ["+proj=latlong", "+catalog=cat.csv", "+ellps=WGS84",
                             "+to", "+proj=latlong", "+datum=WGS84"], "0 0\n50 50\n")
    err = capsys.readouterr().err
    assert lines == ["*\t* 0.000", "50dE\t50dN 0.000"]
    assert "line 1\npj_transform(): failed to load datum shift file" in err
    assert "line 2" not in err and "tolerance condition" not in err


def test_proj_S_factors_annotation():
    """-S appends '\\t<h k s omega a b>' (src/proj.c:104-108,213-218)."""
    lines = run(proj_main, ["+proj=merc", "+ellps=WGS84", "-S"], "0 45\n")
    assert "<" in lines[0] and lines[0].endswith(">")
    vals = lines[0].split("<")[1].rstrip(">").split()
    h, k, s, omega, a, b = map(float, vals)
    # values are %g-printed (6 significant digits, proj.c:213)
    assert abs(h - k) < 1e-5          # merc is conformal
    assert abs(s - h * k) < 1e-4
    assert abs(omega) < 1e-3
    # each -S line starts with the per-line grammar's bytes for that
    # line, also where a token overflows or reads as a hemisphere letter
    text = "0 45\nnan 45\n1e999 45\n10 1e999\n"
    want = ["0.00\t5591295.92", "0.00\t0.00an 45", "*\t*1e999 45",
            "*\t* 1e999"]
    assert run(proj_main, ["+proj=merc", "+ellps=WGS84"], text) == want
    annotated = run(proj_main, ["+proj=merc", "+ellps=WGS84", "-S"], text)
    assert [ln.rsplit("\t<", 1)[0] for ln in annotated] == want


def test_proj_S_annotates_the_parsed_lanes():
    """The -S annotation is the scale factors at the point the line
    grammar parsed: 'nan 45' reads as (0, 0) ('n' is a hemisphere
    letter, 'an' garbage), so it is annotated as '0 0', not '0 45'."""
    argv = ["+proj=utm", "+zone=31", "+ellps=WGS84", "-S"]
    lines = run(proj_main, argv, "nan 45\n0 0\n0 45\n")
    ann = [ln.rsplit("\t<", 1)[1] for ln in lines]
    assert ann[0] == ann[1] != ann[2]


def test_proj_V_verbose_factors():
    """-V verbose block (src/proj.c:152-244): conformal tmerc shows
    h == k, s == h*k, omega == 0, and the textbook convergence
    (~ sin(phi) * dlam = 1.4630 deg at 2E 47N)."""
    lines = run(proj_main, ["+proj=tmerc", "+lon_0=0", "+ellps=WGS84", "-V"],
                "2 47\n")
    txt = "\n".join(lines)
    assert "Meridian scale (h) : 1.00028426" in txt
    assert "Parallel scale (k) : 1.00028426" in txt
    assert "Areal scale (s):     1.00056860" in txt
    assert "Angular distortion (w): 0.000" in txt
    assert "Meridian/Parallel angle: 90.00000" in txt
    assert "Convergence : 1d27'46.751\" [ 1.46298636 ]" in txt


# sha256 of each listing's full output, frozen from the descr.py and
# crs.py tables; any change to a description, the order or a format shows
_LISTING_SHA256 = {
    "-l": "085401a8df70ed93d54eb14c8fc1b1a034cade115d682d3c23dcc413f4ac31bd",
    "-lp": "085401a8df70ed93d54eb14c8fc1b1a034cade115d682d3c23dcc413f4ac31bd",
    "-lP": "634f08355188b9b7dae8647ea5c02aa0d3386963fa6b6ab683d666441d590ff5",
    "-le": "c84c0b692282e999ba1c7fc14f23030af339e851f1052e15e395c8b23f7f3a71",
    "-lu": "8772cc0daee059a78d92b96f19ca63dca582374552d411bbc2b4dc249d75ce41",
    "-ld": "9ab031f7ed681580c88f76df24b7caa07b4e233189016525a3483a24fa0da88b",
    "-l=stere":
        "b724969f857ba5bf42c9925d4e385710c592760a33dfd4e920dceb667dc42575",
}


def test_proj_listings():
    import hashlib

    for fl, minlen, probe in [("-l", 130, "merc : Mercator"),
                              ("-lp", 130, "aea : Albers Equal Area"),
                              ("-lP", 300, "\tlat_1= lat_2="),
                              ("-le", 43, "WGS 84"),
                              ("-lu", 21, "U.S. Surveyor's Foot"),
                              ("-ld", 11, "North_American_Datum_1927"),
                              ("-l=stere", 1, "stere : Stereographic")]:
        out = io.StringIO()
        proj_main([fl], stdin=io.StringIO(""), stdout=out)
        text = out.getvalue()
        lines = text.splitlines()
        assert len(lines) >= minlen, fl
        assert any(probe in ln for ln in lines), (fl, probe)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == _LISTING_SHA256[fl]), fl


def test_proj_T_chebyshev():
    """-T emits the gen_cheb/p_series dump (src/gen_cheb.c): header,
    audit line, pr_list block, the F-line, packed coefficient rows
    and the residual-sums trailer.  The coefficients themselves
    reconstruct the projection to the requested resolution."""
    lines = run(proj_main,
                ["+proj=utm", "+zone=31", "+ellps=WGS84",
                 "-T", "0,6,40,50,-3,12,12"], "")
    assert lines[0] == "#proj_Chebyshev"
    assert lines[1] == "#    run-line:"
    assert lines[2].startswith("# proj -T")
    fline = next(ln for ln in lines if ln.startswith("F,"))
    assert fline == "F,3,0,6,40,50"
    assert any(ln.startswith("u: ") for ln in lines)
    assert any(ln.startswith("v: ") for ln in lines)
    assert lines[-1] == "#end_proj_Chebyshev"
    sums = next(ln for ln in lines if ln.startswith("# |u,v| sums"))
    su, sv = (float(t) for t in sums.split()[3:5])
    # residual below the requested half-resolution 10^-3 * 0.5
    assert abs(su) < 5e-4 and abs(sv) < 5e-4

    # Chebyshev reconstruction check: evaluate the dumped series at a
    # midpoint and compare against the real transform
    import re

    import numpy as np

    from proj_ray.transform import make_transform

    rows = {"u": {}, "v": {}}
    cur = None
    for ln in lines:
        m = re.match(r"([uv]): \d+$", ln)
        if m:
            cur = m.group(1)
            continue
        if cur and re.match(r"\d+ \d+", ln):
            toks = ln.split()
            rows[cur][int(toks[0])] = [float(x) for x in toks[2:]]
    def cheb_eval(coef_rows, x, y):
        # x, y normalized to [-1, 1]
        total = 0.0
        for i, cs in coef_rows.items():
            ti = np.cos(i * np.arccos(x)) * (0.5 if i == 0 else 1.0)
            for j, c in enumerate(cs):
                tj = np.cos(j * np.arccos(y)) * (0.5 if j == 0 else 1.0)
                total += c * ti * tj
        return total
    lon, lat = 2.5, 46.0
    xn = (lon - 3.0) / 3.0
    yn = (lat - 45.0) / 5.0
    t = make_transform("+proj=latlong +ellps=WGS84",
                       "+proj=utm +zone=31 +ellps=WGS84")
    X, Y, _ = t(np.array([lon]), np.array([lat]))
    assert abs(cheb_eval(rows["u"], xn, yn) - X[0]) < 0.5
    assert abs(cheb_eval(rows["v"], xn, yn) - Y[0]) < 0.5


def test_proj_v_monitor():
    """-v prints the pj_pr_list monitor dump (src/pj_pr_list.c)."""
    lines = run(proj_main, ["+proj=utm", "+zone=31", "+ellps=WGS84", "-v"], "")
    assert lines[0] == "#Universal Transverse Mercator (UTM)"
    assert any(ln.startswith("# +proj=utm") for ln in lines)


def test_proj_binary_pair_io():
    """-b/-i/-o binary pair records (proj.c:66-68,112-114): little-
    endian float64 (u, v), radians on the geographic side."""
    import struct

    import numpy as np

    lon, lat = np.radians(3.0), np.radians(46.5)
    inb = io.BytesIO(struct.pack("<dd", lon, lat))
    outb = io.BytesIO()
    rc = proj_main(["+proj=utm", "+zone=31", "+ellps=WGS84", "-b"],
                   stdin=inb, stdout=outb)
    assert rc == 0
    x, y = struct.unpack("<dd", outb.getvalue())
    assert abs(x - 500000.0) < 1e-5   # central meridian of zone 31
    # binary inverse roundtrip
    outb2 = io.BytesIO()
    proj_main(["+proj=utm", "+zone=31", "+ellps=WGS84", "-b", "-I"],
              stdin=io.BytesIO(struct.pack("<dd", x, y)), stdout=outb2)
    lo, la = struct.unpack("<dd", outb2.getvalue())
    assert abs(np.degrees(lo) - 3.0) < 1e-9
    assert abs(np.degrees(la) - 46.5) < 1e-9
    # -i: binary in, text out
    class _S:
        pass

    s = _S()
    s.buffer = io.BytesIO(struct.pack("<dd", lon, lat))
    outs = io.StringIO()
    proj_main(["+proj=utm", "+zone=31", "+ellps=WGS84", "-i", "-f", "%.3f"],
              stdin=s, stdout=outs)
    assert outs.getvalue().startswith("500000.000\t")


def test_logger_hook():
    """pj_log hook surface (src/pj_log.c): custom sinks receive error
    and (level-gated) debug messages; app_data is threaded through."""
    from proj_ray.log import (PJ_LOG_DEBUG_MAJOR, PJ_LOG_ERROR, pj_log,
                              set_log_level, set_logger)

    got = []
    set_logger(lambda app, lvl, msg: got.append((app, lvl, msg)), app_data="A")
    old = set_log_level(0)
    try:
        pj_log(PJ_LOG_ERROR, "boom")
        pj_log(PJ_LOG_DEBUG_MAJOR, "hidden")       # gated out at level 0
        set_log_level(PJ_LOG_DEBUG_MAJOR)
        pj_log(PJ_LOG_DEBUG_MAJOR, "visible")
        assert got == [("A", PJ_LOG_ERROR, "boom"),
                       ("A", PJ_LOG_DEBUG_MAJOR, "visible")]
        # library emission points route through the hook: a failing CLI
        # init logs an error
        got.clear()
        proj_main(["+proj=nosuchproj"], stdin=io.StringIO(""),
                  stdout=io.StringIO())
        assert any(lvl == PJ_LOG_ERROR and "unknown projection id" in msg
                   for _, lvl, msg in got)
    finally:
        set_logger(None)
        set_log_level(old)


def test_proj_m_multiplier():
    """-m cartesian multiplier (proj.c:364-377): '1:25000' scales the
    projected output by 1/25000; with -I the input is prescaled by the
    inverse factor."""
    base = run(proj_main, ["+proj=merc", "+ellps=WGS84", "-f", "%.4f"],
               "10 45\n")
    x0, y0 = map(float, base[0].split("\t"))
    scaled = run(proj_main, ["+proj=merc", "+ellps=WGS84", "-f", "%.4f",
                             "-m", "1:25000"], "10 45\n")
    x1, y1 = map(float, scaled[0].split("\t"))
    assert abs(x1 - x0 / 25000.0) < 1e-3 and abs(y1 - y0 / 25000.0) < 1e-3
    # inverse roundtrip through the same scale
    back = run(proj_main, ["+proj=merc", "+ellps=WGS84", "-I", "-m",
                           "1:25000", "-f", "%.8f"], f"{x1} {y1}\n")
    lon, lat = map(float, back[0].split("\t"))
    assert abs(lon - 10.0) < 1e-5 and abs(lat - 45.0) < 1e-5


def test_geod_W_fixed_width():
    """-W<n>: constant-width DMS fields (set_rtodms con_w) — zero-
    padded minutes/seconds, no trimming."""
    lines = run(geod_main, ["+ellps=WGS84", "-I", "-W4"],
                "0d 0d 0d 1d\n")
    al12 = lines[0].split("\t")[0]
    assert al12 == "90d00'00.0000\""
    # trimmed mode for comparison
    lines2 = run(geod_main, ["+ellps=WGS84", "-I", "-w4"], "0d 0d 0d 1d\n")
    assert lines2[0].split("\t")[0] == "90d"


def test_w_argument_missing_aborts():
    """-w / -W with a missing or non-digit argument aborts with a
    non-zero status like the reference's emess(1, ...) (proj.c:384,
    cs2cs.c:274, geod.c:165)."""
    for main in (proj_main, cs2cs_main, geod_main):
        for bad in ("-w", "-W", "-Wx"):
            out = io.StringIO()
            rc = main(["+proj=latlong", "+ellps=WGS84", bad],
                      stdin=io.StringIO(""), stdout=out)
            assert rc == 1


def test_proj_V_analytic_markers_and_emess(capsys):
    """-V parity details (src/proj.c:152-244, emess.c): forward oform
    default %.2f, analytic '*' markers for lcc (IS_ANAL_HK+CONV),
    clamped aasin at conformal points, and emess-formatted error lanes
    with the '<stdin>, line N' context on stderr."""
    lines = run(proj_main, ["-V", "+proj=lcc", "+lat_1=33", "+lat_2=45",
                            "+ellps=clrk66"], "12.5 48.2\n")
    txt = "\n".join(lines)
    assert "Meridian scale (h)*: " in txt
    assert "Parallel scale (k)*: " in txt
    assert "Convergence*: " in txt
    # forward default is %.2f (proj.c:463-464), not vprocess's %.3f
    east = next(l for l in lines if l.startswith("Easting"))
    assert len(east.split(".")[-1]) == 2
    # thetap defined (clamped aasin, not nan) at the conformal point
    theta = next(l for l in lines if l.startswith("Meridian/Parallel"))
    assert "nan" not in theta

    out = io.StringIO()
    rc = proj_main(["-V", "+proj=tmerc", "+lon_0=9", "+ellps=WGS84"],
                   stdin=io.StringIO("12 95\n1e999 0\nx y\n"), stdout=out)
    err = capsys.readouterr().err
    assert "latitude or longitude exceeded limits" in err
    assert "lon-lat input conversion failure" in err
    assert "<proj>: while processing file: <stdin>, line 1" in err
    assert "while processing file: <stdin>, line 2" in err
    # 'x y' parses as (0, 0) like the C dmstor (non-digit -> 0.0)
    assert "Longitude: 0dE [ 0 ]" in out.getvalue()

    # inverse: strtod semantics — garbage parses as (0,0), no error
    out = io.StringIO()
    proj_main(["-V", "-I", "+proj=tmerc", "+lon_0=9", "+ellps=WGS84"],
              stdin=io.StringIO("junk line\n"), stdout=out)
    body = out.getvalue()
    assert "junk line" in body and "Longitude: 9dE [ 9 ]" in body


def test_cs2cs_degenerate_consumption_and_lane_emess(capsys):
    """cs2cs process() parity (src/cs2cs.c:60-160): dmstor/strtod
    consumption (garbage -> 0.0, remainder echoed, overflow -> '*'
    with the consumed z printed), '#' tag passthrough only at col 1,
    and per-line emess(-3, "pj_transform(): <cause>") on stderr."""
    args = ["+proj=latlong", "+ellps=WGS84", "+to",
            "+proj=utm", "+zone=31", "+ellps=WGS84"]
    lines = run(cs2cs_main, args, "5\n\nx y\n2 x\n  # not tag\n2 95\n")
    # single token / blank / garbage all become coordinates (0-filled)
    assert lines[0].startswith("722595.44\t0.00")
    assert lines[1].startswith("166021.44\t0.00")
    assert lines[2].startswith("166021.44\t0.00")
    assert lines[3] == "388719.35\t0.00 0.00x"     # 'x' echoed, ws eaten
    assert lines[4] == "166021.44\t0.00 0.00# not tag"
    assert lines[5] == "*\t* 0.00"
    err = capsys.readouterr().err
    assert ("<cs2cs>: while processing file: <stdin>, line 6\n"
            "pj_transform(): latitude or longitude exceeded limits") in err
    # only the transform-failed line reports; parse quirks do not
    assert err.count("pj_transform()") == 1


def test_cs2cs_lane_errno_mapping(capsys):
    """-14 only from the pj_fwd lat check and the tmerc/utm lam guard
    (src/PJ_tmerc.c:31-36); other kernel failures report F_ERROR -20."""
    run(cs2cs_main, ["+proj=latlong", "+ellps=WGS84", "+to", "+proj=utm",
                     "+zone=11", "+ellps=WGS84"], "2 47\n")
    assert "latitude or longitude exceeded limits" in capsys.readouterr().err
    run(cs2cs_main, ["+proj=latlong", "+ellps=WGS84", "+to", "+proj=lcc",
                     "+lat_1=33", "+lat_2=45", "+ellps=clrk66"], "0 -90\n")
    assert "tolerance condition error" in capsys.readouterr().err


def test_run_line_parsing_parity_pins(capsys, tmp_path):
    """C-exact run-line loop (_c_args): usage banners, combined flags,
    invalid options, listing exit, -e sentinel, file inputs."""
    # no args -> usage banner on stderr, exit 0 (proj.c:254-258)
    assert proj_main([], stdin=io.StringIO(""), stdout=io.StringIO()) == 0
    err = capsys.readouterr().err
    assert err.startswith("Rel. 4.9.1, 04 March 2015\nusage: proj [ -beE")

    # invalid option aborts via emess with rc 1
    rc = proj_main(["-Q", "+proj=utm", "+zone=31", "+ellps=WGS84"],
                   stdin=io.StringIO(""), stdout=io.StringIO())
    assert rc == 1 and "invalid option: -Q" in capsys.readouterr().err

    # combined flags: -rs == -r -s (reversed in AND out)
    out = run(proj_main, ["-rs", "+proj=utm", "+zone=31", "+ellps=WGS84"],
              "47 2\n")
    out2 = run(proj_main, ["-r", "-s", "+proj=utm", "+zone=31",
                           "+ellps=WGS84"], "47 2\n")
    assert out == out2 and out[0].split("\t")[0] == "5205649.35"

    # -e replaces the oterr sentinel (proj.c:43, -e at 337-341)
    out = run(proj_main, ["-e", "NOPE", "+proj=utm", "+zone=11",
                          "+ellps=WGS84"], "2 47\n")
    assert out == ["NOPE"]

    # listing exits 0 BEFORE later (invalid) args are seen
    rc = proj_main(["-le", "-Q"], stdin=io.StringIO(""),
                   stdout=io.StringIO())
    assert rc == 0

    # input FILE arguments; '-' mixes stdin; missing file -> Sys errno
    # line on stderr and the file is skipped (cs2cs.c:415-425)
    infile = tmp_path / "in.txt"
    infile.write_text("2 47\n")
    out = io.StringIO()
    rc = cs2cs_main(["+proj=latlong", "+ellps=WGS84", "+to", "+proj=utm",
                     "+zone=31", "+ellps=WGS84", str(infile), "/no/such/file",
                     "-"], stdin=io.StringIO("3 48\n"), stdout=out)
    err = capsys.readouterr().err
    assert rc == 0
    assert "Sys errno: 2: <system mess. texts unavail.>" in err
    assert "/no/such/file" in err
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("423974.69\t") and len(lines) == 2


def test_custom_tag_fast_path_bails():
    """A -t tag that can begin a numeric line (-t1, -t-, -t.) must be
    honored by the vectorized fast paths: tagged lines echo verbatim
    instead of parsing as data (ADVICE r3; pinned byte-identical to
    the built reference binaries in validate_against_reference.py)."""
    lines = "1 2\n3 4\n-5 6\n.5 .25\n12 34 tail\n"
    out = io.StringIO()
    rc = proj_main(["-t1", "+proj=merc", "+ellps=WGS84"],
                   stdin=io.StringIO(lines), stdout=out)
    got = out.getvalue().splitlines()
    assert rc == 0
    assert got[0] == "1 2"                       # tagged: echoed
    assert got[1] == "333958.47\t442661.64"      # parsed
    assert got[4] == "12 34 tail"                # starts with '1': echoed
    out = io.StringIO()
    proj_main(["-t-", "+proj=merc", "+ellps=WGS84"],
              stdin=io.StringIO(lines), stdout=out)
    got = out.getvalue().splitlines()
    assert got[2] == "-5 6"                      # '-'-tagged: echoed
    out = io.StringIO()
    proj_main(["-t.", "+proj=merc", "+ellps=WGS84"],
              stdin=io.StringIO(lines), stdout=out)
    assert out.getvalue().splitlines()[3] == ".5 .25"


def test_runline_exact_duplicate_param_listed_twice():
    """pj_mkparam appends run-line tokens UNCONDITIONALLY
    (src/pj_init.c:419): an exact +a=X +a=X repeat keeps both nodes,
    the second printed in the -v NOT-used block (ADVICE r3; verified
    byte-identical to the built reference binary)."""
    out = io.StringIO()
    proj_main(["+proj=merc", "+a=6378137", "+a=6378137", "-v"],
              stdin=io.StringIO("1 1\n"), stdout=out)
    txt = out.getvalue()
    assert txt.count("+a=6378137") == 2
    assert "#--- following specified but NOT used" in txt
    assert "\n# +a=6378137\n" in txt  # the shadowed node, own line


def test_init_failure_routed_to_caller_stderr():
    """_init_failure writes to the caller-provided stderr stream, not
    the process stream (ADVICE r3)."""
    err = io.StringIO()
    out = io.StringIO()
    rc = proj_main(["+init=nosuchfile:0", "+ellps=WGS84"],
                   stdin=io.StringIO(""), stdout=out, stderr=err)
    assert rc == 3
    assert "projection initialization failure" in err.getvalue()
    err = io.StringIO()
    rc = cs2cs_main(["+init=nosuchfile:0", "+to", "+proj=merc",
                     "+ellps=WGS84"], stdin=io.StringIO(""),
                    stdout=io.StringIO(), stderr=err)
    assert rc == 3
    assert "projection initialization failure" in err.getvalue()


# per-line bytes of an overflowing first field (dmstor keeps the start
# position, so nothing is consumed and the whole line is the tail)
_OVERFLOW_LINES = [
    (cs2cs_main, ["+proj=latlong", "+datum=WGS84", "+to", "+proj=merc",
                  "+datum=WGS84"], "1e999 45", "10 45", "10d30'E 45",
     "*\t* inf 45"),
    (proj_main, ["+proj=merc", "+ellps=WGS84"], "1e999 45", "10 45",
     "10d30'E 45", "*\t*1e999 45"),
    (geod_main, ["+ellps=WGS84", "-I", "-f", "%.4f"], "1e999 0 10 10",
     "0 0 0 1", "0d30'N 0 0 1", "-90.0000\tnan\tnan1e999 0 10 10"),
]


def test_overflow_line_does_not_depend_on_its_neighbours(capsys):
    """An overflowing line prints the same stdout and stderr bytes next
    to a plain line as next to a DMS line: the per-line grammar's."""
    for main, argv, bad, plain, dms, want in _OVERFLOW_LINES:
        for neighbour in (plain, dms):
            lines = run(main, argv, f"{neighbour}\n{bad}\n{neighbour}\n")
            assert lines[1] == want, (argv, neighbour, lines)
            assert capsys.readouterr().err == "", (argv, neighbour)


def test_one_transform_call_per_chunk(monkeypatch):
    """40,000 lines (two chunks), each chunk holding one DMS line and
    one tag line among plain lines, make exactly two transform calls."""
    import proj_ray.cli as cli
    from proj_ray.kernels import geodesic

    calls = []

    def text(plain, dms):
        lines = [plain] * 40000
        for k in (0, 32768):
            lines[k + 5] = dms
            lines[k + 9] = "# tag"
        return "\n".join(lines) + "\n"

    class Counted:
        def __init__(self, t):
            self.t = t

        def __getattr__(self, name):
            return getattr(self.t, name)

        def __call__(self, *a, **kw):
            calls.append(1)
            return self.t(*a, **kw)

    make = cli.make_transform
    monkeypatch.setattr(cli, "make_transform",
                        lambda *a, **kw: Counted(make(*a, **kw)))
    run(cs2cs_main, ["+proj=latlong", "+datum=WGS84", "+to", "+proj=merc",
                     "+datum=WGS84"], text("10 45", "10d30'E 45"))
    assert len(calls) == 2

    calls.clear()
    fwd = cli._PjFwdFilter.__call__
    monkeypatch.setattr(cli._PjFwdFilter, "__call__",
                        lambda self, *a: calls.append(1) or fwd(self, *a))
    run(proj_main, ["+proj=merc", "+ellps=WGS84"], text("10 45",
                                                        "10d30'E 45"))
    assert len(calls) == 2

    calls.clear()
    inv = geodesic.geod_inverse
    monkeypatch.setattr(geodesic, "geod_inverse",
                        lambda *a, **kw: calls.append(1) or inv(*a, **kw))
    run(geod_main, ["+ellps=WGS84", "-I", "-f", "%.6f"],
        text("0 0 0 1", "0d30'N 0 0 1"))
    assert len(calls) == 2


def test_geod_nonfinite_lanes_are_quiet(capsys):
    """Non-finite geod lanes print nan and write nothing to stderr: no
    numpy RuntimeWarning from the geodesic kernels."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["-I", "-f", "%.4f"], ["-f", "%.4f"]):
            lines = run(geod_main, ["+ellps=WGS84"] + argv,
                        "1e999 0 10 10\n0 1e999 10 10\n0 0 0 1\n")
            assert "nan" in lines[0] and "nan" in lines[1]
            assert "nan" not in lines[2]
    assert capsys.readouterr().err == ""


def test_geod_dms_output_prints_nonfinite_fields(capsys):
    """geod's default DMS output prints a non-finite field as the token
    that -f %.4f prints for it ('nan'), keeps the finite fields in DMS,
    and exits 0 with nothing on stderr (rtodms used to raise on nan)."""
    cases = [(["-I"], "1e999 0 10 10", "-90d\tnan\tnan1e999 0 10 10"),
             ([], "1e999 0 45 10", "nan\tnan\tnan 0 45 10"),
             ([], "10 10 45 1e999", "nan\tnan\tnan")]
    for argv, line, want in cases:
        text = f"0 0 0 1\n{line}\n"
        out = io.StringIO()
        rc = geod_main(["+ellps=WGS84"] + argv, stdin=io.StringIO(text),
                       stdout=out)
        lines = out.getvalue().splitlines()
        assert rc == 0 and lines[1] == want, (argv, lines)
        assert "d" in lines[0].split("\t")[0]
        num = run(geod_main, ["+ellps=WGS84", "-f", "%.4f"] + argv, text)
        assert ([f == "nan" for f in num[1].split("\t")]
                == [f == "nan" for f in want.split("\t")])
    assert capsys.readouterr().err == ""


def _S_lines(seed, n, inverse):
    """Seeded proj -S input with finite lanes only: plain decimals, DMS
    (forward) or metres (inverse), trailing labels and '#' comments."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        kind = rng.uniform()
        if inverse:
            x = rng.uniform(200_000.0, 800_000.0)
            y = rng.uniform(-9_000_000.0, 9_000_000.0)
            line = f"{x:.3f} {y:.3f}"
        else:
            lon, lat = rng.uniform(-6.0, 12.0), rng.uniform(-84.0, 89.0)
            if kind < 0.3:
                line = (f"{abs(int(lon))}d{int(rng.integers(0, 60))}'"
                        f"{rng.uniform(0, 60):.2f}\"{'EW'[lon < 0]} "
                        f"{abs(int(lat))}d{int(rng.integers(0, 60))}'"
                        f"{'NS'[lat < 0]}")
            else:
                line = f"{lon:.6f} {lat:.6f}"
        if 0.9 < kind < 0.95:
            line += " site label"
        elif kind >= 0.95:
            line = "# a comment"
        out.append(line)
    return "\n".join(out) + "\n"


_S_PINS = [
    (["+proj=utm", "+zone=31", "+ellps=WGS84"], 0,
     "9d8e1121bf812adf592442bec69e58b25dfb64a0f2d83f30fa00279c2242eb4a"),
    (["+proj=utm", "+zone=31", "+ellps=WGS84", "-E", "-f", "%.4f"], 0,
     "7d4c83bc43538de491ed46f2a329e09b5222be95f506005b905e8b6eee8f5428"),
    (["+proj=lcc", "+lat_1=33", "+lat_2=45", "+lon_0=3", "+ellps=GRS80"], 0,
     "5d09cbbd47f4204aa6e214e617daf4241e649d7c58038395f2f3a0a5cb3eb5f8"),
    (["+proj=merc", "+ellps=WGS84"], 0,
     "77b46d33f5edd18b3bb9d48536e86916b8b141f7168a90b2e2a91efa1596c0b8"),
    (["+proj=utm", "+zone=31", "+ellps=WGS84", "-I"], 1,
     "7e972710c4994844ac3311b885038b4c2bfcffe29f240c092ae20c59c7f1265c"),
    (["+proj=utm", "+zone=31", "+ellps=WGS84", "-I", "-f", "%.6f"], 1,
     "9f1df648aa18670e11bfae7cbe4d6cac9b4a3365686506c50f80773d9f4af4db"),
]


def test_proj_S_output_pinned():
    """proj -S stdout over seeded finite inputs (plain, DMS, labels,
    comments; forward and -I) keeps its sha256."""
    import hashlib

    for k, (argv, inverse, want) in enumerate(_S_PINS):
        out = io.StringIO()
        proj_main(argv + ["-S"], stdin=io.StringIO(_S_lines(k, 400, inverse)),
                  stdout=out)
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert got == want, (argv, got)
