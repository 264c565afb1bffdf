"""Byte pins for the cs2cs, proj and geod text filters over a seeded
corpus of line kinds: plain decimals, DMS, custom -t tags, '#'
comments, blank lines, garbage, trailing labels, overflowing tokens,
negative zero, printf rounding ties, leading/trailing whitespace,
out-of-domain points, and inputs longer than one 32,768-line chunk
with a DMS line in the first chunk and transform failures on both sides
of the chunk boundary (so the emess line numbers are checked).

Every case pins the sha256 of stdout, the sha256 of stderr and the exit
code of the tool's ``*_main``.  ``invproj``/``invgeod`` are ``proj``/
``geod`` with ``-I`` in front of the arguments, which is what their
entry modules run.  Numpy warnings are silenced here; their absence is
checked in test_cli.py."""

import contextlib
import hashlib
import io
import warnings

import numpy as np
import pytest

from proj_ray.cli import cs2cs_main, geod_main, proj_main


def run_tool(main, argv, text):
    """(stdout, stderr, exit code) of one filter run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if main is geod_main:
            with contextlib.redirect_stderr(err):
                rc = main(argv, stdin=io.StringIO(text), stdout=out)
        else:
            rc = main(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
    return out.getvalue(), err.getvalue(), rc


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---- line kinds ---------------------------------------------------------

def _dms(rng, hemi):
    d = int(rng.integers(0, 80))
    m = int(rng.integers(0, 60))
    s = rng.uniform(0, 60)
    return f"{d}d{m}'{s:.3f}\"{hemi[int(rng.integers(0, 2))]}"


def _ll_kinds(rng):
    """Geographic 'lon lat [z]' line kinds (cs2cs / proj forward)."""
    lon = rng.uniform(-80, 80)
    lat = rng.uniform(-80, 80)
    z = rng.uniform(-100, 100)
    return {
        "plain": f"{lon:.9f} {lat:.9f}",
        "plain_z": f"{lon:.9f} {lat:.9f} {z:.3f}",
        "far": f"{rng.uniform(100, 179):.7f} {lat:.7f}",
        "dms": f"{_dms(rng, 'EW')} {_dms(rng, 'NS')}",
        "dms_mixed": f"{lon:.4f} {_dms(rng, 'NS')}",
        "comment": "# a comment line",
        "blank": "",
        "garbage": "x y",
        "half": f"{lon:.3f} x",
        "single": f"{lon:.3f}",
        "label": f"{lon:.6f} {lat:.6f} site{int(rng.integers(0, 99))}",
        "label_z": f"{lon:.6f} {lat:.6f} {z:.2f} label  two words",
        "zprefix": f"{lon:.6f} {lat:.6f} 7.5abc",
        "overflow": "1e999 45",
        "overflow_lat": "10 1e999",
        "negzero": "-0.0 -0.0",
        "tie": "2.675 0.005",
        "tie_neg": "-0.005 -2.675 1.005",
        "lead_ws": f"  {lon:.5f}\t{lat:.5f}",
        "trail_ws": f"{lon:.5f} {lat:.5f} ",
        "dotlead": ".5 .25",
        "sci": f"{lon:.3e} {lat:.3e}",
        "hemi": "N 45",
        "offrange": "0 91",
        "offrange_lon": "181 0 5",
        "nan_tok": "nan 45",
        "hash_mid": "  # not a tag",
    }


def _xy_kinds(rng, xs, ys):
    """Projected 'x y [z]' line kinds (cs2cs / proj inverse)."""
    x = rng.uniform(*xs)
    y = rng.uniform(*ys)
    return {
        "plain": f"{x:.3f} {y:.3f}",
        "plain_z": f"{x:.3f} {y:.3f} {rng.uniform(-50, 50):.2f}",
        "dms": f"{_dms(rng, 'EW')} {_dms(rng, 'NS')}",
        "comment": "# a comment line",
        "blank": "",
        "garbage": "x y",
        "label": f"{x:.2f} {y:.2f} expected-X expected-Y label",
        "overflow": "1e999 45",
        "negzero": "-0.0 -0.0",
        "tie": "2.675 0.005",
        "lead_ws": f"  {x:.2f}\t{y:.2f}",
        "trail_ws": f"{x:.2f} {y:.2f} ",
        "dotlead": ".5 .25",
        "strtod_tail": f"{x:.1f}m {y:.1f}",
        "huge": "1e30 1e30",
    }


def _geod_kinds(rng, inverse):
    """'lat1 lon1 lat2 lon2' (inverse) or 'lat1 lon1 az12 s12' lines."""
    a, b = rng.uniform(-80, 80), rng.uniform(-179, 179)
    if inverse:
        c, d = rng.uniform(-80, 80), rng.uniform(-179, 179)
    else:
        c, d = rng.uniform(-180, 180), rng.uniform(1, 1.9e7)
    plain = f"{a:.7f} {b:.7f} {c:.7f} {d:.7f}"
    return {
        "plain": plain,
        "dms": f"{_dms(rng, 'NS')} {_dms(rng, 'EW')} {c:.4f} {d:.3f}",
        "comment": "# a comment line",
        "blank": "",
        "garbage": "x y 1 2",
        "short": f"{a:.3f} {b:.3f} {c:.3f}",
        "label": plain + " carried tail  text",
        "negzero": "-0.0 -0.0 45.0 90.0",
        "tie": "2.675 0.005 1.005 2.675",
        "lead_ws": "  " + plain.replace(" ", "\t", 1),
        "trail_ws": plain + " ",
        "dotlead": ".5 .25 1 2",
        "equator": "0 0 0 1",
        "s_prefix": f"{a:.3f} {b:.3f} {c:.3f} 1000m",
    }


# kinds whose output is non-finite. The first DMS cases were pinned
# without them, when rtodms raised on nan; the *_dms_nonfinite cases mix
# them into DMS output, which prints such a field as 'nan'
_GEOD_NONFINITE = {"overflow": "1e999 0 10 10", "nan_tok": "nan 0 10 10"}


def _mix(seed, n, kinds_fn, plain_share=0.6, extra=None):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        kinds = kinds_fn(rng)
        if extra:
            kinds.update(extra)
        names = sorted(kinds)
        if rng.uniform() < plain_share:
            out.append(kinds["plain"])
        else:
            out.append(kinds[names[int(rng.integers(0, len(names)))]])
    return out


def _text(lines):
    return "\n".join(lines) + "\n"


def _big(seed, kinds_fn, n=33000):
    """A plain input longer than one chunk: a DMS line at line 101, and
    out-of-domain lines at 51 (first chunk) and 32,901 (second chunk)."""
    rng = np.random.default_rng(seed)
    lines = [kinds_fn(rng)["plain"] for _ in range(n)]
    lines[100] = "10d30'E 45d15'N"
    lines[50] = "0 91"
    lines[32900] = "0 91"
    return lines


# ---- adversarial inputs: printf ties, negative zero, scientific ----------
# ---- notation, z columns, tails, bad lanes, trailing whitespace ---------

def _parity_cs2cs():
    rng = np.random.default_rng(77)
    lines = [f"{a:.9f} {b:.9f}" for a, b in
             zip(rng.uniform(-179, 179, 500), rng.uniform(-85, 85, 500))]
    lines += ["0 0", "-0.0 -0.0", "0.005 0.005", "-0.005 -0.005",
              "2.675 1.005", "1e-8 -1e-9", "10 45 7.5", "10 45 -0.125",
              "12.5 60 2.675", "0 91", "181 0 5", "10 45 ", "  10 45",
              "10\t45\t3"]
    return lines


def _parity_proj():
    rng = np.random.default_rng(99)
    lines = [f"{a:.9f} {b:.9f}" for a, b in
             zip(rng.uniform(-179, 179, 400), rng.uniform(-85, 85, 400))]
    lines += ["0 0", "-0.0 -0.0", "0.005 0.005", "2.675 1.005",
              "1e-8 -1e-9", "10 45 expected-X expected-Y label",
              "12.5 60 2.675", "0 91", "10 45 ", "  10 45", "10\t45\t3"]
    ilines = [f"{a:.3f} {b:.3f}" for a, b in
              zip(rng.uniform(-2e7, 2e7, 200),
                  rng.uniform(-1.5e7, 1.5e7, 200))]
    return lines, ilines


def _parity_geod():
    rng = np.random.default_rng(17)
    lines = [f"{a:.7f} {b:.7f} {c:.7f} {d:.7f}" for a, b, c, d in
             zip(rng.uniform(-89, 89, 300), rng.uniform(-179, 179, 300),
                 rng.uniform(-89, 89, 300), rng.uniform(-179, 179, 300))]
    lines += ["0 0 0 1", "0 0 0 -1", "-0.0 -0.0 45.0 90.0",
              "10 20 10.0000001 20.0000001",
              "1 2 3 4 carried tail  text", "89.9 0 -89.9 179.9"]
    dlines = [f"{a:.7f} {b:.7f} {az:.7f} {s:.3f}" for a, b, az, s in
              zip(rng.uniform(-89, 89, 200), rng.uniform(-179, 179, 200),
                  rng.uniform(-180, 180, 200), rng.uniform(1, 1.9e7, 200))]
    dlines += ["0 0 90 111319.491 tail", "0 0 90 1e3"]
    return lines, dlines


# ---- cases --------------------------------------------------------------

MERC = ["+proj=latlong", "+datum=WGS84", "+to", "+proj=merc", "+datum=WGS84"]
UTM = ["+proj=latlong", "+ellps=WGS84", "+to", "+proj=utm", "+zone=31",
       "+ellps=WGS84"]
SHIFT = ["+proj=latlong", "+ellps=bessel", "+towgs84=5,0,0", "+to",
         "+proj=latlong", "+ellps=bessel", "+towgs84=1,0,0"]
LCC = ["+proj=latlong", "+ellps=WGS84", "+to", "+proj=lcc", "+lat_1=33",
       "+lat_2=45", "+ellps=clrk66"]
P_MERC = ["+proj=merc", "+ellps=WGS84"]
P_UTM = ["+proj=utm", "+zone=31", "+ellps=WGS84"]
P_TMERC = ["+proj=tmerc", "+lon_0=9", "+ellps=WGS84"]
G = ["+ellps=WGS84"]


def _cases():
    ll = _text(_mix(1, 2500, _ll_kinds))
    ll2 = _text(_mix(2, 1500, _ll_kinds))
    utm_xy = _text(_mix(3, 1500, lambda r: _xy_kinds(r, (2e5, 8e5),
                                                     (4e6, 7e6))))
    merc_xy = _text(_mix(4, 1500, lambda r: _xy_kinds(r, (-2e7, 2e7),
                                                      (-1.5e7, 1.5e7))))
    gi = _text(_mix(5, 300, lambda r: _geod_kinds(r, True),
                    extra=_GEOD_NONFINITE))
    gd = _text(_mix(6, 300, lambda r: _geod_kinds(r, False),
                    extra=_GEOD_NONFINITE))
    gi_dms = _text(_mix(7, 200, lambda r: _geod_kinds(r, True)))
    gd_dms = _text(_mix(8, 200, lambda r: _geod_kinds(r, False)))
    gi_dms_nf = _text(_mix(11, 200, lambda r: _geod_kinds(r, True),
                           extra=_GEOD_NONFINITE))
    gd_dms_nf = _text(_mix(12, 200, lambda r: _geod_kinds(r, False),
                           extra=_GEOD_NONFINITE))
    gi_plain = _text([_geod_kinds(r, True)["plain"] for r in
                      [np.random.default_rng(9)] for _ in range(3000)])
    big_ll = _text(_big(10, _ll_kinds))
    pc_lines = _parity_cs2cs()
    pp_lines, pp_ilines = _parity_proj()
    pg_lines, pg_dlines = _parity_geod()
    pc_txt, pp_txt, pp_itxt = (_text(pc_lines), _text(pp_lines),
                               _text(pp_ilines))
    pg_txt, pg_dtxt = _text(pg_lines), _text(pg_dlines)
    split_base = ["10.123456789 45.987654321", "-179.9 -85.0",
                  "0.001 -0.001"]
    cases = {}

    def add(name, main, argv, text):
        assert name not in cases, name
        cases[name] = (main, argv, text)

    # cs2cs: every -f form over the mixed geographic corpus
    for tag, fl in (("f2", ["-f", "%.2f"]), ("f7", ["-f", "%.7f"]),
                    ("f0", ["-f", "%.0f"]), ("g11", ["-f", "%.11g"]),
                    ("nofmt", [])):
        add(f"cs2cs_utm_mixed_{tag}", cs2cs_main, UTM + fl, ll)
        add(f"cs2cs_merc_mixed_{tag}", cs2cs_main, MERC + fl, ll2)
    add("cs2cs_merc_E", cs2cs_main, MERC + ["-E", "-f", "%.2f"], ll)
    add("cs2cs_utm_r", cs2cs_main, UTM + ["-r", "-f", "%.3f"], ll2)
    add("cs2cs_utm_s", cs2cs_main, UTM + ["-s"], ll2)
    add("cs2cs_utm_e", cs2cs_main, UTM + ["-e", "NOPE"], ll)
    add("cs2cs_merc_Ers", cs2cs_main, MERC + ["-E", "-rs"], ll)
    add("cs2cs_lcc_mixed", cs2cs_main, LCC + ["-f", "%.4f"], ll)
    for tag, fl in (("t1", ["-t1"]), ("tminus", ["-t-"]),
                    ("tdot", ["-t."])):
        add(f"cs2cs_merc_{tag}", cs2cs_main, MERC + fl + ["-f", "%.2f"], ll)
    # latlong output: DMS (default), -w/-W precision, decimal with -f
    add("cs2cs_shift_dms", cs2cs_main, SHIFT, ll2)
    add("cs2cs_shift_w5", cs2cs_main, SHIFT + ["-w5"], ll2)
    add("cs2cs_shift_W2", cs2cs_main, SHIFT + ["-W2", "-E"], ll2)
    add("cs2cs_shift_f7", cs2cs_main, SHIFT + ["-f", "%.7f"], ll2)
    add("cs2cs_utm_I_dms", cs2cs_main, UTM + ["-I"], utm_xy)
    add("cs2cs_utm_I_f7", cs2cs_main, UTM + ["-I", "-f", "%.7f"], utm_xy)
    add("cs2cs_utm_I_E", cs2cs_main, UTM + ["-I", "-E", "-w2", "-s"],
        utm_xy)
    add("cs2cs_utm_I_t1", cs2cs_main, UTM + ["-I", "-t1", "-f", "%.3f"],
        utm_xy)
    add("cs2cs_merc_big", cs2cs_main, MERC + ["-f", "%.2f"], big_ll)
    # adversarial inputs, every -f form
    for tag, fl in (("f2", ["-f", "%.2f"]), ("f7", ["-f", "%.7f"]),
                    ("f0", ["-f", "%.0f"]), ("f2s", ["-f", "%.2f", "-s"])):
        add(f"cs2cs_parity_{tag}", cs2cs_main, MERC + fl, pc_txt)
    add("cs2cs_split_base", cs2cs_main, MERC + ["-f", "%.3f"],
        _text(split_base))
    add("cs2cs_split_trailing", cs2cs_main, MERC + ["-f", "%.3f"],
        _text(split_base + ["5 5 "]))
    add("cs2cs_errno_utm11", cs2cs_main,
        UTM[:4] + ["+zone=11", "+ellps=WGS84"], "2 47\n")
    add("cs2cs_errno_lcc", cs2cs_main, LCC, "0 -90\n")

    # proj: every -f form, -E/-r/-s/-e/-m, inverse, tags
    for tag, fl in (("f2", ["-f", "%.2f"]), ("f7", ["-f", "%.7f"]),
                    ("f0", ["-f", "%.0f"]), ("g11", ["-f", "%.11g"]),
                    ("nofmt", [])):
        add(f"proj_utm_mixed_{tag}", proj_main, P_UTM + fl, ll)
    add("proj_merc_E", proj_main, P_MERC + ["-E"], ll)
    add("proj_merc_r", proj_main, P_MERC + ["-r", "-f", "%.3f"], ll2)
    add("proj_merc_s", proj_main, P_MERC + ["-s"], ll2)
    add("proj_utm_e", proj_main, P_UTM + ["-e", "NOPE"], ll)
    add("proj_merc_m", proj_main, P_MERC + ["-m", "1:2.5", "-f", "%.3f"], ll)
    for tag, fl in (("t1", ["-t1"]), ("tminus", ["-t-"]),
                    ("tdot", ["-t."])):
        add(f"proj_merc_{tag}", proj_main, P_MERC + fl, ll)
    add("proj_merc_I_dms", proj_main, P_MERC + ["-I"], merc_xy)
    add("proj_merc_I_f7", proj_main, P_MERC + ["-I", "-f", "%.7f"], merc_xy)
    add("proj_merc_I_m", proj_main,
        P_MERC + ["-I", "-m", "1:3", "-f", "%.7f"], merc_xy)
    add("proj_merc_I_W2s", proj_main, P_MERC + ["-I", "-W2", "-s"], merc_xy)
    add("proj_merc_I_w4E", proj_main, P_MERC + ["-I", "-w4", "-E"], merc_xy)
    add("invproj_utm", proj_main, ["-I"] + P_UTM, utm_xy)
    add("invproj_utm_f7", proj_main, ["-I"] + P_UTM + ["-f", "%.7f"],
        utm_xy)
    add("proj_merc_big", proj_main, P_MERC, big_ll)
    add("proj_V_tmerc", proj_main, ["-V"] + P_TMERC,
        _text(["12 47", "1e999 0", "x y", "I 500000 5200000", "# tag",
               "12d30'E 47d10'N tail text", "0 1e999", "12 95", "N 45",
               "i junk line", "3 40 rest", "1,5 2"]))
    add("proj_V_inv", proj_main, ["-V", "-I"] + P_TMERC,
        _text(["junk line", "500000 5200000", "1e999 0", "#t"]))
    add("proj_V_lcc", proj_main, ["-V", "+proj=lcc", "+lat_1=33",
                                  "+lat_2=45", "+ellps=clrk66"],
        _text(["12.5 48.2", "-100 40 label"]))
    # adversarial inputs and single odd lines
    for tag, fl in (("f2", ["-f", "%.2f"]), ("f7", ["-f", "%.7f"]),
                    ("f2s", ["-f", "%.2f", "-s"]),
                    ("f2r", ["-f", "%.2f", "-r"]),
                    ("m25", ["-f", "%.3f", "-m", "1:2.5"]),
                    ("m2", ["-f", "%.3f", "-m", "2"]),
                    ("E", ["-f", "%.2f", "-E"])):
        add(f"proj_parity_{tag}", proj_main, P_MERC + fl, pp_txt)
    add("proj_parity_I", proj_main, P_MERC + ["-I", "-f", "%.7f"], pp_itxt)
    add("proj_parity_I_m", proj_main,
        P_MERC + ["-I", "-f", "%.7f", "-m", "1:3"], pp_itxt)
    add("proj_fallback_dms_out", proj_main, P_MERC + ["-I"], "1000 2000\n")
    for i, bad in enumerate(("# comment", "", "12d30'N 45", "abc 45",
                             "12,5 60")):
        add(f"proj_fallback_{i}", proj_main, P_MERC + ["-f", "%.2f"],
            bad + "\n")

    # geod / invgeod: -f forms, -a, -p, units, DMS output, tags
    for tag, fl in (("f6", ["-f", "%.6f"]), ("f0", ["-f", "%.0f"]),
                    ("g11", ["-f", "%.11g"]),
                    ("a", ["-a", "-f", "%.4f"]),
                    ("p", ["-p", "-f", "%.4f"]),
                    ("km", ["+units=km", "-f", "%.3f"]),
                    ("F", ["-f", "%.5f", "-F", "%.1f"])):
        add(f"geod_I_mixed_{tag}", geod_main, G + ["-I"] + fl, gi)
        add(f"geod_mixed_{tag}", geod_main, G + fl, gd)
    add("invgeod_mixed", geod_main, ["-I"] + G + ["-f", "%.6f"], gi)
    add("geod_I_dms", geod_main, G + ["-I"], gi_dms)
    add("geod_I_dms_W4a", geod_main, G + ["-I", "-W4", "-a"], gi_dms)
    add("geod_dms", geod_main, G, gd_dms)
    add("geod_dms_w2p", geod_main, G + ["-w2", "-p"], gd_dms)
    add("geod_I_dms_nonfinite", geod_main, G + ["-I"], gi_dms_nf)
    add("geod_dms_nonfinite", geod_main, G, gd_dms_nf)
    for tag, fl in (("t1", ["-t1"]), ("tminus", ["-t-"]),
                    ("tdot", ["-t."])):
        add(f"geod_I_{tag}", geod_main, G + ["-I", "-f", "%.6f"] + fl, gi)
    add("geod_I_plain", geod_main, G + ["-I", "-f", "%.6f"], gi_plain)
    # adversarial inputs and single odd lines
    for tag, fl in (("I", ["-I"]), ("Ia", ["-I", "-a"]),
                    ("Ip", ["-I", "-p"]), ("Ikm", ["-I", "+units=km"]),
                    ("Ig11", ["-I", "-f", "%.11g"])):
        add(f"geod_parity_{tag}", geod_main,
            G + ["-f", "%.8f"] + fl, pg_txt)
    for tag, fl in (("d", []), ("dap", ["-a", "-p"]),
                    ("dkm", ["+units=km"])):
        add(f"geod_parity_{tag}", geod_main, G + ["-f", "%.8f"] + fl,
            pg_dtxt)
    add("geod_fallback_dms_out", geod_main, G + ["-I"], "0 0 0 1\n")
    for i, bad in enumerate(("# comment", "", "0d30' 0 0 1", "1 2 3",
                             "abc 2 3 4")):
        add(f"geod_fallback_{i}", geod_main, G + ["-I", "-f", "%.8f"],
            bad + "\n")
    return cases


CASES = _cases()

# (stdout sha256, stderr sha256, exit code) of each case
EXPECTED = {
    "cs2cs_errno_lcc": (
        "1c5f89032b0dd85756f525f0f6eabf60dd4005aea4e6a5c5cd47f50d3f5a40aa",
        "45e26aa47ac128d008573e2f829f48504778f18d14e2109eb0b78e62a3bca7b8", 0),
    "cs2cs_errno_utm11": (
        "1c5f89032b0dd85756f525f0f6eabf60dd4005aea4e6a5c5cd47f50d3f5a40aa",
        "7ad8a32a5f79229dfdbdfa0d9032de9ea913bfcc5cb4adbdf63cda7c8709f232", 0),
    "cs2cs_lcc_mixed": (
        "803624bc54cf1e52062c2a183aa7e962bcffc3af4912ef8da152d79f4b80497d",
        "941cc74412cffdebb64c503f39d0d067aae8ad139b51a1d40b06f2098f2e4496", 0),
    "cs2cs_merc_E": (
        "86620ec510398870590daae3ea9a2710ee3c9dd1c24f843a0dabfdf6b0b56498",
        "941cc74412cffdebb64c503f39d0d067aae8ad139b51a1d40b06f2098f2e4496", 0),
    "cs2cs_merc_Ers": (
        "04bd60b969189f75bea55f03e12d58ccd903830701fa87161ff9cf65b6650c48",
        "1ebefe4a02bd0adb191962ed88477d673b879e96561e72410462965378341dba", 0),
    "cs2cs_merc_big": (
        "7f43f1566030830f3e27d1d162100d476a801982fef1da59b0985f8c8e9ef533",
        "a3fa5556fe96a12a92468d87839a8e95c9293ae1cd629c2c01f3ae1d45b28f3b", 0),
    "cs2cs_merc_mixed_f0": (
        "ccebecd08af60c6a4ee2ace0a1b383dd86fee1b35426ae651168efe5896b2418",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_merc_mixed_f2": (
        "dc38b90bf79a44f2e2286c3de6008d6b8a13f42ebf2294d2c4eafa59cb2d299c",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_merc_mixed_f7": (
        "81472ce904c0cfd0e838cca02ab4dfb7d28946f6f83b45b21022b99ea3f51497",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_merc_mixed_g11": (
        "b20cc23e6e524819938021ed7d993b58cd2cc48743465e73ff5bd5c9e17d2b29",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_merc_mixed_nofmt": (
        "dc38b90bf79a44f2e2286c3de6008d6b8a13f42ebf2294d2c4eafa59cb2d299c",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_merc_t1": (
        "440b77327413e9892665fdac6a4d142b07f601940cb723f488d2f43eebe8830a",
        "941cc74412cffdebb64c503f39d0d067aae8ad139b51a1d40b06f2098f2e4496", 0),
    "cs2cs_merc_tdot": (
        "faf12bd58620cef67e6040f05e411e26cc6775d83c05e6cddc9e9a8d3ebc474e",
        "941cc74412cffdebb64c503f39d0d067aae8ad139b51a1d40b06f2098f2e4496", 0),
    "cs2cs_merc_tminus": (
        "7ab089272b9f8d2df0c98eb7fd61bd0b1721c978b1dca1c0c1dade4c21e282cb",
        "941cc74412cffdebb64c503f39d0d067aae8ad139b51a1d40b06f2098f2e4496", 0),
    "cs2cs_parity_f0": (
        "65a63a8596cabcbdb5722bb98f387efa4d8391ec96f10ec9196e22c07d701e5e",
        "73a01812a2189180e87ec4018b1ac55bac7d03f38f5c7c7f40ecaccdde39e8bb", 0),
    "cs2cs_parity_f2": (
        "9a603ae729b8f9a2a46817e060368b63f9d356bd08bc5e6d8d9c6797036c4634",
        "73a01812a2189180e87ec4018b1ac55bac7d03f38f5c7c7f40ecaccdde39e8bb", 0),
    "cs2cs_parity_f2s": (
        "0b0cfc6396adcb9b224e66ef9c8011bc38eb784a26d9a09eaad39a5b9ad5f238",
        "73a01812a2189180e87ec4018b1ac55bac7d03f38f5c7c7f40ecaccdde39e8bb", 0),
    "cs2cs_parity_f7": (
        "19ea81a0fb8b86d9c0864c16791072e636b118b354e37a290c9821a26ca2b9ed",
        "73a01812a2189180e87ec4018b1ac55bac7d03f38f5c7c7f40ecaccdde39e8bb", 0),
    "cs2cs_shift_W2": (
        "14cf756ee74b86f292b3e6efe6aac736f0086ecab6e9c12dff82b5640d1d464a",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_shift_dms": (
        "3a007ca81c93a270e43517da5b2ea50a3e32f7c45ca245931801fee6515c83d7",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_shift_f7": (
        "5429484fa9e96cad5c57aade5480c907a711ceaf16c0a5982ff56178ddeb32d1",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_shift_w5": (
        "78bd133725293b39cb685cf6f7a99cf66f7d3ccc4519aebd916ad9ca7dcb9ac2",
        "d2f79c14fed9230437ebfbd0ef4ee8396c987c4603cd35d9a93dabd56920ae49", 0),
    "cs2cs_split_base": (
        "529fb77267ddbb1329a6bcb431efd6fd7d61fc7af0894a2fa36134bd8e6ce6c9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_split_trailing": (
        "157356d2d2c5c86c57a703daf072792cefe7909f271bee9500d1c4e4e9ce7975",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_utm_I_E": (
        "8aa808c5567f332a4827a09d13eda5ddd59d2b4872feac7da7ed7c37423a5cd8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_utm_I_dms": (
        "023904377e259d6f74607cdc1861c09266383e773de232d058ee7765f8f888cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_utm_I_f7": (
        "27d19a802f1d50d09807b8681b9b4dd118b43524df20809558e14908dbb4662f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_utm_I_t1": (
        "57c26b6a0d0cde2c75072c149bbbbb7f22b4391ebe95555953fc311279d56c62",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cs2cs_utm_e": (
        "9e8bd35ffc97c45ffa35abd0d386db6ed5d7d03ef349d033b609718a0db246cd",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_mixed_f0": (
        "badb6a70f0b3a5800d06ad227db67692385069a57cbb3c4d110f789cdf03057b",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_mixed_f2": (
        "998edf2f421b0ebf875b2bff1340d93b46e773cd496378916780c1a21c26ebc9",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_mixed_f7": (
        "61479624df3fa59d340f8f0a9d765d98b258fb78ee3616a8036cea15f5b7c605",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_mixed_g11": (
        "dcc0ff31575c54029996e2ece3aa027b8efbcec7f87f1f6774d850cde8e07f26",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_mixed_nofmt": (
        "998edf2f421b0ebf875b2bff1340d93b46e773cd496378916780c1a21c26ebc9",
        "4ea92d4abc7a25eb15a47462041d6767b252440c6bb948b881b8c8b4f03bacda", 0),
    "cs2cs_utm_r": (
        "3910b1b4e48f50be37a90b890ac91313262453e8cd0b0060d83094f723bc7170",
        "3ee74102b1c73fbe45fec17ccd24c37c19658c79ee02624b0a52f1afb6d87801", 0),
    "cs2cs_utm_s": (
        "bb48a3b8f72fd41e1eba8ce6b5518d7db771e0b9474a7d3f4fda4a551198af09",
        "d183b312e8897911a26f2d0704611a2b038f30bd718e696453741f651f6af58b", 0),
    "geod_I_dms": (
        "0dc80c9b3a14a9df1aed44efd5fad84740428af2984cee39164a1bf33fd966d2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_dms_W4a": (
        "81a303a5aabd9d0a533c7c4ef377cc0c5ee538971fd39fde2771216a5485e778",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_dms_nonfinite": (
        "fbffab6a4f32e51411929db7fef9523dc3d1d73125b420cf7cb2f52bc1c53b60",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_F": (
        "8d08d135cfe5b95497dd07175c79345bd63dddeb96c6dcdba12cb0e75a4827e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_a": (
        "6473fd59e519c91833ddab2163aa16163bcf148a1757af593719d0d39bc9ad0c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_f0": (
        "fe0149f7284d1a442f7a32e88f3b91fe60208b48c2478ad77736392a66a1b320",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_f6": (
        "43963c8dfb005aed57ad5f6e1eda4a77aecad36df07d237a1592f018b71a3498",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_g11": (
        "71412edacafbf53af119a7636ad7b782807a0955a10a826b47ee9db7366e57df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_km": (
        "b496964946c0fda3f3f6acb08fcb9058ebb532c2c1c2872fbc059b18368e0e01",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_mixed_p": (
        "2988d4b426929158df4b7ba0ce42c9ab9662ca0f2cd48181e944a1d0150d7888",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_plain": (
        "d9027e9065c690bd6e954941892f6c19caf399e93b686c729023a88c4de1da55",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_t1": (
        "8a8999de8d105ebd5f90287268474ad8ca3620ec8f1c0d575b3086537195a78a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_tdot": (
        "0c8b7f333a28273cdd8ae6dd83e93bd655406e05a411d0229174d30f7d1640f3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_I_tminus": (
        "21bad7eceb8557010e51bd402f8f1cf0ef10a01e69e43ce312d180892dbd47e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_dms": (
        "f0e570d92965457a07868c284a6faa696117a59ccecc0566496582f8ac7ba903",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_dms_nonfinite": (
        "6a87b6b9585b2eb60ddc4c214e326d3c17fc279c55d020e5301b7ea599031494",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_dms_w2p": (
        "6ebe7570f06168e78b24ca274344acc0d0e6f8514271b7c4bd44c12650b3b2bf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_0": (
        "4e2f9102dc8fe6b214df8a3b6a128d1a014ab0d76f3f34c23583b3e369329262",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_1": (
        "d8d67fd400727399ca8c328db021bf8a2c6a0c8da02f472992fc1df274e1c2d9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_2": (
        "4c58dfa32664f77819b26bab93d27f8123d6a8e1b1a338b0851bfd6cff08ef70",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_3": (
        "9b7fa7be6203edc79631ba47d85177d9b1bbd6295b56f7c288e4d5de2fa4dcd6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_4": (
        "a25c67d93b2d3ba08d2c7a14161f43b7ca2a6afa1df1dd767648e8d8a970578e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_fallback_dms_out": (
        "ba7a471aebd3085fe791f6ecf6164bacc67ebff9f19b0e8991c474915f2f01ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_F": (
        "3ea829f53afd6a2a6d8cd7cb88d98c968393a5c5320fce8a0bc7815f7eebed0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_a": (
        "88bfc80d3f667e1f504ccd2718c7e57ee0fdcf2235db1a6b1e99e8781914c366",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_f0": (
        "dcca0746a1b2ea1bf792a69ebbbfd49ed12bddde6f17e299c02b0f1d414388e3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_f6": (
        "ad2a5a5b91939317da688ff29a88c30ac10771d12ee2190e2c8840bcc8de6b51",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_g11": (
        "26879a28664e94ec48d4c54f78938131cbad438dd483965d298c641c267ffa8e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_km": (
        "7d634ac767e1376c133bd1dd362b8a3ec95cb5cf05c78208c0bb84b082742b23",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_mixed_p": (
        "7bbe719945ef8a686804af5f58f3396a9bcea606c0cd8bed5c69a65fd64c2eee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_I": (
        "5479af70373be28fa20ef9563d30ff66f97844847cec079ebac3adc349975824",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_Ia": (
        "33f4eb301fbb5ab28d5a97dbae17f683e2ed78c0aa4322b2f70968f9991f164e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_Ig11": (
        "f2f88be13bbcf0295fea2acafd4f915e3a937a813fd614e9a0789c5801e06bde",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_Ikm": (
        "1fe8e8d4105e54040329626a995e2571695c0f6c26fce3f49f9e52dd011c639c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_Ip": (
        "aa2c4a590d548e8c5414a69391fe9163d5e734827cf97931304312e11576b28f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_d": (
        "c793b438a7583eda314affafca8fb8a7a7f7a95e36df0cd35249481baebb702f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_dap": (
        "3d8aa5e2d0f5c34458343f8da478f8989cf90f7e3fe402c8cbdb6508328dfead",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "geod_parity_dkm": (
        "3473f284b76cbd3751a0c29bb9066653858e2c774ca0d8bf0d76bf8934f1f6e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "invgeod_mixed": (
        "43963c8dfb005aed57ad5f6e1eda4a77aecad36df07d237a1592f018b71a3498",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "invproj_utm": (
        "f6f11fc974c7b3786f192c867a43cb1ba9f791f680d8aabca2b4ff04b5a3b63e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "invproj_utm_f7": (
        "cc47045c5b4b0f33d1cf55b5a9b1d647314a93fc69bf96809288dbe22467df7e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_V_inv": (
        "59f4e0f197fd0d4eccb031282483c221d76d7cddd567163e32fd80fdbc6f5817",
        "b949c6333542bbb9f0f0949cbe0988c8ced225b8a7bce11fed7ff47f3188a3f1", 0),
    "proj_V_lcc": (
        "6a43c0da727daf7423aff2804b4666b9a4e61bc910efe4edaeebe311c67497cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_V_tmerc": (
        "236fb89c863639308e58e03836e005e371895d16142196d200f18ba84111f2ea",
        "d358dc3e5249419caab48422a0c9223621348b81e5adfb57bb9fe9db66bf9a93", 0),
    "proj_fallback_0": (
        "4e2f9102dc8fe6b214df8a3b6a128d1a014ab0d76f3f34c23583b3e369329262",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_fallback_1": (
        "d35aa6384fcc873d80c00207e211fc7a063b69fb8b994290a79d01ba4331b948",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_fallback_2": (
        "86c3a298f89a4cb43c55bd6639a996191ddd80f9cd68ae65bbeb19a3243fc67b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_fallback_3": (
        "3dafbcbb654b87d5dc8313d5e3da665128801e7dd16ea967e1d085b1fadefb21",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_fallback_4": (
        "d6c0bc9f69ef547831ad93ae5e123fa7128f3a8ee2259cd165999a875bc570d3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_fallback_dms_out": (
        "8c142833f28cc9bec88c6eb0aee5e91f6dfdaca3bceb6703d6ce4fbf3d3c8f14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_E": (
        "8fdd7d2871bc336b9fb6d12f3167aa61e190217f93641da03d4e61fe1ddb07fe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_I_W2s": (
        "d01fb610f8c5e9b4139b18e1272d619d041397b5fc1bc3e0edf4c5a5e43820f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_I_dms": (
        "92dc996e16b9848951a84275c820c438683f433009d12f72d18cf344d86f3723",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_I_f7": (
        "852290bab94e0b0a866dd4ef3cb08f3027593c5c31a14e40b3c9d893b8454540",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_I_m": (
        "60ea3cc24232348e83e0eee4fe293b1c5a282eef779a0fa6a277ed4121ec120d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_I_w4E": (
        "314941da5d1e20d2108a2c48c258bc11eeda4d241374146a2f5cd7e407195722",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_big": (
        "b8a3f79ad7bbf54ade59ac75a7f5f1a29d41280707b40755435f55161fe4928d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_m": (
        "de26dc0fb153ccb9b6b1ff86b7a18fbea9497b12cae02e4348918465e2c043ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_r": (
        "2d801de20a1b95bde33f36341df478cf9696ae2d133c761d9c0ff67d8ce3ecec",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_s": (
        "e52d24d60b4aaa21b61a26ace7e35deacc51d15a0fd2f68546a94aeac4fdfa03",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_t1": (
        "d10df38fc792abb0f66aa5f87ea923e524f856bb92e65a0f9f747fef4f1cfc89",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_tdot": (
        "2585668cea9ec31291108f0f3165292deb1bbd0ce34aa63f8f68b21fa8f4b37c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_merc_tminus": (
        "1111e609ea4895a4a09be6717d6a85bc279c0ec59c856d148df526f42cfcf73a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_E": (
        "9e1b456d2051ca8dcd435ad2e0cd279bdca06c891bfd344e7a64347215b7240c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_I": (
        "3778e0939a526a11c660118fa44263848b0e457242a08103fc8a648774cbdeae",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_I_m": (
        "af9724c963a63d028676c3ca7868d0d99f588467e987a45fd654691da350b5b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_f2": (
        "d60a6a9eeef9a7ccf36f91d074141c951b8ca20d80648ba5386978a85d5fe7f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_f2r": (
        "444731feb2e768d3051c605802fd1cf250265eafacecbaac7c1f9f813572df84",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_f2s": (
        "f9fbe89bea6b5bcd5392a4d5a6d02c056205549c2d6e9616f949d25180e4f781",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_f7": (
        "437adccaabbe00e421d943d65b91d0a1ed3e8b8da5379695ffbb981f649524b4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_m2": (
        "8d7f9784b351152218615a48c34c50bebe93a32479dcfb06fe29c78624a3b030",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_parity_m25": (
        "ae4398110c267ec04ef9b147ec976a7e644b5bbd02b671742c5eec8f84aaf1f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_e": (
        "d8ba839055359f52849daa17467efe312c998ac06248e274d8effe2dbb5f039f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_mixed_f0": (
        "4e45da6030b401c18af00cdb51eccec9325a7afd3b7fe01d3f3fff8a08a05483",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_mixed_f2": (
        "23702f05cd9a25dce29c2dccb7054d4c47454ac391dfdab99345829acbe0a06d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_mixed_f7": (
        "132696452dd141e1121ebfb1dba78d85fd72bbfee106dfc4ddbbcd2a2205bfbe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_mixed_g11": (
        "1a8a15620de787f689ff753b430a1349b457702f402b02136d71845c318ee3e7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "proj_utm_mixed_nofmt": (
        "23702f05cd9a25dce29c2dccb7054d4c47454ac391dfdab99345829acbe0a06d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_corpus(name):
    main, argv, text = CASES[name]
    out, err, rc = run_tool(main, argv, text)
    assert (_sha(out), _sha(err), rc) == EXPECTED[name], name
