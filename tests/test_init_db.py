"""Bundled +init database: full epsg/IGNF/esri/nad27/nad83/world keyed
files resolve without PROJ_LIB (tools/build_init_db.py ->
proj_ray/data/init_db.tsv.gz)."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from proj_ray.crs import CRS, _init_db, init_db_lookup
from proj_ray.transform import make_transform

# (init key, expected substrings of the resolved definition) — spot
# checks against the reference's published text (nad/epsg etc.)
SPOT_CHECKS = [
    ("epsg:2154", ["proj=lcc", "lat_1=49", "x_0=700000", "ellps=GRS80"]),
    ("epsg:27572", ["proj=lcc", "lat_1=46.8", "x_0=600000"]),  # Lambert II et.
    ("epsg:31370", ["proj=lcc", "ellps=intl"]),                # Belge 72
    ("epsg:23032", ["proj=utm", "zone=32", "ellps=intl"]),     # ED50 UTM
    ("epsg:3035", ["proj=laea", "lat_0=52", "lon_0=10"]),      # ETRS89-LAEA
    ("epsg:2056", ["proj=somerc", "x_0=2600000"]),             # CH1903+/LV95
    ("epsg:5514", ["proj=krovak"]),                            # S-JTSK
    ("epsg:29902", ["proj=tmerc", "datum=ire65"]),             # Irish grid
    ("epsg:3031", ["proj=stere", "lat_0=-90", "lat_ts=-71"]),  # Antarctic PS
    ("epsg:2193", ["proj=tmerc", "lat_0=0", "lon_0=173"]),     # NZTM2000
    ("epsg:32661", ["proj=stere", "lat_0=90"]),                # UPS North
    ("epsg:4budget", None),  # placeholder (skipped below)
    ("IGNF:LAMB93", ["proj=lcc", "lat_1=44", "lat_2=49", "x_0=700000"]),
    ("IGNF:UTM20W84GUAD", ["proj=tmerc", "lon_0=-63"]),
    ("nad27:101", ["proj=tmerc", "datum=NAD27", "lon_0=-85d50"]),
    ("nad27:5010", ["proj=lcc", "datum=NAD27"]),
    ("nad83:201", ["datum=NAD83"]),
    ("world:CH1903", ["proj=somerc", "ellps=bessel"]),
    ("esri:54030", ["proj=robin"]),
    ("esri.extra:20002", ["proj=tmerc", "ellps=krass"]),
    ("other.extra:900913", ["proj=merc", "a=6378137"]),
    ("GL27:michigan", ["proj=omerc", "ellps=clrk66"]),
]


def test_init_db_spot_checks():
    n_checked = 0
    for init, subs in SPOT_CHECKS:
        if subs is None:
            continue
        fname, key = init.split(":")
        defn = init_db_lookup(fname, key)
        assert defn is not None, f"{init} missing from bundled DB"
        for s in subs:
            assert s in defn, f"{init}: {s!r} not in {defn!r}"
        n_checked += 1
    assert n_checked >= 20


def test_init_db_counts():
    """The bundle carries the reference's full corpora."""
    files = [fname for fname, _ in _init_db()[0]]
    assert files.count("epsg") == 5006
    assert files.count("IGNF") == 344
    assert files.count("esri") == 2954
    assert files.count("nad27") == 134
    assert files.count("nad83") == 123


def test_init_db_rows_digest():
    """All 9,105 (file, key, defn) rows, sorted, hash to the digest of
    the corpus parsed from the reference's keyed files."""
    rows = sorted((f, k, d) for (f, k), d in _init_db()[0].items())
    assert len(rows) == 9105
    text = "".join(f"{f}\t{k}\t{d}\n" for f, k, d in rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "abe6992209b54d3da9a753fec31000f07974a312af3bfae1cb0d900c5855e1c2")


def test_init_epsg_2154_compiles_and_matches_explicit():
    """+init=epsg:2154 (Lambert-93) resolves without PROJ_LIB and
    produces the identical transform as the explicit definition."""
    os.environ.pop("PROJ_LIB", None)
    t_init = make_transform("+proj=longlat +datum=WGS84", "+init=epsg:2154")
    t_expl = make_transform(
        "+proj=longlat +datum=WGS84",
        "+proj=lcc +lat_1=49 +lat_2=44 +lat_0=46.5 +lon_0=3 +x_0=700000 "
        "+y_0=6600000 +ellps=GRS80 +towgs84=0,0,0,0,0,0,0 +units=m +no_defs")
    lon = np.array([2.3522])
    lat = np.array([48.8566])
    xi, yi, _ = t_init(lon, lat)
    xe, ye, _ = t_expl(lon, lat)
    assert xi[0] == xe[0] and yi[0] == ye[0]
    # Paris lands in the Lambert-93 plausibility box
    assert 600000 < xi[0] < 700000 and 6.8e6 < yi[0] < 6.95e6


def test_init_ignf_and_stateplane_compile():
    for init in ["+init=IGNF:LAMB93", "+init=nad27:3001", "+init=nad83:3001",
                 "+init=world:CH1903", "+init=esri:54030"]:
        CRS(init)


def test_init_reference_parity_failures():
    """Entries the reference itself rejects fail with the same error
    codes: bare title words shadow 'a' (-13, pj_ell_set), missing
    +proj (-4), unknown ellipsoid (-9)."""
    with pytest.raises(ValueError, match=r"-13"):
        CRS("+init=IGNF:UTM26ETRS89")   # '+title=... a ...' shadows a=
    with pytest.raises(ValueError, match=r"-4"):
        CRS("+init=esri:53001")          # no +proj in the published entry
    with pytest.raises(ValueError, match=r"-9"):
        CRS("+init=world:india-I")       # ellps=everest not in pj_ellps
    with pytest.raises(ValueError, match=r"-2"):
        CRS("+init=epsg:999999999")      # unknown key


def test_init_epsg_900913_is_not_an_epsg_key():
    """900913 is absent from the reference's nad/epsg, so get_init
    rejects it (-2); the definition lives in other.extra."""
    with pytest.raises(ValueError, match=r"-2"):
        CRS("+init=epsg:900913")
    assert CRS("+init=other.extra:900913").proj_name == "merc"


def test_init_db_load_imports_no_pyarrow_or_pandas():
    """The first +init lookup reads the bundled DB with the standard
    library: a cold interpreter that resolves epsg and IGNF keys loads
    neither pyarrow nor pandas."""
    code = ("import sys\n"
            "from proj_ray import make_transform\n"
            "make_transform('+init=epsg:4326', '+init=epsg:31467')\n"
            "make_transform('+init=epsg:4326', '+init=IGNF:LAMB93')\n"
            "loaded = sorted({'pyarrow', 'pandas'} & set(sys.modules))\n"
            "sys.exit(f'loaded {loaded}' if loaded else 0)\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)


def test_proj_lib_still_wins(tmp_path):
    """A PROJ_LIB file overrides the bundled DB (pj_open_lib search
    order)."""
    (tmp_path / "epsg").write_text(
        "<2154> +proj=longlat +ellps=GRS80 +no_defs <>\n")
    old = os.environ.get("PROJ_LIB")
    os.environ["PROJ_LIB"] = str(tmp_path)
    try:
        c = CRS("+init=epsg:2154")
        assert c.proj_name == "longlat"
    finally:
        if old is None:
            os.environ.pop("PROJ_LIB", None)
        else:
            os.environ["PROJ_LIB"] = old
