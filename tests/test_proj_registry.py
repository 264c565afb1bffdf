"""The projection registry loads on demand: a cold CRS imports only the
projections modules its +proj (and ob_tran's +o_proj) needs, and once
every module is loaded PROJ_REGISTRY holds exactly the pj_list.h names,
each registered by one module only."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cold(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


# defines waves(): the N of every projectionsN module loaded so far
_WAVES = ("import json, re, sys\n"
          "def waves():\n"
          "    hits = (re.fullmatch(r'proj_ray[.]kernels[.]projections(\\d+)', m)\n"
          "            for m in sys.modules)\n"
          "    return sorted(int(h[1]) for h in hits if h)\n")


def test_cold_crs_imports_only_its_module():
    got = _cold(_WAVES
                + "from proj_ray import CRS\n"
                "CRS('+init=epsg:4326')\n"
                "CRS('+proj=merc +ellps=WGS84')\n"
                "first = waves()\n"
                "CRS('+proj=laea +lat_0=52 +lon_0=10 +ellps=GRS80')\n"
                "print(json.dumps([first, waves()]))\n")
    assert got == [[], [2]]


def test_cold_ob_tran_loads_its_o_proj():
    """putp2 lives in a later module than ob_tran; the inner lookup
    loads it, and no module past it."""
    got = _cold(_WAVES
                + "import numpy as np\n"
                "from proj_ray import make_transform\n"
                "sph = '+proj=latlong +R=6370997'\n"
                "ob = ('+proj=ob_tran +o_proj=putp2 +o_lat_p=40 '\n"
                "      '+o_lon_p=10 +R=6370997')\n"
                "lam = np.radians([10.0, -30.0, 120.0])\n"
                "phi = np.radians([20.0, 45.0, -60.0])\n"
                "x, y, _ = make_transform(sph, ob)(lam, phi)\n"
                "lo, la, _ = make_transform(ob, sph)(x, y)\n"
                "err = max(np.abs(lo - lam).max(), np.abs(la - phi).max())\n"
                "print(json.dumps([bool(np.isfinite(x).all()), float(err),\n"
                "                  waves()]))\n")
    finite, err, waves = got
    assert finite
    assert err < 1e-10
    assert waves == list(range(2, 10))


def test_registry_holds_pj_list_once_each():
    """Importing projections2 ... projections16 in order never replaces
    an entry (so the ordered scan of setup_for finds the same setup as
    importing them all) and ends with exactly the 137 PJ_LIST names."""
    got = _cold("import importlib, json\n"
                "from proj_ray.kernels.projections import PROJ_REGISTRY\n"
                "from proj_ray.kernels.descr import PJ_LIST\n"
                "replaced = []\n"
                "for wave in range(2, 17):\n"
                "    before = dict(PROJ_REGISTRY)\n"
                "    importlib.import_module(\n"
                "        f'proj_ray.kernels.projections{wave}')\n"
                "    replaced += [n for n in before\n"
                "                 if PROJ_REGISTRY[n] is not before[n]]\n"
                "print(json.dumps([replaced, sorted(PROJ_REGISTRY),\n"
                "                  sorted(PJ_LIST), len(PJ_LIST)]))\n")
    replaced, names, pj_list, n = got
    assert replaced == []
    assert n == 137
    assert names == pj_list

    from proj_ray.kernels.projections import PROJ_REGISTRY, setup_for

    assert setup_for("putp2") is PROJ_REGISTRY["putp2"]
    assert setup_for("no_such_projection") is None
