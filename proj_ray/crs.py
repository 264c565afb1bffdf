"""CRS definition: proj-string parser + registries + derived constants.

Replicates the init semantics of the reference:
- param list with first-wins lookup (src/pj_init.c:389-421 via pj_param
  scan order; later duplicates never override earlier ones)
- ``+init=<file>:<key>`` expansion from PROJ_LIB or the bundled keyed
  init DB (src/pj_init.c:244-291 keyed-text-DB lookup)
- per-projection defaults + general ``ellps=WGS84`` default appended
  last (src/pj_init.c:443-444 + nad/proj_def.dat)
- datum expansion appending ellps/towgs84 (src/pj_datum_set.c:40-153)
- ellipsoid resolution order R > es > e > rf > f > b and the R_A/R_V/...
  sphere reductions (src/pj_ell_set.c:16-104)
- generic params: geoc/over/lon_wrap/axis/lam0/phi0/x0/y0/k0/units/
  to_meter/vunits/pm (src/pj_init.c:489-610)
- DMS parsing via ``dmstor`` (src/dmstor.c:18-113) including its
  truncated degree multiplier vm[] (src/dmstor.c:12-17)

The resulting :class:`CRS` is a plain picklable Python object whose
``fwd``/``inv`` attributes are vectorized NumPy closures — built once on
the driver, captured by ``map_batches`` UDFs (cloudpickle handles the
closures), never rebuilt per batch.
"""

from __future__ import annotations

import functools
import gzip
import math
import os


def _c_sqrt(x: float) -> float:
    """C sqrt: negative input yields NaN silently (no Python
    ValueError) — degenerate ellipse parameters (+es=2) must leave
    init 'successful' with NaN constants like the reference."""
    import numpy as np

    with np.errstate(invalid="ignore"):
        return float(np.sqrt(x))


def _c_div(a: float, b: float) -> float:
    """C double division: x/0 is inf, not ZeroDivisionError."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / np.float64(b))

from .kernels.common import DMS_DEG, DMS_MIN, DMS_SEC, SEC_TO_RAD
from .kernels.projections import setup_for

# ---------------------------------------------------------------------------
# registries (src/pj_ellps.c:5-50, src/pj_datums.c:40-81, src/pj_units.c:7-29)
# ---------------------------------------------------------------------------

ELLPS = {
    # id: (major-def, ell-def)
    "MERIT": ("a=6378137.0", "rf=298.257"),
    "SGS85": ("a=6378136.0", "rf=298.257"),
    "GRS80": ("a=6378137.0", "rf=298.257222101"),
    "IAU76": ("a=6378140.0", "rf=298.257"),
    "airy": ("a=6377563.396", "b=6356256.910"),
    "APL4.9": ("a=6378137.0.", "rf=298.25"),
    "NWL9D": ("a=6378145.0.", "rf=298.25"),
    "mod_airy": ("a=6377340.189", "b=6356034.446"),
    "andrae": ("a=6377104.43", "rf=300.0"),
    "aust_SA": ("a=6378160.0", "rf=298.25"),
    "GRS67": ("a=6378160.0", "rf=298.2471674270"),
    "bessel": ("a=6377397.155", "rf=299.1528128"),
    "bess_nam": ("a=6377483.865", "rf=299.1528128"),
    "clrk66": ("a=6378206.4", "b=6356583.8"),
    "clrk80": ("a=6378249.145", "rf=293.4663"),
    "clrk80ign": ("a=6378249.2", "rf=293.4660212936269"),
    "CPM": ("a=6375738.7", "rf=334.29"),
    "delmbr": ("a=6376428.", "rf=311.5"),
    "engelis": ("a=6378136.05", "rf=298.2566"),
    "evrst30": ("a=6377276.345", "rf=300.8017"),
    "evrst48": ("a=6377304.063", "rf=300.8017"),
    "evrst56": ("a=6377301.243", "rf=300.8017"),
    "evrst69": ("a=6377295.664", "rf=300.8017"),
    "evrstSS": ("a=6377298.556", "rf=300.8017"),
    "fschr60": ("a=6378166.", "rf=298.3"),
    "fschr60m": ("a=6378155.", "rf=298.3"),
    "fschr68": ("a=6378150.", "rf=298.3"),
    "helmert": ("a=6378200.", "rf=298.3"),
    "hough": ("a=6378270.0", "rf=297."),
    "intl": ("a=6378388.0", "rf=297."),
    "krass": ("a=6378245.0", "rf=298.3"),
    "kaula": ("a=6378163.", "rf=298.24"),
    "lerch": ("a=6378139.", "rf=298.257"),
    "mprts": ("a=6397300.", "rf=191."),
    "new_intl": ("a=6378157.5", "b=6356772.2"),
    "plessis": ("a=6376523.", "b=6355863."),
    "SEasia": ("a=6378155.0", "b=6356773.3205"),
    "walbeck": ("a=6376896.0", "b=6355834.8467"),
    "WGS60": ("a=6378165.0", "rf=298.3"),
    "WGS66": ("a=6378145.0", "rf=298.25"),
    "WGS72": ("a=6378135.0", "rf=298.26"),
    "WGS84": ("a=6378137.0", "rf=298.257223563"),
    "sphere": ("a=6370997.0", "b=6370997.0"),
}

DATUMS = {
    # id: (definition, ellipse_id)
    "WGS84": ("towgs84=0,0,0", "WGS84"),
    "GGRS87": ("towgs84=-199.87,74.79,246.62", "GRS80"),
    "NAD83": ("towgs84=0,0,0", "GRS80"),
    "NAD27": ("nadgrids=@conus,@alaska,@ntv2_0.gsb,@ntv1_can.dat", "clrk66"),
    "potsdam": ("towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7", "bessel"),
    "carthage": ("towgs84=-263.0,6.0,431.0", "clrk80ign"),
    "hermannskogel": ("towgs84=577.326,90.129,463.919,5.137,1.474,5.297,2.4232", "bessel"),
    "ire65": ("towgs84=482.530,-130.596,564.557,-1.042,-0.214,-0.631,8.15", "mod_airy"),
    "nzgd49": ("towgs84=59.47,-5.04,187.44,0.47,-0.1,1.024,-4.5993", "intl"),
    "OSGB36": ("towgs84=446.448,-125.157,542.060,0.1502,0.2470,0.8421,-20.4894", "airy"),
}

PRIME_MERIDIANS = {
    "greenwich": "0dE",
    "lisbon": "9d07'54.862\"W",
    "paris": "2d20'14.025\"E",
    "bogota": "74d04'51.3\"W",
    "madrid": "3d41'16.58\"W",
    "rome": "12d27'8.4\"E",
    "bern": "7d26'22.5\"E",
    "jakarta": "106d48'27.79\"E",
    "ferro": "17d40'W",
    "brussels": "4d22'4.71\"E",
    "stockholm": "18d3'29.8\"E",
    "athens": "23d42'58.815\"E",
    "oslo": "10d43'22.5\"E",
}

UNITS = {
    "km": "1000.",
    "m": "1.",
    "dm": "1/10",
    "cm": "1/100",
    "mm": "1/1000",
    "kmi": "1852.0",
    "in": "0.0254",
    "ft": "0.3048",
    "yd": "0.9144",
    "mi": "1609.344",
    "fath": "1.8288",
    "ch": "20.1168",
    "link": "0.201168",
    "us-in": "1./39.37",
    "us-ft": "0.304800609601219",
    "us-yd": "0.914401828803658",
    "us-ch": "20.11684023368047",
    "us-mi": "1609.347218694437",
    "ind-yd": "0.91439523",
    "ind-ft": "0.30479841",
    "ind-ch": "20.11669506",
}

# Display names for the -le / -lu / -ld CLI listings (src/pj_ellps.c,
# src/pj_units.c, src/pj_datums.c — published registry data)
ELLPS_NAMES = {
    "MERIT": "MERIT 1983", "SGS85": "Soviet Geodetic System 85",
    "GRS80": "GRS 1980(IUGG, 1980)", "IAU76": "IAU 1976",
    "airy": "Airy 1830", "APL4.9": "Appl. Physics. 1965",
    "NWL9D": "Naval Weapons Lab., 1965", "mod_airy": "Modified Airy",
    "andrae": "Andrae 1876 (Den., Iclnd.)",
    "aust_SA": "Australian Natl & S. Amer. 1969",
    "GRS67": "GRS 67(IUGG 1967)", "bessel": "Bessel 1841",
    "bess_nam": "Bessel 1841 (Namibia)", "clrk66": "Clarke 1866",
    "clrk80": "Clarke 1880 mod.", "clrk80ign": "Clarke 1880 (IGN).",
    "CPM": "Comm. des Poids et Mesures 1799",
    "delmbr": "Delambre 1810 (Belgium)", "engelis": "Engelis 1985",
    "evrst30": "Everest 1830", "evrst48": "Everest 1948",
    "evrst56": "Everest 1956", "evrst69": "Everest 1969",
    "evrstSS": "Everest (Sabah & Sarawak)",
    "fschr60": "Fischer (Mercury Datum) 1960",
    "fschr60m": "Modified Fischer 1960", "fschr68": "Fischer 1968",
    "helmert": "Helmert 1906", "hough": "Hough",
    "intl": "International 1909 (Hayford)", "krass": "Krassovsky, 1942",
    "kaula": "Kaula 1961", "lerch": "Lerch 1979",
    "mprts": "Maupertius 1738", "new_intl": "New International 1967",
    "plessis": "Plessis 1817 (France)", "SEasia": "Southeast Asia",
    "walbeck": "Walbeck", "WGS60": "WGS 60", "WGS66": "WGS 66",
    "WGS72": "WGS 72", "WGS84": "WGS 84",
    "sphere": "Normal Sphere (r=6370997)",
}

UNITS_NAMES = {
    "km": "Kilometer", "m": "Meter", "dm": "Decimeter",
    "cm": "Centimeter", "mm": "Millimeter",
    "kmi": "International Nautical Mile", "in": "International Inch",
    "ft": "International Foot", "yd": "International Yard",
    "mi": "International Statute Mile", "fath": "International Fathom",
    "ch": "International Chain", "link": "International Link",
    "us-in": "U.S. Surveyor's Inch", "us-ft": "U.S. Surveyor's Foot",
    "us-yd": "U.S. Surveyor's Yard", "us-ch": "U.S. Surveyor's Chain",
    "us-mi": "U.S. Surveyor's Statute Mile", "ind-yd": "Indian Yard",
    "ind-ft": "Indian Foot", "ind-ch": "Indian Chain",
}

DATUM_COMMENTS = {
    "WGS84": "", "GGRS87": "Greek_Geodetic_Reference_System_1987",
    "NAD83": "North_American_Datum_1983",
    "NAD27": "North_American_Datum_1927",
    "potsdam": "Potsdam Rauenberg 1950 DHDN",
    "carthage": "Carthage 1934 Tunisia", "hermannskogel": "Hermannskogel",
    "ire65": "Ireland 1965", "nzgd49": "New Zealand Geodetic Datum 1949",
    "OSGB36": "Airy 1830",
}

# Per-projection + general defaults (nad/proj_def.dat)
PROJ_DEFAULTS = {
    "aea": ["lat_1=29.5", "lat_2=45.5"],
    "lcc": ["lat_1=33", "lat_2=45"],
    "lagrng": ["W=2"],
}
GENERAL_DEFAULTS = ["ellps=WGS84"]

@functools.cache
def _init_db() -> tuple[dict, frozenset]:
    """The bundled DB as ``{(file, key): defn}`` plus its set of file
    names, read once from data/init_db.tsv.gz (one
    ``file<TAB>key<TAB>defn`` line per entry)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "init_db.tsv.gz")
    with open(path, "rb") as f:
        text = gzip.decompress(f.read()).decode("utf-8")
    db = {}
    for line in text.splitlines():
        fname, key, defn = line.split("\t")
        db[(fname, key)] = defn
    return db, frozenset(fname for fname, _ in db)


def init_db_lookup(fname: str, key: str) -> str | None:
    """Bundled keyed-init lookup: the reference's public init databases
    (nad/epsg 5,006 codes, IGNF, esri(+extra), nad27/nad83 state
    planes, world, GL27, CH) parsed into proj_ray/data/init_db.tsv.gz
    by tools/build_init_db.py and loaded on first use into one dict
    with the standard library only.  Serves the role of
    pj_open_lib+get_init (src/pj_init.c:97-291) when no PROJ_LIB
    override is present."""
    return _init_db()[0].get((fname, key))


def init_db_has_file(fname: str) -> bool:
    """Whether the bundled DB carries the named init file at all (the
    pj_open_lib existence question, distinct from key lookup)."""
    return fname in _init_db()[1]


def read_init_file(path: str, section: str) -> str | None:
    """Keyed init-file lookup (src/pj_init.c get_init/get_opt:97-291).

    Format is the reference's ``nad/epsg`` style: a definition starts at
    the ``<key>`` tag, collects whitespace-separated words (possibly over
    several lines), and ends at the ``<>`` end tag; ``#`` starts a
    comment running to end of line.  Returns the definition string for
    ``section``, or None if the key is absent.  The file is found via
    the PROJ_LIB directory, same contract as pj_open_lib."""
    tag = f"<{section}>"
    words: list[str] = []
    in_section = False
    with open(path, "r") as f:
        for line in f:
            hash_at = line.find("#")
            if hash_at >= 0:
                line = line[:hash_at]
            for w in line.split():
                if not in_section:
                    if w == tag:
                        in_section = True
                    continue
                if w == "<>":
                    return " ".join(words)
                words.append(w)
    return " ".join(words) if in_section else None

PJD_UNKNOWN = 0
PJD_3PARAM = 1
PJD_7PARAM = 2
PJD_GRIDSHIFT = 3
PJD_WGS84 = 4


def dmstor(s: str) -> float:
    """DMS / decimal string -> radians. Replicates src/dmstor.c:18-113.

    Plain decimals are treated as degrees and multiplied by the
    reference's (slightly truncated) vm[0] constant for parity.
    """
    s = s.strip()
    if not s:
        raise ValueError("empty DMS string")
    i = 0
    sign = 1.0
    if s[i] in "+-":
        sign = -1.0 if s[i] == "-" else 1.0
        i += 1
    vm = (DMS_DEG, DMS_MIN, DMS_SEC)
    v = 0.0
    nl = 0
    import re as _re

    num_re = _re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
    while nl < 3 and i < len(s) and (s[i].isdigit() or s[i] == "."):
        m = num_re.match(s, i)
        if not m:
            break
        tv = float(m.group(0))
        i = m.end()
        ch = s[i] if i < len(s) else ""
        # note: ch may be "" at end-of-string; `"" in "dD"` is True in
        # Python, so every membership test must guard on non-empty ch
        if ch and ch in "dD":
            n = 0
        elif ch == "'":
            n = 1
        elif ch == '"':
            n = 2
        elif ch and ch in "rR":
            if nl:
                raise ValueError(f"bad DMS string: {s!r}")
            i += 1
            v = tv
            nl = 4 + 1
            continue
        else:
            v += tv * vm[nl]
            nl = 4 + 1
            continue
        if n < nl:
            raise ValueError(f"bad DMS field order: {s!r}")
        v += tv * vm[n]
        i += 1
        nl = n + 1
    if i < len(s) and s[i] in "NnEeSsWw":
        if s[i] in "SsWw":
            sign = -sign
        i += 1
    return sign * v


def rtodms(r: float, pos: str = "", neg: str = "", prec: int = 3,
           fixed: bool = False) -> str:
    """Radians -> DMS string (src/rtodms.c, exact semantics): round to
    ``prec`` fractional second digits via floor(r*CONV+0.5); when the
    seconds are zero print "DdM'<sfx>", when minutes are zero too print
    "Dd<sfx>", and strip trailing zeros (and a bare '.') from the
    seconds fraction — '0dE', '79d58'W', '44d59'59.983"N'."""
    import math

    if not math.isfinite(r):
        # no DMS form (the C's (int) cast of it is undefined): print the
        # token printf's %f prints, as the numeric -f output does
        return "%f" % r
    RES = 10.0 ** prec
    CONV = 180.0 * 3600.0 * RES / math.pi
    if r < 0:
        r = -r
        if not pos:
            sign = "-"
            suffix = ""
        else:
            sign = ""
            suffix = neg
    else:
        sign = ""
        suffix = pos
    rr = math.floor(r * CONV + 0.5)
    sec = math.fmod(rr / RES, 60.0)
    rr = math.floor(rr / (RES * 60.0))
    minute = int(math.fmod(rr, 60.0))
    deg = int(math.floor(rr / 60.0))
    if fixed:
        # -W constant-width mode (set_rtodms con_w, src/rtodms.c:30-33):
        # zero-padded minutes and seconds, no field trimming
        w = prec + 2 + (1 if prec else 0)
        return (f"{sign}{deg}d{minute:02d}'"
                f"{sec:0{w}.{prec}f}\"{suffix}")
    if sec:
        sec_str = f"{sec:.{prec}f}"
        if "." in sec_str:
            sec_str = sec_str.rstrip("0").rstrip(".")
        return f"{sign}{deg}d{minute}'{sec_str}\"{suffix}"
    if minute:
        return f"{sign}{deg}d{minute}'{suffix}"
    return f"{sign}{deg}d{suffix}"


def _parse_tokens(defn: str):
    """Split a proj string into key[=value] tokens (leading '+' optional)."""
    toks = []
    for raw in defn.split():
        t = raw.lstrip("+")
        if not t:
            continue
        toks.append(t)
    return toks


class ParamList:
    """Ordered key->value store with first-wins append (paralist semantics,
    src/projects.h:219-222; pj_param scan order src/pj_param.c:36-108)."""

    def __init__(self):
        self._d: dict = {}
        self.used: set = set()
        # full append-order record incl. SHADOWED duplicates: the C
        # paralist keeps later same-name entries (first-match lookup
        # never touches them, so pr_list shows them as NOT used).
        # pj_mkparam appends UNCONDITIONALLY (run-line argv,
        # src/pj_init.c:419; datum expansion, src/pj_datum_set.c:77-81)
        # — even an exact name=value repeat gets its own node — while
        # the init-file / defaults merge path drops a token whose full
        # name=value already exists (get_opt's existence test,
        # src/pj_init.c:186-201): ``unconditional`` selects which.
        self.entries: list = []

    def append(self, token: str, unconditional: bool = True):
        if "=" in token:
            k, v = token.split("=", 1)
        else:
            k, v = token, ""
        if k not in self._d:
            self._d[k] = v
            self.entries.append((k, v, False))
        elif unconditional or self._d[k] != v:
            self.entries.append((k, v, True))  # shadowed duplicate

    def has(self, key: str) -> bool:
        # pj_param type 't' is a PRESENCE probe: it does NOT set the
        # used flag (src/pj_param.c:48-49) — only value reads do
        return key in self._d

    def get_s(self, key: str):
        if key in self._d:
            self.used.add(key)
            return self._d[key]
        return None

    def get_f(self, key: str, default: float = 0.0) -> float:
        v = self.get_s(key)
        if v is None or v == "":
            return default
        try:
            return float(v)
        except ValueError:
            # atof semantics: parse leading numeric prefix
            import re

            m = re.match(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?", v)
            return float(m.group(0)) if m else default

    def get_r(self, key: str, default: float = 0.0) -> float:
        v = self.get_s(key)
        if v is None or v == "":
            return default
        return dmstor(v)

    def get_i(self, key: str, default: int = 0) -> int:
        v = self.get_s(key)
        if v is None or v == "":
            return default
        return int(float(v))

    def get_b(self, key: str) -> bool:
        # pj_param 'b' (src/pj_param.c:72-84): bare key or T/t => True;
        # F/f => False; anything else is errno -8
        if key not in self._d:
            return False
        self.used.add(key)
        v = self._d[key]
        if v == "" or v[0] in "Tt":
            return True
        if v[0] in "Ff":
            return False
        raise ValueError(f"invalid boolean parameter argument +{key}={v} (-8)")

    def keys(self):
        return self._d.keys()


class CRS:
    """A compiled coordinate reference system (the reference's ``PJ``,
    src/projects.h:226-284, rebuilt as a plain Python object)."""

    def __init__(self, defn: str):
        self.defn = defn
        pl = ParamList()
        for tok in _parse_tokens(defn):
            pl.append(tok)

        # +init expansion (appended after explicit args => args win)
        init = pl.get_s("init")
        if init is not None:
            try:
                fname, key = init.split(":", 1)
            except ValueError:
                raise ValueError(f"bad +init={init!r} (-3)")
            defn_str = None
            proj_lib = os.environ.get("PROJ_LIB")
            if proj_lib:
                fpath = os.path.join(proj_lib, fname)
                if os.path.isfile(fpath):
                    defn_str = read_init_file(fpath, key)
            if defn_str is None:
                # bundled init DB (full epsg/IGNF/esri/nad27/nad83/world
                # keyed files, parsed at build time by
                # tools/build_init_db.py) — PROJ_LIB wins if present
                defn_str = init_db_lookup(fname, key)
            if defn_str is None:
                file_known = init_db_has_file(fname)
                if proj_lib and os.path.isfile(
                        os.path.join(proj_lib, fname)):
                    file_known = True
                if not file_known:
                    # pj_open_lib fopen failure leaves the POSITIVE
                    # system errno: 'no system list, errno: 2'
                    import errno as _errno

                    raise FileNotFoundError(
                        _errno.ENOENT, f"init file {fname!r} (2)")
                raise ValueError(f"unknown init key {init!r} (-2)")
            for tok in _parse_tokens(defn_str):
                pl.append(tok, unconditional=False)  # get_opt merge

        name = pl.get_s("proj")
        if not name:
            raise ValueError("no projection name (-4)")
        setup = setup_for(name)
        if setup is None:
            raise ValueError(f"unknown projection {name!r} (-5)")
        self.proj_name = name

        # defaults unless +no_defs; the general ellps default is
        # suppressed when any earth-model param is already present
        # (get_opt "don't default ellipse", src/pj_init.c:188-201)
        if not pl.get_b("no_defs"):
            # get_defaults reads the general section FIRST, then the
            # per-projection section (src/pj_init.c:228-231)
            has_earth = any(k in pl.keys()
                            for k in ("datum", "ellps", "a", "b", "rf", "f"))
            for tok in GENERAL_DEFAULTS:
                if tok.startswith("ellps=") and has_earth:
                    continue
                pl.append(tok, unconditional=False)  # get_opt merge
            for tok in PROJ_DEFAULTS.get(name, []):
                pl.append(tok, unconditional=False)  # get_opt merge

        self.pl = pl
        self.is_latlong = False
        self.is_geocent = False
        self.axis = "enu"
        self.long_wrap_center = 0.0
        self.is_long_wrap_set = False
        self.datum_type = PJD_UNKNOWN
        self.datum_params = [0.0] * 7
        self.nadgrids = None
        self.catalog_name = None
        self.datum_date = 0.0

        self._datum_set(pl)
        self.a, self.es = self._ell_set(pl)
        self.a_orig = self.a
        self.es_orig = self.es
        self.e = _c_sqrt(self.es)
        self.ra = 1.0 / self.a
        self.one_es = 1.0 - self.es
        if self.one_es == 0.0:
            raise ValueError("effective eccentricity = 1 (-6)")
        self.rone_es = 1.0 / self.one_es

        # WGS84 datum shortcut (src/pj_init.c:480-489)
        if (self.datum_type == PJD_3PARAM
                and self.datum_params[0] == 0.0
                and self.datum_params[1] == 0.0
                and self.datum_params[2] == 0.0
                and self.a == 6378137.0
                and abs(self.es - 0.006694379990) < 0.000000000050):
            self.datum_type = PJD_WGS84

        self.geoc = bool(self.es) and pl.get_b("geoc")
        self.over = pl.get_b("over")
        self.geoidgrids = pl.get_s("geoidgrids")

        self.is_long_wrap_set = pl.has("lon_wrap")
        if self.is_long_wrap_set:
            self.long_wrap_center = pl.get_r("lon_wrap")

        axis = pl.get_s("axis")
        if axis is not None:
            if len(axis) != 3 or any(c not in "ewnsud" for c in axis):
                raise ValueError(f"bad +axis={axis!r} (-47)")
            self.axis = axis

        self.lam0 = pl.get_r("lon_0")
        self.phi0 = pl.get_r("lat_0")
        self.x0 = pl.get_f("x_0")
        self.y0 = pl.get_f("y_0")

        if pl.has("k_0"):
            self.k0 = pl.get_f("k_0")
        elif pl.has("k"):
            self.k0 = pl.get_f("k")
        else:
            self.k0 = 1.0
        if self.k0 <= 0.0:
            raise ValueError("k <= 0 (-31)")

        self.to_meter, self.fr_meter = self._units(pl, "units", "to_meter", None)
        self.vto_meter, self.vfr_meter = self._units(
            pl, "vunits", "vto_meter", (self.to_meter, self.fr_meter))

        # prime meridian (src/pj_init.c:585-610)
        pm = pl.get_s("pm")
        if pm is not None:
            value = PRIME_MERIDIANS.get(pm)
            if value is None:
                # accepted as a literal angle only when dmstor consumes
                # the WHOLE token to a nonzero value, or it starts with
                # '0' (src/pj_init.c:600-604); otherwise errno -46
                import re as _re

                ok = False
                if _re.match(r"[+-]?[0-9.]", pm) and _re.fullmatch(
                        r"[+-]?[0-9.dD'\"rR]+[NnSsEeWw]?", pm):
                    try:
                        ok = dmstor(pm) != 0.0 or pm[:1] == "0"
                    except (ValueError, IndexError):
                        ok = False
                elif pm[:1] == "0":
                    ok = True
                if not ok:
                    raise ValueError(
                        "unknown prime meridian conversion id (-46)")
                self.from_greenwich = dmstor(pm)
            else:
                self.from_greenwich = dmstor(value)
        else:
            self.from_greenwich = 0.0

        # projection-specific setup installs fwd/inv
        self.fwd = None
        self.inv = None
        # the C runs setups with IEEE non-stop arithmetic: degenerate
        # parameters (e.g. urm5 without +n) produce inf/nan constants
        # silently and init "succeeds" — match that (no warnings, no
        # Python ZeroDivisionError surfacing as a different error)
        import warnings

        import numpy as np

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            setup(self)

    # -- pj_param-style accessors used by setup functions ---------------
    def param_t(self, key):
        return key in self.pl.keys()

    def param_s(self, key):
        return self.pl.get_s(key)

    def param_f(self, key, default=0.0):
        return self.pl.get_f(key, default)

    def param_r(self, key, default=0.0):
        return self.pl.get_r(key, default)

    def param_i(self, key, default=0):
        return self.pl.get_i(key, default)

    def param_b(self, key):
        return self.pl.get_b(key)

    # -------------------------------------------------------------------
    def _datum_set(self, pl: ParamList):
        """src/pj_datum_set.c:40-153."""
        name = pl.get_s("datum")
        if name is not None:
            if name not in DATUMS:
                raise ValueError(f"unknown datum {name!r} (-9)")
            defn, ellps_id = DATUMS[name]
            if ellps_id:
                pl.append(f"ellps={ellps_id}")
            if defn:
                pl.append(defn)

        nadgrids = pl.get_s("nadgrids")
        if nadgrids is not None:
            self.datum_type = PJD_GRIDSHIFT
            self.nadgrids = nadgrids
            return
        # +catalog=<csv> [+date=<yyyy.f|yyyy-mm-dd>] — dated grid catalog
        # (pj_datum_set.c:96-108); nadgrids wins when both are given
        catalog = pl.get_s("catalog")
        if catalog is not None:
            from .kernels.gridcatalog import parse_catalog_date

            self.datum_type = PJD_GRIDSHIFT
            self.catalog_name = catalog
            date = pl.get_s("date")
            self.datum_date = parse_catalog_date(date) if date else 0.0
            return
        towgs84 = pl.get_s("towgs84")
        if towgs84 is not None:
            vals = [float(v) for v in towgs84.split(",") if v != ""]
            params = (vals + [0.0] * 7)[:7]
            if any(params[3:7]):
                self.datum_type = PJD_7PARAM
                params[3] *= SEC_TO_RAD
                params[4] *= SEC_TO_RAD
                params[5] *= SEC_TO_RAD
                params[6] = params[6] / 1000000.0 + 1.0
            else:
                self.datum_type = PJD_3PARAM
            self.datum_params = params

    @staticmethod
    def _ell_set(pl: ParamList):
        """src/pj_ell_set.c:16-104."""
        a = es = 0.0
        if pl.has("R"):
            a = pl.get_f("R")
        else:
            name = pl.get_s("ellps")
            extra = ParamList()
            if name is not None:
                if name not in ELLPS:
                    raise ValueError(f"unknown ellipsoid {name!r} (-9)")
                major, ell = ELLPS[name]
                extra.append(major)
                extra.append(ell)

            def get(key, kind="f"):
                # explicit param wins over ellps expansion (appended last)
                if key in pl.keys():
                    return pl.get_f(key)
                if key in extra.keys():
                    return extra.get_f(key)
                return None

            def has(key):
                return key in pl.keys() or key in extra.keys()

            b = 0.0
            av = get("a")
            a = av if av is not None else 0.0
            if has("es"):
                es = get("es")
            elif has("e"):
                e = get("e")
                es = e * e
            elif has("rf"):
                es = get("rf")
                if not es:
                    raise ValueError("reciprocal flattening = 0 (-10)")
                es = 1.0 / es
                es = es * (2.0 - es)
            elif has("f"):
                es = get("f")
                es = es * (2.0 - es)
            elif has("b"):
                b = get("b")
                es = 1.0 - (b * b) / (a * a)
            if not b:
                b = a * _c_sqrt(1.0 - es)

            SIXTH = 0.1666666666666666667
            RA4 = 0.04722222222222222222
            RA6 = 0.02215608465608465608
            RV4 = 0.06944444444444444444
            RV6 = 0.04243827160493827160
            if pl.get_b("R_A"):
                a *= 1.0 - es * (SIXTH + es * (RA4 + es * RA6))
                es = 0.0
            elif pl.get_b("R_V"):
                a *= 1.0 - es * (SIXTH + es * (RV4 + es * RV6))
                es = 0.0
            elif pl.get_b("R_a"):
                a = 0.5 * (a + b)
                es = 0.0
            elif pl.get_b("R_g"):
                a = _c_sqrt(a * b)
                es = 0.0
            elif pl.get_b("R_h"):
                a = 2.0 * a * b / (a + b)
                es = 0.0
            elif pl.has("R_lat_a") or pl.has("R_lat_g"):
                arith = pl.has("R_lat_a")
                tmp = math.sin(pl.get_r("R_lat_a" if arith else "R_lat_g"))
                if abs(tmp) > math.pi / 2:
                    raise ValueError("|R_lat| > 90 (-11)")
                tmp = 1.0 - es * tmp * tmp
                a *= (0.5 * (1.0 - es + tmp) / (tmp * _c_sqrt(tmp)) if arith
                      else _c_sqrt(1.0 - es) / tmp)
                es = 0.0
        if es < 0.0:
            raise ValueError("es < 0 (-12)")
        if a <= 0.0:
            raise ValueError("a <= 0 (-13)")
        return a, es

    @staticmethod
    def _units(pl: ParamList, units_key, to_meter_key, default):
        """src/pj_init.c:556-583 (ratio '1/x' form supported)."""
        s = None
        name = pl.get_s(units_key)
        if name is not None:
            if name not in UNITS:
                raise ValueError(f"unknown unit {name!r} (-7)")
            s = UNITS[name]
        if s is None:
            s = pl.get_s(to_meter_key)
        if s is not None:
            if "/" in s:
                num, den = s.split("/", 1)
                to_meter = _c_div(float(num), float(den))
            else:
                to_meter = float(s)
            return to_meter, _c_div(1.0, to_meter)
        if default is not None:
            return default
        return 1.0, 1.0

    # -------------------------------------------------------------------
    def same_datum(self, other: "CRS") -> bool:
        """src/pj_transform.c:459-496 (pj_compare_datums)."""
        if self.datum_type != other.datum_type:
            return False
        if (self.a_orig != other.a_orig
                or abs(self.es_orig - other.es_orig) > 0.000000000050):
            return False
        if self.datum_type == PJD_3PARAM:
            return self.datum_params[:3] == other.datum_params[:3]
        if self.datum_type == PJD_7PARAM:
            return self.datum_params == other.datum_params
        if self.datum_type == PJD_GRIDSHIFT:
            return (self.nadgrids == other.nadgrids
                    and self.catalog_name == other.catalog_name
                    and self.datum_date == other.datum_date)
        return True

    def to_proj4(self) -> str:
        """Serialize back to a +proj string from the USED parameters
        (pj_get_def semantics, src/pj_utils.c:71-116: only params whose
        ``used`` flag is set appear)."""
        toks = []
        for k in self.pl.keys():
            if k in self.pl.used or k == "proj":
                v = self.pl._d[k]
                toks.append(f"+{k}={v}" if v != "" else f"+{k}")
        return " ".join(toks)

    def latlong_base(self) -> "CRS":
        """The underlying geographic CRS (pj_latlong_from_proj,
        src/pj_utils.c:118-173): keeps datum/ellipsoid/grid/pm params."""
        keep = ("datum", "ellps", "a", "b", "rf", "es", "e", "f", "towgs84",
                "nadgrids", "pm", "R", "geoidgrids", "lon_wrap", "over")
        toks = ["+proj=latlong"]
        for k in self.pl.keys():
            if k in keep:
                v = self.pl._d[k]
                toks.append(f"+{k}={v}" if v != "" else f"+{k}")
        return CRS(" ".join(toks))

    def __repr__(self):
        return f"CRS({self.defn!r})"
