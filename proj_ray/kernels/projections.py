"""Vectorized projection kernels + registry (PROJ.4-equivalent, pure NumPy).

Each projection is a pure pair ``fwd(lam, phi) -> (x, y)`` /
``inv(x, y) -> (lam, phi)`` over float64 radian arrays, installed on a CRS
object by a ``setup_*`` function — mirroring the reference's ``pj_list[]``
registry (src/pj_list.h:8-144) and per-projection setup entries. Errors are
signalled per-lane with ``inf`` (HUGE_VAL), never exceptions, so batches
keep flowing (src/pj_transform.c:70-76).

Generic pre/post wrappers ``generic_fwd`` / ``generic_inv`` replicate
src/pj_fwd.c:7-37 and src/pj_inv.c:7-33 (range check, pole snap, geocentric
latitude, lam0 removal, adjlon wrap, scale + false easting/northing).
"""

from __future__ import annotations

import importlib

import numpy as np

from .common import (
    FORTPI,
    HALFPI,
    HUGE,
    PI,
    adjlon,
    aatan2,
    enfn,
    inv_mlfn,
    iterate_lanes,
    mlfn,
    msfn,
    phi2,
    tsfn,
)

EPS10 = 1.0e-10
_WRAP_EPS = 1.0e-12  # pj_fwd.c EPS

# name -> setup_fn (descriptions: descr.py)
PROJ_REGISTRY: dict = {}


def register(name):
    def deco(fn):
        PROJ_REGISTRY[name] = fn
        return fn

    return deco


def setup_for(name):
    """Setup function of projection ``name``, or None if it has none.

    Imports projections2 ... projections16 in order until one registers
    ``name``; no name is registered twice, so the first hit is the setup.
    """
    for wave in range(2, 17):
        if name in PROJ_REGISTRY:
            break
        importlib.import_module(f"{__package__}.projections{wave}")
    return PROJ_REGISTRY.get(name)


# ---------------------------------------------------------------------------
# generic wrappers (src/pj_fwd.c / src/pj_inv.c)
# ---------------------------------------------------------------------------

def generic_fwd(P, lam, phi):
    """Vectorized pj_fwd: range check, pole snap, lam0, wrap, project, scale."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    t = np.abs(phi) - HALFPI
    bad = (t > _WRAP_EPS) | (np.abs(lam) > 10.0) | ~np.isfinite(lam) | ~np.isfinite(phi)
    snap = np.abs(t) <= _WRAP_EPS
    phi = np.where(snap, np.where(phi < 0.0, -HALFPI, HALFPI), phi)
    if P.geoc:
        phi = np.where(snap, phi, np.arctan(P.rone_es * np.tan(phi)))
    lam = lam - P.lam0
    if not P.over:
        lam = adjlon(lam)
    x, y = P.fwd(lam, phi)
    x = P.fr_meter * (P.a * x + P.x0)
    y = P.fr_meter * (P.a * y + P.y0)
    bad = bad | ~np.isfinite(x) | ~np.isfinite(y)
    x = np.where(bad, HUGE, x)
    y = np.where(bad, HUGE, y)
    return x, y


def generic_inv(P, x, y):
    """Vectorized pj_inv: descale/de-offset, inverse-project, restore lam0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    bad = ~np.isfinite(x) | ~np.isfinite(y)
    x = (x * P.to_meter - P.x0) * P.ra
    y = (y * P.to_meter - P.y0) * P.ra
    lam, phi = P.inv(x, y)
    lam = lam + P.lam0
    if not P.over:
        lam = adjlon(lam)
    if P.geoc:
        nosnap = np.abs(np.abs(phi) - HALFPI) > _WRAP_EPS
        phi = np.where(nosnap, np.arctan(P.one_es * np.tan(phi)), phi)
    bad = bad | ~np.isfinite(lam) | ~np.isfinite(phi)
    lam = np.where(bad, HUGE, lam)
    phi = np.where(bad, HUGE, phi)
    return lam, phi


# ---------------------------------------------------------------------------
# latlong family (src/pj_latlong.c:40-80)
# ---------------------------------------------------------------------------

def _setup_latlong(P):
    P.is_latlong = True
    P.x0 = 0.0
    P.y0 = 0.0
    ra = 1.0 / P.a

    def fwd(lam, phi):
        return lam * ra, phi * ra

    def inv(x, y):
        return x * P.a, y * P.a

    P.fwd = fwd
    P.inv = inv


for _n in ("latlong", "longlat", "latlon", "lonlat"):
    register(_n)(_setup_latlong)


# ---------------------------------------------------------------------------
# merc — Mercator, spherical & ellipsoidal (src/PJ_merc.c:5-47);
# Web Mercator (EPSG:3857) = spherical case via +a=6378137 +b=6378137
# ---------------------------------------------------------------------------

@register("merc")
def setup_merc(P):
    if P.param_t("lat_ts"):
        phits = abs(P.param_r("lat_ts"))
        if phits >= HALFPI:
            raise ValueError("merc: |lat_ts| >= 90 (-24)")
        if P.es:
            P.k0 = float(msfn(np.sin(phits), np.cos(phits), P.es))
        else:
            P.k0 = float(np.cos(phits))
    k0 = P.k0
    if P.es:
        e = P.e

        def fwd(lam, phi):
            bad = (np.abs(np.abs(phi) - HALFPI) <= EPS10) | ~np.isfinite(phi)
            with np.errstate(invalid="ignore"):
                y = -k0 * np.log(tsfn(np.where(bad, 0.0, phi),
                                      np.sin(np.where(bad, 0.0, phi)), e))
            x = k0 * lam
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            phi = phi2(np.exp(-y / k0), e)
            lam = x / k0
            return np.where(np.isfinite(phi), lam, HUGE), phi

    else:

        def fwd(lam, phi):
            bad = (np.abs(np.abs(phi) - HALFPI) <= EPS10) | ~np.isfinite(phi)
            x = k0 * lam
            with np.errstate(invalid="ignore"):
                y = k0 * np.log(np.tan(FORTPI + 0.5 * np.where(bad, 0.0, phi)))
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            phi = HALFPI - 2.0 * np.arctan(np.exp(-y / k0))
            lam = x / k0
            return lam, phi

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# tmerc / utm — Transverse Mercator, Evenden/Snyder series
# (src/PJ_tmerc.c:21-175)
# ---------------------------------------------------------------------------

_FC = (1.0, 0.5, 0.16666666666666666666, 0.08333333333333333333, 0.05,
       0.03333333333333333333, 0.02380952380952380952, 0.01785714285714285714)


def _tmerc_setup_common(P):
    if P.es:
        en = enfn(P.es)
        ml0 = float(mlfn(np.float64(P.phi0), np.sin(P.phi0), np.cos(P.phi0), en))
        esp = P.es / (1.0 - P.es)
        es, k0 = P.es, P.k0
        FC1, FC2, FC3, FC4, FC5, FC6, FC7, FC8 = _FC

        def fwd(lam, phi):
            out_of_range = (lam < -HALFPI) | (lam > HALFPI)
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            t = np.where(np.abs(cosphi) > 1e-10, sinphi / cosphi, 0.0)
            t = t * t
            al = cosphi * lam
            als = al * al
            al = al / np.sqrt(1.0 - es * sinphi * sinphi)
            n = esp * cosphi * cosphi
            x = k0 * al * (FC1 +
                FC3 * als * (1.0 - t + n +
                FC5 * als * (5.0 + t * (t - 18.0) + n * (14.0 - 58.0 * t)
                + FC7 * als * (61.0 + t * (t * (179.0 - t) - 479.0)))))
            y = k0 * (mlfn(phi, sinphi, cosphi, en) - ml0 +
                sinphi * al * lam * FC2 * (1.0 +
                FC4 * als * (5.0 - t + n * (9.0 + 4.0 * n) +
                FC6 * als * (61.0 + t * (t - 58.0) + n * (270.0 - 330.0 * t)
                + FC8 * als * (1385.0 + t * (t * (543.0 - t) - 3111.0))))))
            x = np.where(out_of_range, HUGE, x)
            y = np.where(out_of_range, HUGE, y)
            return x, y

        def inv(x, y):
            phi = inv_mlfn(ml0 + y / k0, es, en)
            at_pole = np.abs(phi) >= HALFPI
            phi_p = np.where(at_pole, np.where(y < 0.0, -HALFPI, HALFPI), phi)
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            t = np.where(np.abs(cosphi) > 1e-10, sinphi / cosphi, 0.0)
            n = esp * cosphi * cosphi
            con = 1.0 - es * sinphi * sinphi
            d = x * np.sqrt(con) / k0
            con = con * t
            t = t * t
            ds = d * d
            phi_i = phi - (con * ds / (1.0 - es)) * _FC[1] * (1.0 -
                ds * _FC[3] * (5.0 + t * (3.0 - 9.0 * n) + n * (1.0 - 4.0 * n) -
                ds * _FC[5] * (61.0 + t * (90.0 - 252.0 * n + 45.0 * t) + 46.0 * n
                - ds * _FC[7] * (1385.0 + t * (3633.0 + t * (4095.0 + 1574.0 * t))))))
            lam_i = d * (_FC[0] -
                ds * _FC[2] * (1.0 + 2.0 * t + n -
                ds * _FC[4] * (5.0 + t * (28.0 + 24.0 * t + 8.0 * n) + 6.0 * n
                - ds * _FC[6] * (61.0 + t * (662.0 + t * (1320.0 + 720.0 * t)))))) / cosphi
            phi_out = np.where(at_pole, phi_p, phi_i)
            lam_out = np.where(at_pole, 0.0, lam_i)
            return lam_out, phi_out

    else:
        aks0 = P.k0
        aks5 = 0.5 * aks0
        phi0 = P.phi0

        def fwd(lam, phi):
            out_of_range = (lam < -HALFPI) | (lam > HALFPI)
            cosphi = np.cos(phi)
            b = cosphi * np.sin(lam)
            bad = np.abs(np.abs(b) - 1.0) <= EPS10
            x = aks5 * np.log((1.0 + b) / (1.0 - b))
            yv = cosphi * np.cos(lam) / np.sqrt(1.0 - b * b)
            absy = np.abs(yv)
            overflow = (absy >= 1.0) & ((absy - 1.0) > EPS10)
            y = np.where(absy >= 1.0, 0.0, np.arccos(np.clip(yv, -1.0, 1.0)))
            y = np.where(phi < 0.0, -y, y)
            y = aks0 * (y - phi0)
            bad = bad | overflow | out_of_range
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            h = np.exp(x / aks0)
            g = 0.5 * (h - 1.0 / h)
            h = np.cos(phi0 + y / aks0)
            phi = np.arcsin(np.sqrt(np.clip((1.0 - h * h) / (1.0 + g * g), 0.0, 1.0)))
            phi = np.where(y < 0.0, -phi, phi)
            lam = np.where((g != 0.0) | (h != 0.0), np.arctan2(g, h), 0.0)
            return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("tmerc")
def setup_tmerc(P):
    _tmerc_setup_common(P)


@register("utm")
def setup_utm(P):
    # src/PJ_tmerc.c:156-175
    if not P.es:
        raise ValueError("utm: ellipsoid required (-34)")
    P.y0 = 10000000.0 if P.param_b("south") else 0.0
    P.x0 = 500000.0
    if P.param_t("zone"):
        zone = P.param_i("zone")
        if 0 < zone <= 60:
            zone -= 1
        else:
            raise ValueError("utm: invalid zone (-35)")
    else:
        zone = int(np.floor((float(adjlon(np.float64(P.lam0))) + PI) * 30.0 / PI))
        zone = min(max(zone, 0), 59)
    P.lam0 = (zone + 0.5) * PI / 30.0 - PI
    P.k0 = 0.9996
    P.phi0 = 0.0
    _tmerc_setup_common(P)


# ---------------------------------------------------------------------------
# etmerc — exact/extended TM, Poder/Engsager 6th order
# (src/proj_etmerc.c:148-289)
# ---------------------------------------------------------------------------

def _gatg(coefs, B):
    """Clenshaw sum of sin(2kB) series; vectorized src/proj_etmerc.c:87-95."""
    cos_2B = 2.0 * np.cos(2.0 * B)
    h1 = np.full_like(B, coefs[-1])
    h2 = np.zeros_like(B)
    h = h1
    for c in coefs[-2::-1]:
        h = -h2 + cos_2B * h1 + c
        h2, h1 = h1, h
    return B + h * np.sin(2.0 * B)


def _clenS(a, arg_r, arg_i):
    """Complex Clenshaw summation; vectorized src/proj_etmerc.c:100-131."""
    sin_r, cos_r = np.sin(arg_r), np.cos(arg_r)
    sinh_i, cosh_i = np.sinh(arg_i), np.cosh(arg_i)
    r = 2.0 * cos_r * cosh_i
    i = -2.0 * sin_r * sinh_i
    hr = np.full_like(arg_r, a[-1])
    hr1 = np.zeros_like(arg_r)
    hr2 = np.zeros_like(arg_r)
    hi = np.zeros_like(arg_r)
    hi1 = np.zeros_like(arg_r)
    hi2 = np.zeros_like(arg_r)
    for c in a[-2::-1]:
        hr2, hi2 = hr1, hi1
        hr1, hi1 = hr, hi
        hr = -hr2 + r * hr1 - i * hi1 + c
        hi = -hi2 + i * hr1 + r * hi1
    rr = sin_r * cosh_i
    ii = cos_r * sinh_i
    R = rr * hr - ii * hi
    I = rr * hi + ii * hr
    return R, I


def _clens(a, arg_r):
    """Real Clenshaw summation; src/proj_etmerc.c:133-146."""
    cos_r = np.cos(arg_r)
    r = 2.0 * cos_r
    hr1 = np.zeros_like(np.asarray(arg_r, dtype=np.float64))
    hr = np.full_like(hr1, a[-1])
    for c in a[-2::-1]:
        hr2 = hr1
        hr1 = hr
        hr = -hr2 + r * hr1 + c
    return np.sin(arg_r) * hr


@register("etmerc")
def setup_etmerc(P):
    if P.es <= 0:
        raise ValueError("etmerc: ellipsoid required (-34)")
    f = P.es / (1.0 + np.sqrt(1.0 - P.es))
    n = f / (2.0 - f)
    npow = n
    cgb = np.empty(6)
    cbg = np.empty(6)
    cgb[0] = n * (2 + n * (-2 / 3.0 + n * (-2 + n * (116 / 45.0 + n * (26 / 45.0 +
             n * (-2854 / 675.0))))))
    cbg[0] = n * (-2 + n * (2 / 3.0 + n * (4 / 3.0 + n * (-82 / 45.0 + n * (32 / 45.0 +
             n * (4642 / 4725.0))))))
    npow *= n
    cgb[1] = npow * (7 / 3.0 + n * (-8 / 5.0 + n * (-227 / 45.0 + n * (2704 / 315.0 +
             n * (2323 / 945.0)))))
    cbg[1] = npow * (5 / 3.0 + n * (-16 / 15.0 + n * (-13 / 9.0 + n * (904 / 315.0 +
             n * (-1522 / 945.0)))))
    npow *= n
    cgb[2] = npow * (56 / 15.0 + n * (-136 / 35.0 + n * (-1262 / 105.0 +
             n * (73814 / 2835.0))))
    cbg[2] = npow * (-26 / 15.0 + n * (34 / 21.0 + n * (8 / 5.0 +
             n * (-12686 / 2835.0))))
    npow *= n
    cgb[3] = npow * (4279 / 630.0 + n * (-332 / 35.0 + n * (-399572 / 14175.0)))
    cbg[3] = npow * (1237 / 630.0 + n * (-12 / 5.0 + n * (-24832 / 14175.0)))
    npow *= n
    cgb[4] = npow * (4174 / 315.0 + n * (-144838 / 6237.0))
    cbg[4] = npow * (-734 / 315.0 + n * (109598 / 31185.0))
    npow *= n
    cgb[5] = npow * (601676 / 22275.0)
    cbg[5] = npow * (444337 / 155925.0)

    np2 = n * n
    Qn = P.k0 / (1 + n) * (1 + np2 * (1 / 4.0 + np2 * (1 / 64.0 + np2 / 256.0)))
    utg = np.empty(6)
    gtu = np.empty(6)
    utg[0] = n * (-0.5 + n * (2 / 3.0 + n * (-37 / 96.0 + n * (1 / 360.0 +
             n * (81 / 512.0 + n * (-96199 / 604800.0))))))
    gtu[0] = n * (0.5 + n * (-2 / 3.0 + n * (5 / 16.0 + n * (41 / 180.0 +
             n * (-127 / 288.0 + n * (7891 / 37800.0))))))
    utg[1] = np2 * (-1 / 48.0 + n * (-1 / 15.0 + n * (437 / 1440.0 + n * (-46 / 105.0 +
             n * (1118711 / 3870720.0)))))
    gtu[1] = np2 * (13 / 48.0 + n * (-3 / 5.0 + n * (557 / 1440.0 + n * (281 / 630.0 +
             n * (-1983433 / 1935360.0)))))
    np3 = np2 * n
    utg[2] = np3 * (-17 / 480.0 + n * (37 / 840.0 + n * (209 / 4480.0 +
             n * (-5569 / 90720.0))))
    gtu[2] = np3 * (61 / 240.0 + n * (-103 / 140.0 + n * (15061 / 26880.0 +
             n * (167603 / 181440.0))))
    np4 = np3 * n
    utg[3] = np4 * (-4397 / 161280.0 + n * (11 / 504.0 + n * (830251 / 7257600.0)))
    gtu[3] = np4 * (49561 / 161280.0 + n * (-179 / 168.0 + n * (6601661 / 7257600.0)))
    np5 = np4 * n
    utg[4] = np5 * (-4583 / 161280.0 + n * (108847 / 3991680.0))
    gtu[4] = np5 * (34729 / 80640.0 + n * (-3418889 / 1995840.0))
    np6 = np5 * n
    utg[5] = np6 * (-20648693 / 638668800.0)
    gtu[5] = np6 * (212378941 / 319334400.0)

    Z = float(_gatg(cbg, np.float64(P.phi0)))
    Zb = -Qn * (Z + float(_clens(gtu, np.float64(2.0 * Z))))
    LIMIT = 2.623395162778  # ~150 deg in normalized easting

    def fwd(lam, phi):
        Cn = _gatg(cbg, phi)
        sin_Cn, cos_Cn = np.sin(Cn), np.cos(Cn)
        sin_Ce, cos_Ce = np.sin(lam), np.cos(lam)
        Cn = np.arctan2(sin_Cn, cos_Ce * cos_Cn)
        Ce = np.arctan2(sin_Ce * cos_Cn, np.hypot(sin_Cn, cos_Cn * cos_Ce))
        Ce = np.arcsinh(np.tan(Ce))
        dCn, dCe = _clenS(gtu, 2.0 * Cn, 2.0 * Ce)
        Cn = Cn + dCn
        Ce = Ce + dCe
        ok = np.abs(Ce) <= LIMIT
        y = np.where(ok, Qn * Cn + Zb, HUGE)
        x = np.where(ok, Qn * Ce, HUGE)
        return x, y

    def inv(x, y):
        Cn = (y - Zb) / Qn
        Ce = x / Qn
        ok = np.abs(Ce) <= LIMIT
        dCn, dCe = _clenS(utg, 2.0 * Cn, 2.0 * Ce)
        Cn = Cn + dCn
        Ce = Ce + dCe
        Ce = np.arctan(np.sinh(Ce))
        sin_Cn, cos_Cn = np.sin(Cn), np.cos(Cn)
        sin_Ce, cos_Ce = np.sin(Ce), np.cos(Ce)
        lam = np.arctan2(sin_Ce, cos_Ce * cos_Cn)
        Cn2 = np.arctan2(sin_Cn * cos_Ce, np.hypot(sin_Ce, cos_Ce * cos_Cn))
        phi = _gatg(cgb, Cn2)
        return np.where(ok, lam, HUGE), np.where(ok, phi, HUGE)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# lcc — Lambert Conformal Conic 1/2SP (src/PJ_lcc.c:13-105)
# ---------------------------------------------------------------------------

@register("lcc")
def setup_lcc(P):
    phi1 = P.param_r("lat_1")
    if P.param_t("lat_2"):
        phi2_ = P.param_r("lat_2")
    else:
        phi2_ = phi1
        if not P.param_t("lat_0"):
            P.phi0 = phi1
    if abs(phi1 + phi2_) < EPS10:
        raise ValueError("lcc: conic lat_1 == -lat_2 (-21)")
    n = sinphi = np.sin(phi1)
    cosphi = np.cos(phi1)
    secant = abs(phi1 - phi2_) >= EPS10
    ellips = P.es != 0.0
    if ellips:
        e = P.e
        m1 = float(msfn(sinphi, cosphi, P.es))
        ml1 = float(tsfn(np.float64(phi1), sinphi, e))
        if secant:
            sinphi2 = np.sin(phi2_)
            n = np.log(m1 / float(msfn(sinphi2, np.cos(phi2_), P.es)))
            n /= np.log(ml1 / float(tsfn(np.float64(phi2_), sinphi2, e)))
        c = rho0 = m1 * ml1 ** (-n) / n
        if abs(abs(P.phi0) - HALFPI) < EPS10:
            rho0 = 0.0
        else:
            rho0 *= float(tsfn(np.float64(P.phi0), np.sin(P.phi0), e)) ** n
    else:
        if secant:
            n = np.log(cosphi / np.cos(phi2_)) / np.log(
                np.tan(FORTPI + 0.5 * phi2_) / np.tan(FORTPI + 0.5 * phi1))
        c = cosphi * np.tan(FORTPI + 0.5 * phi1) ** n / n
        if abs(abs(P.phi0) - HALFPI) < EPS10:
            rho0 = 0.0
        else:
            rho0 = c * np.tan(FORTPI + 0.5 * P.phi0) ** (-n)
    n = float(n)
    c = float(c)
    rho0 = float(rho0)
    k0 = P.k0
    es, e_ = P.es, P.e

    def fwd(lam, phi):
        at_pole = np.abs(np.abs(phi) - HALFPI) < EPS10
        bad = at_pole & ((phi * n) <= 0.0)
        phi_s = np.where(at_pole, 0.0, phi)
        if ellips:
            rho = c * np.power(tsfn(phi_s, np.sin(phi_s), e_), n)
        else:
            rho = c * np.power(np.tan(FORTPI + 0.5 * phi_s), -n)
        rho = np.where(at_pole, 0.0, rho)
        lamn = lam * n
        x = k0 * (rho * np.sin(lamn))
        y = k0 * (rho0 - rho * np.cos(lamn))
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        x = x / k0
        y = rho0 - y / k0
        rho = np.hypot(x, y)
        nz = rho != 0.0
        if n < 0.0:
            rho = -rho
            x = -x
            y = -y
        if ellips:
            phi = phi2(np.power(np.abs(rho) / c, 1.0 / n) * np.sign(np.where(rho == 0, 1.0, 1.0)), e_)
            phi = phi2(np.power(np.where(nz, rho, 1.0) / c, 1.0 / n), e_)
        else:
            phi = 2.0 * np.arctan(np.power(c / np.where(nz, rho, 1.0), 1.0 / n)) - HALFPI
        lam = np.arctan2(x, y) / n
        phi = np.where(nz, phi, np.where(n > 0.0, HALFPI, -HALFPI))
        lam = np.where(nz, lam, 0.0)
        return lam, phi

    def spc(lam, phi):
        """Analytic factors SPECIAL(fac) (src/PJ_lcc.c:49-61):
        h = k = k0*n*rho/msfn(phi), conv = -n*lam.  pj_factors clamps
        phi off the poles before calling, so the pole early-return
        lanes never occur."""
        from .factors import IS_ANAL_CONV, IS_ANAL_HK

        if ellips:
            rho = c * np.power(tsfn(phi, np.sin(phi), e_), n)
        else:
            rho = c * np.power(np.tan(FORTPI + 0.5 * phi), -n)
        hk = k0 * n * rho / msfn(np.sin(phi), np.cos(phi), es)
        return {"code": IS_ANAL_HK | IS_ANAL_CONV, "h": hk, "k": hk,
                "conv": -n * lam}

    P.fwd = fwd
    P.inv = inv
    P.spc = spc


# ---------------------------------------------------------------------------
# geocent pseudo-projection (src/pj_geocent.c:39-56): the real conversion
# happens in the transform layer; fwd/inv here are identity.
# ---------------------------------------------------------------------------

@register("geocent")
def setup_geocent(P):
    P.is_geocent = True
    P.x0 = 0.0
    P.y0 = 0.0

    def fwd(lam, phi):
        return lam, phi

    def inv(x, y):
        return x, y

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# eqc — Equidistant Cylindrical / Plate Carree (reference src/PJ_eqc.c)
# ---------------------------------------------------------------------------

@register("eqc")
def setup_eqc(P):
    rc = float(np.cos(P.param_r("lat_ts"))) if P.param_t("lat_ts") else 1.0
    if rc <= 0.0:
        raise ValueError("eqc: |lat_ts| >= 90 (-24)")
    phi0 = P.phi0

    def fwd(lam, phi):
        return rc * lam, phi - phi0

    def inv(x, y):
        return x / rc, y + phi0

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# stere / ups — Stereographic (src/PJ_stere.c:27-236)
# ---------------------------------------------------------------------------

def _stere_setup_common(P, phits):
    TOL = 1.0e-8
    NITER = 8
    CONV = 1.0e-10
    phi0 = P.phi0
    es, e, k0 = P.es, P.e, P.k0
    t_ = abs(phi0)
    if abs(t_ - HALFPI) < EPS10:
        mode = "s_pole" if phi0 < 0.0 else "n_pole"
    elif t_ > EPS10:
        mode = "obliq"
    else:
        mode = "equit"
    phits = abs(phits)

    if es:

        def ssfn_(phit, sinphi):
            sinphi = sinphi * e
            return np.tan(0.5 * (HALFPI + phit)) * np.power(
                (1.0 - sinphi) / (1.0 + sinphi), 0.5 * e)

        sinX1 = cosX1 = 0.0
        if mode in ("n_pole", "s_pole"):
            if abs(phits - HALFPI) < EPS10:
                akm1 = 2.0 * k0 / np.sqrt(
                    np.power(1 + e, 1 + e) * np.power(1 - e, 1 - e))
            else:
                st = np.sin(phits)
                akm1 = np.cos(phits) / float(tsfn(np.float64(phits), st, e))
                st = st * e
                akm1 /= np.sqrt(1.0 - st * st)
        else:
            st = np.sin(phi0)
            X = 2.0 * np.arctan(ssfn_(np.float64(phi0), st)) - HALFPI
            st = st * e
            akm1 = 2.0 * k0 * np.cos(phi0) / np.sqrt(1.0 - st * st)
            sinX1 = float(np.sin(X))
            cosX1 = float(np.cos(X))
        akm1 = float(akm1)

        def fwd(lam, phi):
            coslam = np.cos(lam)
            sinlam = np.sin(lam)
            sinphi = np.sin(phi)
            if mode in ("obliq", "equit"):
                X = 2.0 * np.arctan(ssfn_(phi, sinphi)) - HALFPI
                sinX = np.sin(X)
                cosX = np.cos(X)
                if mode == "obliq":
                    A = akm1 / (cosX1 * (1.0 + sinX1 * sinX + cosX1 * cosX * coslam))
                    y = A * (cosX1 * sinX - sinX1 * cosX * coslam)
                else:
                    A = 2.0 * akm1 / (1.0 + cosX * coslam)
                    y = A * sinX
                x = A * cosX
            else:
                if mode == "s_pole":
                    phi = -phi
                    coslam = -coslam
                    sinphi = -sinphi
                x = akm1 * tsfn(phi, sinphi, e)
                y = -x * coslam
            x = x * sinlam
            return x, y

        def inv(x, y):
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            rho = np.hypot(x, y)
            if mode in ("obliq", "equit"):
                tp = 2.0 * np.arctan2(rho * cosX1, akm1)
                cosphi = np.cos(tp)
                sinphi = np.sin(tp)
                with np.errstate(invalid="ignore", divide="ignore"):
                    phi_l = np.where(
                        rho == 0.0,
                        np.arcsin(np.clip(cosphi * sinX1, -1.0, 1.0)),
                        np.arcsin(np.clip(cosphi * sinX1 + (y * sinphi * cosX1 / np.where(rho == 0, 1.0, rho)), -1.0, 1.0)),
                    )
                tp = np.tan(0.5 * (HALFPI + phi_l))
                xx = x * sinphi
                yy = rho * cosX1 * cosphi - y * sinX1 * sinphi
                halfpi = HALFPI
                halfe = 0.5 * e
            else:
                yy = -y if mode == "n_pole" else y
                tp = -rho / akm1
                phi_l = HALFPI - 2.0 * np.arctan(tp)
                halfpi = -HALFPI
                halfe = -0.5 * e
                xx = x
            # per-lane fixed-point iteration (PJ_stere.c:121-133)
            def step(phi, tp):
                sp = e * np.sin(phi)
                new = 2.0 * np.arctan(tp * np.power((1.0 + sp) / (1.0 - sp), halfe)) - halfpi
                return new, np.abs(phi - new) < CONV

            phi_cur, converged = iterate_lanes(step, phi_l.copy(), (tp,), NITER,
                                               np.isfinite(phi_l))
            phi = np.where(converged, phi_cur, HUGE)
            if mode == "s_pole":
                phi = np.where(converged, -phi_cur, HUGE)
            lam = np.where((xx == 0.0) & (yy == 0.0), 0.0, np.arctan2(xx, yy))
            lam = np.where(converged, lam, HUGE)
            return lam, phi

    else:
        sinph0 = float(np.sin(phi0))
        cosph0 = float(np.cos(phi0))
        if mode in ("obliq", "equit"):
            akm1 = 2.0 * k0
        else:
            akm1 = (np.cos(phits) / np.tan(FORTPI - 0.5 * phits)
                    if abs(phits - HALFPI) >= EPS10 else 2.0 * k0)
        akm1 = float(akm1)

        def fwd(lam, phi):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            coslam = np.cos(lam)
            sinlam = np.sin(lam)
            if mode in ("equit", "obliq"):
                if mode == "equit":
                    den = 1.0 + cosphi * coslam
                else:
                    den = 1.0 + sinph0 * sinphi + cosph0 * cosphi * coslam
                bad = den <= EPS10
                A = akm1 / np.where(bad, 1.0, den)
                x = A * cosphi * sinlam
                if mode == "equit":
                    y = A * sinphi
                else:
                    y = A * (cosph0 * sinphi - sinph0 * cosphi * coslam)
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
            else:
                if mode == "n_pole":
                    coslam = -coslam
                    phi = -phi
                bad = np.abs(phi - HALFPI) < TOL
                yv = akm1 * np.tan(FORTPI + 0.5 * phi)
                x = sinlam * yv
                y = yv * coslam
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            rh = np.hypot(x, y)
            c = 2.0 * np.arctan(rh / akm1)
            sinc = np.sin(c)
            cosc = np.cos(c)
            if mode == "equit":
                with np.errstate(invalid="ignore", divide="ignore"):
                    phi = np.where(np.abs(rh) <= EPS10, 0.0,
                                   np.arcsin(np.clip(y * sinc / np.where(rh == 0, 1.0, rh), -1.0, 1.0)))
                lam = np.where((cosc != 0.0) | (x != 0.0), np.arctan2(x * sinc, cosc * rh), 0.0)
            elif mode == "obliq":
                with np.errstate(invalid="ignore", divide="ignore"):
                    phi = np.where(np.abs(rh) <= EPS10, phi0,
                                   np.arcsin(np.clip(cosc * sinph0 + y * sinc * cosph0 / np.where(rh == 0, 1.0, rh), -1.0, 1.0)))
                cc = cosc - sinph0 * np.sin(phi)
                lam = np.where((cc != 0.0) | (x != 0.0), np.arctan2(x * sinc * cosph0, cc * rh), 0.0)
            else:
                yy = -y if mode == "n_pole" else y
                phi = np.where(np.abs(rh) <= EPS10, phi0,
                               np.arcsin(np.clip(np.where(mode == "s_pole", -cosc, cosc), -1.0, 1.0)))
                lam = np.where((x == 0.0) & (yy == 0.0), 0.0, np.arctan2(x, yy))
            return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("stere")
def setup_stere(P):
    phits = P.param_r("lat_ts") if P.param_t("lat_ts") else HALFPI
    _stere_setup_common(P, phits)


@register("ups")
def setup_ups(P):
    # src/PJ_stere.c ups entry: +south selects S pole; k0=0.994, x0=y0=2e6
    P.phi0 = -HALFPI if P.param_b("south") else HALFPI
    if not P.es:
        raise ValueError("ups: ellipsoid required (-34)")
    P.k0 = 0.994
    P.x0 = 2000000.0
    P.y0 = 2000000.0
    _stere_setup_common(P, HALFPI)
