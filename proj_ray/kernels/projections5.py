"""Projection kernels, wave 5: Krovak + simple spherical pseudocylindricals.

Reference parity:
- krovak (hardcoded Bessel + pseudo standard parallel) <- src/PJ_krovak.c
- eck1 / eck2                 <- src/PJ_eck1.c, src/PJ_eck2.c
- eck3 / putp1 / wag6 / kav7  <- src/PJ_eck3.c
- collg                       <- src/PJ_collg.c
- fouc_s                      <- src/PJ_fouc_s.c
- nell                        <- src/PJ_nell.c
- wink2 (no inverse, like the reference) <- src/PJ_wink2.c
"""

from __future__ import annotations

import numpy as np

from .common import FORTPI, HALFPI, HUGE, PI, aasin, asqrt, iterate_lanes, theta_step
from .projections import register


@register("krovak")
def setup_krovak(P):
    # hardcoded Bessel ellipsoid + pseudo-standard-parallel constants
    # (PJ_krovak.c entry + forward)
    P.a = 6377397.155
    P.es = 0.006674372230614
    P.e = np.sqrt(P.es)
    # NOTE: pj_init computed ra/one_es/rone_es from the USER ellipse
    # BEFORE this entry runs (pj_init.c:473-476) and never refreshes
    # them — pj_inv divides by the stale ra, so krovak's inverse
    # depends on the +ellps given (faithful reference inconsistency)
    # the C reads +lat_ts into a variable it never uses
    # (src/PJ_krovak.c:224 'ts') — replicate the used-flag mark
    P.param_r("lat_ts")
    if not P.param_t("lat_0"):
        P.phi0 = 0.863937979737193
    if not P.param_t("lon_0"):
        P.lam0 = 0.7417649320975901 - 0.308341501185665
    if not P.param_t("k"):
        P.k0 = 0.9999
    # the C probes 'tczech' only (PJ_krovak.c:124,179) —
    # presence check, no used-flag mark
    czech = P.param_t("czech")
    lam0 = P.lam0

    s45 = 0.785398163397448
    s90 = 2 * s45
    fi0 = P.phi0
    e2 = 0.006674372230614
    e = np.sqrt(e2)
    alfa = np.sqrt(1.0 + (e2 * np.cos(fi0) ** 4) / (1.0 - e2))
    uq = 1.04216856380474
    u0 = np.arcsin(np.sin(fi0) / alfa)
    g = ((1.0 + e * np.sin(fi0)) / (1.0 - e * np.sin(fi0))) ** (alfa * e / 2.0)
    k = np.tan(u0 / 2.0 + s45) / np.tan(fi0 / 2.0 + s45) ** alfa * g
    k1 = P.k0
    n0 = np.sqrt(1.0 - e2) / (1.0 - e2 * np.sin(fi0) ** 2)
    s0 = 1.37008346281555
    n = np.sin(s0)
    ro0 = k1 * n0 / np.tan(s0)
    ad = s90 - uq

    def fwd(lam, phi):
        gfi = np.power((1.0 + e * np.sin(phi)) / (1.0 - e * np.sin(phi)),
                       alfa * e / 2.0)
        u = 2.0 * (np.arctan(k * np.power(np.tan(phi / 2.0 + s45), alfa) / gfi) - s45)
        deltav = -lam * alfa
        s = np.arcsin(np.clip(np.cos(ad) * np.sin(u)
                              + np.sin(ad) * np.cos(u) * np.cos(deltav), -1, 1))
        d = np.arcsin(np.clip(np.cos(u) * np.sin(deltav) / np.cos(s), -1, 1))
        eps = n * d
        ro = ro0 * np.power(np.tan(s0 / 2.0 + s45), n) / np.power(np.tan(s / 2.0 + s45), n)
        y = ro * np.cos(eps)
        x = ro * np.sin(eps)
        if not czech:
            x = -x
            y = -y
        return x, y

    def step(f, u):
        newphi = 2.0 * (np.arctan(
            np.power(k, -1.0 / alfa)
            * np.power(np.tan(u / 2.0 + s45), 1.0 / alfa)
            * np.power((1.0 + e * np.sin(f)) / (1.0 - e * np.sin(f)), e / 2.0)
        ) - s45)
        return newphi, np.abs(f - newphi) < 1e-15

    def inv(x, y):
        # axes reverted (PJ_krovak.c e_inverse)
        xv = np.asarray(y, dtype=np.float64)
        yv = np.asarray(x, dtype=np.float64)
        if not czech:
            xv = -xv
            yv = -yv
        ro = np.sqrt(xv * xv + yv * yv)
        eps = np.arctan2(yv, xv)
        d = eps / np.sin(s0)
        s = 2.0 * (np.arctan(np.power(ro0 / ro, 1.0 / n) * np.tan(s0 / 2.0 + s45)) - s45)
        u = np.arcsin(np.clip(np.cos(ad) * np.sin(s)
                              - np.sin(ad) * np.cos(s) * np.cos(d), -1, 1))
        deltav = np.arcsin(np.clip(np.cos(s) * np.sin(d) / np.cos(u), -1, 1))
        lam_abs = lam0 - deltav / alfa
        # fixed-point phi iteration to 1e-15 (PJ_krovak.c:196-209)
        phi = iterate_lanes(step, u.copy(), (u,), 50, np.isfinite(u))[0]
        lam = lam_abs - lam0  # generic wrapper re-adds lam0
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("eck1")
def setup_eck1(P):
    P.es = 0.0
    FC = 0.92131773192356127802
    RP = 0.31830988618379067154

    def fwd(lam, phi):
        return FC * lam * (1.0 - RP * np.abs(phi)), FC * phi

    def inv(x, y):
        phi = y / FC
        return x / (FC * (1.0 - RP * np.abs(phi))), phi

    P.fwd = fwd
    P.inv = inv


@register("eck2")
def setup_eck2(P):
    P.es = 0.0
    FXC = 0.46065886596178063902
    FYC = 1.44720250911653531871
    C13 = 0.33333333333333333333

    def fwd(lam, phi):
        yv = np.sqrt(4.0 - 3.0 * np.sin(np.abs(phi)))
        x = FXC * lam * yv
        y = FYC * (2.0 - yv)
        return x, np.where(phi < 0.0, -y, y)

    def inv(x, y):
        t = 2.0 - np.abs(y) / FYC
        lam = x / (FXC * t)
        val = (4.0 - t * t) * C13
        bad = np.abs(val) > 1.0000001
        phi = np.where(np.abs(val) >= 1.0,
                       np.where(val < 0.0, -HALFPI, HALFPI),
                       np.arcsin(np.clip(val, -1.0, 1.0)))
        phi = np.where(y < 0, -phi, phi)
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


def _eck3_family(P, C_x, C_y, A, B):
    P.es = 0.0

    def fwd(lam, phi):
        return C_x * lam * (A + asqrt(1.0 - B * phi * phi)), C_y * phi

    def inv(x, y):
        phi = y / C_y
        return x / (C_x * (A + asqrt(1.0 - B * phi * phi))), phi

    P.fwd = fwd
    P.inv = inv


@register("eck3")
def setup_eck3(P):
    _eck3_family(P, 0.42223820031577120149, 0.84447640063154240298,
                 1.0, 0.4052847345693510857755)


@register("kav7")
def setup_kav7(P):
    # NOTE: the reference assigns C_x twice; the second (0.8660254037844)
    # wins (PJ_eck3.c kav7 entry) — replicated.
    _eck3_family(P, 0.8660254037844, 1.0, 0.0, 0.30396355092701331433)


@register("wag6")
def setup_wag6(P):
    _eck3_family(P, 0.94745, 0.94745, 0.0, 0.30396355092701331433)


@register("putp1")
def setup_putp1(P):
    _eck3_family(P, 1.89490, 0.94745, -0.5, 0.30396355092701331433)


@register("collg")
def setup_collg(P):
    P.es = 0.0
    FXC = 1.12837916709551257390
    FYC = 1.77245385090551602729

    def fwd(lam, phi):
        yv = np.maximum(1.0 - np.sin(phi), 0.0)
        yv = np.sqrt(yv)
        return FXC * lam * yv, FYC * (1.0 - yv)

    def inv(x, y):
        t = y / FYC - 1.0
        val = 1.0 - t * t
        bad = (np.abs(val) >= 1.0) & (np.abs(val) > 1.0000001)
        phi = np.where(np.abs(val) < 1.0, np.arcsin(np.clip(val, -1, 1)),
                       np.where(val < 0.0, -HALFPI, HALFPI))
        denom = np.maximum(1.0 - np.sin(phi), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(denom <= 0.0, 0.0, x / (FXC * np.sqrt(denom)))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("fouc_s")
def setup_fouc_s(P):
    P.es = 0.0
    n = P.param_f("n") if P.param_t("n") else 0.0
    if n < 0.0 or n > 1.0:
        raise ValueError("fouc_s: n outside [0,1] (-99)")
    n1 = 1.0 - n

    def fwd(lam, phi):
        t = np.cos(phi)
        return lam * t / (n + n1 * t), n * phi + n1 * np.sin(phi)

    def step(p, y):
        V = (n * p + n1 * np.sin(p) - y) / (n + n1 * np.cos(p))
        return p - V, np.abs(V) < 1e-7

    def inv(x, y):
        if n:
            phi = np.array(y, dtype=np.float64, copy=True)
            phi, converged = iterate_lanes(step, phi, (y,), 10, np.isfinite(phi))
            phi = np.where(converged, phi, np.where(y < 0.0, -HALFPI, HALFPI))
        else:
            phi = aasin(y)
        V = np.cos(phi)
        lam = x * (n + n1 * V) / V
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("nell")
def setup_nell(P):
    P.es = 0.0

    def fwd(lam, phi):
        k = 2.0 * np.sin(phi)
        V = phi * phi
        th = phi * (1.00371 + V * (-0.0935382 + V * -0.011412))
        th = np.array(th, dtype=np.float64)
        th = iterate_lanes(theta_step, th, (k,), 10, np.isfinite(th))[0]
        return 0.5 * lam * (1.0 + np.cos(th)), th

    def inv(x, y):
        lam = 2.0 * x / (1.0 + np.cos(y))
        phi = aasin(0.5 * (y + np.sin(y)))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("wink2")
def setup_wink2(P):
    # no inverse in the reference either (PJ_wink2.c "no inv.")
    P.es = 0.0
    cosphi1 = float(np.cos(P.param_r("lat_1"))) if P.param_t("lat_1") else 1.0
    TWO_D_PI = 0.636619772367581343

    def fwd(lam, phi):
        y0 = phi * TWO_D_PI
        k = PI * np.sin(phi)
        th = np.array(phi * 1.8, dtype=np.float64)
        th, converged = iterate_lanes(theta_step, th, (k,), 10, np.isfinite(th))
        th = np.where(converged, th * 0.5, np.where(th < 0.0, -HALFPI, HALFPI))
        x = 0.5 * lam * (np.cos(th) + cosphi1)
        y = FORTPI * (np.sin(th) + y0)
        return x, y

    def _no_inverse(x, y):
        return np.full_like(np.asarray(x, dtype=np.float64), HUGE), \
            np.full_like(np.asarray(y, dtype=np.float64), HUGE)

    P.fwd = fwd
    P.inv = _no_inverse


# ---------------------------------------------------------------------------
# ob_tran — General Oblique Transformation: wraps ANY registered
# projection in an oblique rotation, instantiating the inner operator by
# name at setup (src/PJ_ob_tran.c:71-145) — the reference's precedent
# for operator composition in config (SURVEY.md §2.9).
# ---------------------------------------------------------------------------

class _InnerProj:
    """Lightweight clone carrying the outer CRS's params/constants with a
    forced spherical earth, for the inner projection's setup."""

    def __init__(self, outer):
        self.pl = outer.pl
        for attr in ("over", "geoc", "a", "lam0", "phi0", "x0", "y0", "k0",
                     "ra", "defn"):
            setattr(self, attr, getattr(outer, attr))
        self.es = 0.0
        self.e = 0.0
        self.one_es = 1.0
        self.rone_es = 1.0
        self.is_latlong = False
        self.is_geocent = False
        self.fwd = None
        self.inv = None

    # pj_param-style accessors (duck-typed like CRS)
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


@register("ob_tran")
def setup_ob_tran(P):
    from .projections import setup_for
    from .common import adjlon, aatan2

    TOL = 1e-10
    name = P.param_s("o_proj")
    if not name:
        raise ValueError("ob_tran: no o_proj (-26)")
    setup = setup_for(name)
    if setup is None:
        raise ValueError(f"ob_tran: unknown o_proj {name!r} (-37)")
    P.es = 0.0  # force outer spherical
    P.e = 0.0
    P.one_es = P.rone_es = 1.0
    link = _InnerProj(P)
    setup(link)

    if P.param_t("o_alpha"):
        lamc = P.param_r("o_lon_c")
        phic = P.param_r("o_lat_c")
        alpha = P.param_r("o_alpha")
        if abs(abs(phic) - HALFPI) <= TOL:
            raise ValueError("ob_tran: |o_lat_c| ~ 90 (-32)")
        lamp = lamc + float(aatan2(-np.cos(alpha), -np.sin(alpha) * np.sin(phic)))
        phip = float(aasin(np.cos(phic) * np.sin(alpha)))
    elif P.param_t("o_lat_p"):
        lamp = P.param_r("o_lon_p")
        phip = P.param_r("o_lat_p")
    else:
        lam1 = P.param_r("o_lon_1")
        phi1 = P.param_r("o_lat_1")
        lam2 = P.param_r("o_lon_2")
        phi2 = P.param_r("o_lat_2")
        con = abs(phi1)
        if (abs(phi1 - phi2) <= TOL or con <= TOL or abs(con - HALFPI) <= TOL
                or abs(abs(phi2) - HALFPI) <= TOL):
            raise ValueError("ob_tran: bad two-point spec (-33)")
        lamp = float(np.arctan2(
            np.cos(phi1) * np.sin(phi2) * np.cos(lam1)
            - np.sin(phi1) * np.cos(phi2) * np.cos(lam2),
            np.sin(phi1) * np.cos(phi2) * np.sin(lam2)
            - np.cos(phi1) * np.sin(phi2) * np.sin(lam1)))
        phip = float(np.arctan(-np.cos(lamp - lam1) / np.tan(phi1)))

    if abs(phip) > TOL:  # oblique
        cphip = float(np.cos(phip))
        sphip = float(np.sin(phip))

        def fwd(lam, phi):
            coslam = np.cos(lam)
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            lam2_ = adjlon(aatan2(cosphi * np.sin(lam),
                                  sphip * cosphi * coslam + cphip * sinphi) + lamp)
            phi2_ = aasin(sphip * sinphi - cphip * cosphi * coslam)
            return link.fwd(lam2_, phi2_)

        def inv(x, y):
            lam_i, phi_i = link.inv(x, y)
            ok = np.isfinite(lam_i)
            lam_i = lam_i - lamp
            coslam = np.cos(lam_i)
            sinphi = np.sin(phi_i)
            cosphi = np.cos(phi_i)
            phi_o = aasin(sphip * sinphi + cphip * cosphi * coslam)
            lam_o = aatan2(cosphi * np.sin(lam_i),
                           sphip * cosphi * coslam - cphip * sinphi)
            return np.where(ok, lam_o, HUGE), np.where(ok, phi_o, HUGE)

    else:  # transverse

        def fwd(lam, phi):
            cosphi = np.cos(phi)
            coslam = np.cos(lam)
            lam2_ = adjlon(aatan2(cosphi * np.sin(lam), np.sin(phi)) + lamp)
            phi2_ = aasin(-cosphi * coslam)
            return link.fwd(lam2_, phi2_)

        def inv(x, y):
            lam_i, phi_i = link.inv(x, y)
            ok = np.isfinite(lam_i)
            cosphi = np.cos(phi_i)
            t = lam_i - lamp
            lam_o = aatan2(cosphi * np.sin(t), -np.sin(phi_i))
            phi_o = aasin(cosphi * np.cos(t))
            return np.where(ok, lam_o, HUGE), np.where(ok, phi_o, HUGE)

    P.fwd = fwd
    P.inv = inv
