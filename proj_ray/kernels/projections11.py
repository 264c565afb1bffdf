"""Projection kernels, wave 11: airy, rpoly, nicol, lcca, gstmerc, igh.

Reference parity:
- airy (fwd-only)            <- src/PJ_airy.c
- rpoly (fwd-only)           <- src/PJ_rpoly.c
- nicol (fwd-only)           <- src/PJ_nocol.c
- lcca                       <- src/PJ_lcca.c
- gstmerc (Gauss-Laborde)    <- src/PJ_gstmerc.c
- igh (interrupted Goode homolosine, 12 lobes with per-zone inner
  projections and inverse zone-validity masking) <- src/PJ_igh.c
(rouss is listed in pj_list.h:112 but has no source in the snapshot.)
"""

from __future__ import annotations

import numpy as np

from .common import (DEG_TO_RAD, FORTPI, HALFPI, HUGE, PI, enfn, inv_mlfn, iterate_lanes,
                     mlfn, phi2, tsfn)
from .projections import register
from .projections2 import _gn_sinu_sph
from .projections2 import setup_moll as _setup_moll


def _no_inverse(x, y):
    x = np.asarray(x, dtype=np.float64)
    return np.full_like(x, HUGE), np.full_like(x, HUGE)


@register("airy")
def setup_airy(P):
    EPS = 1e-10
    P.es = 0.0
    no_cut = P.param_b("no_cut")
    beta = 0.5 * (HALFPI - P.param_r("lat_b"))
    if abs(beta) < EPS:
        Cb = -0.5
    else:
        Cb = 1.0 / np.tan(beta)
        Cb = Cb * Cb * np.log(np.cos(beta))
    Cb = float(Cb)
    phi0 = P.phi0
    if abs(abs(phi0) - HALFPI) < EPS:
        mode = "s_pole" if phi0 < 0.0 else "n_pole"
        p_halfpi = -HALFPI if phi0 < 0.0 else HALFPI
        sinph0 = cosph0 = 0.0
    elif abs(phi0) < EPS:
        mode = "equit"
        sinph0, cosph0, p_halfpi = 0.0, 1.0, 0.0
    else:
        mode = "obliq"
        sinph0 = float(np.sin(phi0))
        cosph0 = float(np.cos(phi0))
        p_halfpi = 0.0

    def fwd(lam, phi):
        sinlam = np.sin(lam)
        coslam = np.cos(lam)
        if mode in ("equit", "obliq"):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            cosz = cosphi * coslam
            if mode == "obliq":
                cosz = sinph0 * sinphi + cosph0 * cosz
            bad = (not no_cut) & (cosz < -EPS)
            s = 1.0 - cosz
            with np.errstate(invalid="ignore", divide="ignore"):
                t = 0.5 * (1.0 + cosz)
                Krho = np.where(np.abs(s) > EPS,
                                -np.log(np.where(t <= 0, 1.0, t)) / np.where(s == 0, 1.0, s)
                                - Cb / np.where(t == 0, 1.0, t),
                                0.5 - Cb)
            x = Krho * cosphi * sinlam
            if mode == "obliq":
                y = Krho * (cosph0 * sinphi - sinph0 * cosphi * coslam)
            else:
                y = Krho * sinphi
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
        else:
            ph = np.abs(p_halfpi - phi)
            bad = (not no_cut) & ((ph - EPS) > HALFPI)
            ph = ph * 0.5
            big = ph > EPS
            with np.errstate(invalid="ignore", divide="ignore"):
                t = np.tan(ph)
                Krho = -2.0 * (np.log(np.cos(ph)) / np.where(big, t, 1.0) + t * Cb)
            x = np.where(big, Krho * sinlam, 0.0)
            y = np.where(big, Krho * coslam, 0.0)
            if mode == "n_pole":
                y = -y
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    P.fwd = fwd
    P.inv = _no_inverse


@register("rpoly")
def setup_rpoly(P):
    EPS = 1e-9
    P.es = 0.0
    phi1 = abs(P.param_r("lat_ts"))
    mode = phi1 > EPS
    if mode:
        fxb = 0.5 * np.sin(phi1)
        fxa = 0.5 / fxb
    else:
        fxa = fxb = 0.0
    phi0 = P.phi0

    def fwd(lam, phi):
        if mode:
            fa = np.tan(lam * fxb) * fxa
        else:
            fa = 0.5 * lam
        small = np.abs(phi) < EPS
        with np.errstate(invalid="ignore", divide="ignore"):
            cot = 1.0 / np.tan(np.where(small, 1.0, phi))
            fa2 = 2.0 * np.arctan(fa * np.sin(phi))
            x = np.sin(fa2) * cot
            y = phi - phi0 + (1.0 - np.cos(fa2)) * cot
        x = np.where(small, fa + fa, x)
        y = np.where(small, -phi0, y)
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("nicol")
def setup_nicol(P):
    EPS = 1e-10
    P.es = 0.0

    def fwd(lam, phi):
        on_cm = np.abs(lam) < EPS
        on_eq = np.abs(phi) < EPS
        on_90 = np.abs(np.abs(lam) - HALFPI) < EPS
        at_pole = np.abs(np.abs(phi) - HALFPI) < EPS
        general = ~(on_cm | on_eq | on_90 | at_pole)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam_s = np.where(general, lam, 1.0)
            phi_s = np.where(general, phi, 0.5)
            tb = HALFPI / lam_s - lam_s / HALFPI
            c = phi_s / HALFPI
            sp = np.sin(phi_s)
            d = (1.0 - c * c) / (sp - c)
            r2 = tb / d
            r2 = r2 * r2
            m = (tb * sp / d - 0.5 * tb) / (1.0 + r2)
            n = (sp / r2 + 0.5 * d) / (1.0 + 1.0 / r2)
            xg = np.cos(phi_s)
            xg = np.sqrt(np.maximum(m * m + xg * xg / (1.0 + r2), 0.0))
            xg = HALFPI * (m + np.where(lam_s < 0.0, -xg, xg))
            yg = np.sqrt(np.maximum(n * n - (sp * sp / r2 + d * sp - 1.0)
                                    / (1.0 + 1.0 / r2), 0.0))
            yg = HALFPI * (n + np.where(phi_s < 0.0, yg, -yg))
        x = np.where(on_cm | at_pole, 0.0,
                     np.where(on_eq, lam,
                              np.where(on_90, lam * np.cos(phi), xg)))
        y = np.where(on_cm | at_pole, phi,
                     np.where(on_eq, 0.0,
                              np.where(on_90, HALFPI * np.sin(phi), yg)))
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("lcca")
def setup_lcca(P):
    if not P.param_t("lat_0"):
        raise ValueError("lcca: lat_0 required (50)")
    if P.phi0 == 0.0:
        raise ValueError("lcca: lat_0 == 0 (51)")
    en = enfn(P.es)
    l_ = float(np.sin(P.phi0))
    M0 = float(mlfn(np.float64(P.phi0), l_, np.cos(P.phi0), en))
    s2p0 = l_ * l_
    R0 = 1.0 / (1.0 - P.es * s2p0)
    N0 = np.sqrt(R0)
    R0 = R0 * P.one_es * N0
    tan0 = np.tan(P.phi0)
    r0 = float(N0 / tan0)
    C = float(1.0 / (6.0 * R0 * N0))
    k0 = P.k0
    es = P.es

    def _fS(S):
        return S * (1.0 + S * S * C)

    def _fSp(S):
        return 1.0 + 3.0 * S * S * C

    def fwd(lam, phi):
        S = mlfn(phi, np.sin(phi), np.cos(phi), en) - M0
        dr = _fS(S)
        r = r0 - dr
        lamn = lam * l_
        return k0 * (r * np.sin(lamn)), k0 * (r0 - r * np.cos(lamn))

    def step(s, dr):
        dif = (_fS(s) - dr) / _fSp(s)
        return s - dif, np.abs(dif) < 1e-12

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64) / k0
        y = np.asarray(y, dtype=np.float64) / k0
        theta = np.arctan2(x, r0 - y)
        dr = y - x * np.tan(0.5 * theta)
        lam = theta / l_
        S = np.array(dr, dtype=np.float64, copy=True)
        S, converged = iterate_lanes(step, S, (dr,), 10, np.isfinite(S))
        phi = inv_mlfn(S + M0, es, en)
        phi = np.where(converged, phi, HUGE)
        lam = np.where(converged, lam, HUGE)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("gstmerc")
def setup_gstmerc(P):
    e = P.e
    es = P.es
    ra = P.ra
    a = P.a
    n1 = np.sqrt(1.0 + es * np.cos(P.phi0) ** 4 / (1.0 - es))
    phic = np.arcsin(np.sin(P.phi0) / n1)
    c = (np.log(float(tsfn(np.float64(-phic), 0.0, 0.0)))
         - n1 * np.log(float(tsfn(np.float64(-P.phi0), -np.sin(P.phi0), e))))
    n2 = P.k0 * a * np.sqrt(1.0 - es) / (1.0 - es * np.sin(P.phi0) ** 2)
    XS = 0.0
    YS = -n2 * phic
    n1, c, n2, YS = float(n1), float(c), float(n2), float(YS)

    def fwd(lam, phi):
        L = n1 * lam
        Ls = c + n1 * np.log(tsfn(-phi, -np.sin(phi), e))
        sinLs1 = np.sin(L) / np.cosh(Ls)
        Ls1 = np.log(tsfn(-np.arcsin(np.clip(sinLs1, -1, 1)), 0.0, 0.0))
        x = (XS + n2 * Ls1) * ra
        y = (YS + n2 * np.arctan(np.sinh(Ls) / np.cos(L))) * ra
        return x, y

    def inv(x, y):
        xa = np.asarray(x, dtype=np.float64) * a
        ya = np.asarray(y, dtype=np.float64) * a
        L = np.arctan(np.sinh((xa - XS) / n2) / np.cos((ya - YS) / n2))
        sinC = np.sin((ya - YS) / n2) / np.cosh((xa - XS) / n2)
        LC = np.log(tsfn(-np.arcsin(np.clip(sinC, -1, 1)), 0.0, 0.0))
        lam = L / n1
        phi = -phi2(np.exp((LC - c) / n1), e)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("igh")
def setup_igh(P):
    """12-lobe interrupted Goode: sinusoidal zones 3-8, Mollweide zones
    1,2,9-12 with the dy0 continuity shift; inverse masks points whose
    re-projection leaves the owning zone (PJ_igh.c)."""
    P.es = 0.0
    d = lambda deg: deg * DEG_TO_RAD  # noqa: E731
    d4044118 = (40 + 44 / 60.0 + 11.8 / 3600.0) * DEG_TO_RAD
    EPSLN = 1e-10

    class _Sub:
        pass

    sinu = _Sub()
    moll = _Sub()
    _gn_sinu_sph(sinu, 0.0, 1.0)
    _setup_moll(moll)

    # zone table: (projection, x0(=lam0 shift), lam0)
    zones = {
        1: (moll, d(-100)), 2: (moll, d(30)),
        3: (sinu, d(-100)), 4: (sinu, d(30)),
        5: (sinu, d(-160)), 6: (sinu, d(-60)),
        7: (sinu, d(20)), 8: (sinu, d(140)),
        9: (moll, d(-160)), 10: (moll, d(-60)),
        11: (moll, d(20)), 12: (moll, d(140)),
    }
    # dy0: moll/sinu continuity at the 40d44'11.8" seam
    _, y1 = moll.fwd(np.array([0.0]), np.array([d4044118]))
    _, y3 = sinu.fwd(np.array([0.0]), np.array([d4044118]))
    dy0 = float(y3[0] - y1[0])
    y0s = {1: dy0, 2: dy0, 9: -dy0, 10: -dy0, 11: -dy0, 12: -dy0,
           3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0, 8: 0.0}

    def _zone_fwd(lam, phi):
        z = np.where(phi >= d4044118, np.where(lam <= d(-40), 1, 2),
            np.where(phi >= 0, np.where(lam <= d(-40), 3, 4),
            np.where(phi >= -d4044118,
                     np.where(lam <= d(-100), 5,
                              np.where(lam <= d(-20), 6,
                                       np.where(lam <= d(80), 7, 8))),
                     np.where(lam <= d(-100), 9,
                              np.where(lam <= d(-20), 10,
                                       np.where(lam <= d(80), 11, 12))))))
        return z

    def fwd(lam, phi):
        lam = np.asarray(lam, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        z = _zone_fwd(lam, phi)
        x = np.full_like(lam, HUGE)
        y = np.full_like(phi, HUGE)
        for zi, (proj, lam0) in zones.items():
            m = z == zi
            if not np.any(m):
                continue
            xs, ys = proj.fwd(lam[m] - lam0, phi[m])
            x[m] = xs + lam0       # x0 == lam0 in the reference setup
            y[m] = ys + y0s[zi]
        return x, y

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        y90 = dy0 + np.sqrt(2.0)
        z = np.where((y > y90 + EPSLN) | (y < -y90 + EPSLN), 0,
            np.where(y >= d4044118, np.where(x <= d(-40), 1, 2),
            np.where(y >= 0, np.where(x <= d(-40), 3, 4),
            np.where(y >= -d4044118,
                     np.where(x <= d(-100), 5,
                              np.where(x <= d(-20), 6,
                                       np.where(x <= d(80), 7, 8))),
                     np.where(x <= d(-100), 9,
                              np.where(x <= d(-20), 10,
                                       np.where(x <= d(80), 11, 12)))))))
        lam = np.full_like(x, HUGE)
        phi = np.full_like(y, HUGE)
        for zi, (proj, lam0) in zones.items():
            m = z == zi
            if not np.any(m):
                continue
            ls, ps = proj.inv(x[m] - lam0, y[m] - y0s[zi])
            ls = ls + lam0
            # zone-validity mask (PJ_igh.c case table)
            lo = ls
            hi_checks = {
                1: (lo >= d(-180) - EPSLN) & (lo <= d(-40) + EPSLN)
                   | ((lo >= d(-40) - EPSLN) & (lo <= d(-10) + EPSLN)
                      & (ps >= d(60) - EPSLN) & (ps <= d(90) + EPSLN)),
                2: ((lo >= d(-40) - EPSLN) & (lo <= d(180) + EPSLN))
                   | ((lo >= d(-180) - EPSLN) & (lo <= d(-160) + EPSLN)
                      & (ps >= d(50) - EPSLN) & (ps <= d(90) + EPSLN))
                   | ((lo >= d(-50) - EPSLN) & (lo <= d(-40) + EPSLN)
                      & (ps >= d(60) - EPSLN) & (ps <= d(90) + EPSLN)),
                3: (lo >= d(-180) - EPSLN) & (lo <= d(-40) + EPSLN),
                4: (lo >= d(-40) - EPSLN) & (lo <= d(180) + EPSLN),
                5: (lo >= d(-180) - EPSLN) & (lo <= d(-100) + EPSLN),
                6: (lo >= d(-100) - EPSLN) & (lo <= d(-20) + EPSLN),
                7: (lo >= d(-20) - EPSLN) & (lo <= d(80) + EPSLN),
                8: (lo >= d(80) - EPSLN) & (lo <= d(180) + EPSLN),
                9: (lo >= d(-180) - EPSLN) & (lo <= d(-100) + EPSLN),
                10: (lo >= d(-100) - EPSLN) & (lo <= d(-20) + EPSLN),
                11: (lo >= d(-20) - EPSLN) & (lo <= d(80) + EPSLN),
                12: (lo >= d(80) - EPSLN) & (lo <= d(180) + EPSLN),
            }
            ok = hi_checks[zi]
            idx = np.flatnonzero(m)
            lam[idx[ok]] = ls[ok]
            phi[idx[ok]] = ps[ok]
        return lam, phi

    P.fwd = fwd
    P.inv = inv
