"""Projection kernels, wave 2: equal-area + azimuthal + pseudocylindrical
families. Same pure-vectorized contract as projections.py. Importing it
registers its setups in PROJ_REGISTRY; ``projections.setup_for`` imports
it on the first lookup of a name it holds.

Reference parity:
- qsfn / authset / authlat  <- src/pj_qsfn.c, src/pj_auth.c
- aea / leac                <- src/PJ_aea.c:80-165
- laea                      <- src/PJ_laea.c:30-232
- aeqd (sph + polar ell; oblique ell uses the engine's Vincenty
  geodesics standing in for the reference's Karney calls)
                            <- src/PJ_aeqd.c:40-240
- cea                       <- src/PJ_cea.c:8-60
- moll / wag4 / wag5        <- src/PJ_moll.c:10-60
- sinu / eck6 / mbtfps / gn_sinu <- src/PJ_gn_sinu.c:14-100
- mill                      <- src/PJ_mill.c:4-16
- gnom / ortho / cass       <- src/PJ_gnom.c, src/PJ_ortho.c, src/PJ_cass.c
"""

from __future__ import annotations

import numpy as np

from .common import (
    FORTPI,
    HALFPI,
    HUGE,
    PI,
    aasin,
    enfn,
    inv_mlfn,
    iterate_lanes,
    mlfn,
    msfn,
    theta_step,
    tsfn,
)
from .projections import EPS10, register


def qsfn(sinphi, e, one_es):
    """'small q' authalic function. src/pj_qsfn.c:5-17."""
    if e >= 1.0e-7:
        con = e * sinphi
        return one_es * (sinphi / (1.0 - con * con)
                         - (0.5 / e) * np.log((1.0 - con) / (1.0 + con)))
    return sinphi + sinphi


def authset(es):
    """src/pj_auth.c:10-25."""
    P00, P01, P02 = 0.33333333333333333333, 0.17222222222222222222, 0.10257936507936507937
    P10, P11, P20 = 0.06388888888888888888, 0.06640211640211640212, 0.01677689594356261023
    APA = np.empty(3)
    APA[0] = es * P00
    t = es * es
    APA[0] += t * P01
    APA[1] = t * P10
    t *= es
    APA[0] += t * P02
    APA[1] += t * P11
    APA[2] = t * P20
    return APA


def authlat(beta, APA):
    """src/pj_auth.c:26-30."""
    t = beta + beta
    return beta + APA[0] * np.sin(t) + APA[1] * np.sin(t + t) + APA[2] * np.sin(t + t + t)


def _phi1(qs, Te, Tone_es):
    """Inverse authalic iteration (PJ_aea.c phi1_, per lane)."""
    Phi = np.arcsin(np.clip(0.5 * qs, -1.0, 1.0))
    if Te < 1.0e-7:
        return Phi

    def step(p, qs):
        sinpi = np.sin(p)
        cospi = np.cos(p)
        con = Te * sinpi
        com = 1.0 - con * con
        dphi = (0.5 * com * com / cospi
                * (qs / Tone_es - sinpi / com
                   + 0.5 / Te * np.log((1.0 - con) / (1.0 + con))))
        return p + dphi, np.abs(dphi) <= 1.0e-10

    active = np.isfinite(Phi)
    Phi, ok = iterate_lanes(step, Phi, (qs,), 15, active)
    Phi[active & ~ok] = HUGE  # non-convergent lanes
    return Phi


# ---------------------------------------------------------------------------
# aea / leac — Albers Equal Area (src/PJ_aea.c)
# ---------------------------------------------------------------------------

def _aea_setup(P, phi1v, phi2v):
    if abs(phi1v + phi2v) < EPS10:
        raise ValueError("aea: lat_1 = -lat_2 (-21)")
    n = sinphi = np.sin(phi1v)
    cosphi = np.cos(phi1v)
    secant = abs(phi1v - phi2v) >= EPS10
    ellips = P.es > 0.0
    if ellips:
        e, one_es = P.e, P.one_es
        m1 = float(msfn(sinphi, cosphi, P.es))
        ml1 = float(qsfn(sinphi, e, one_es))
        if secant:
            sinphi2 = np.sin(phi2v)
            m2 = float(msfn(sinphi2, np.cos(phi2v), P.es))
            ml2 = float(qsfn(sinphi2, e, one_es))
            n = (m1 * m1 - m2 * m2) / (ml2 - ml1)
        ec = 1.0 - 0.5 * one_es * np.log((1.0 - e) / (1.0 + e)) / e
        c = m1 * m1 + n * ml1
        dd = 1.0 / n
        rho0 = dd * np.sqrt(c - n * float(qsfn(np.sin(P.phi0), e, one_es)))
        n2 = None
    else:
        if secant:
            n = 0.5 * (n + np.sin(phi2v))
        n2 = n + n
        c = cosphi * cosphi + n2 * sinphi
        dd = 1.0 / n
        rho0 = dd * np.sqrt(c - n2 * np.sin(P.phi0))
        ec = 0.0
    n, c, dd, rho0 = float(n), float(c), float(dd), float(rho0)
    e, one_es, es = P.e, P.one_es, P.es

    def fwd(lam, phi):
        if ellips:
            rho = c - n * qsfn(np.sin(phi), e, one_es)
        else:
            rho = c - n2 * np.sin(phi)
        bad = rho < 0.0
        rho = dd * np.sqrt(np.maximum(rho, 0.0))
        lamn = lam * n
        x = rho * np.sin(lamn)
        y = rho0 - rho * np.cos(lamn)
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        y = rho0 - y
        rho = np.hypot(x, y)
        nz = rho != 0.0
        if n < 0.0:
            rho = -rho
            x = -x
            y = -y
        phi_r = rho / dd
        if ellips:
            q = (c - phi_r * phi_r) / n
            interior = np.abs(ec - np.abs(q)) > 1.0e-7
            phi = np.where(interior, _phi1(np.where(interior, q, 0.0), e, one_es),
                           np.where(q < 0.0, -HALFPI, HALFPI))
        else:
            val = (c - phi_r * phi_r) / n2
            phi = np.where(np.abs(val) <= 1.0,
                           np.arcsin(np.clip(val, -1.0, 1.0)),
                           np.where(val < 0.0, -HALFPI, HALFPI))
        lam = np.arctan2(x, y) / n
        phi = np.where(nz, phi, np.where(n > 0.0, HALFPI, -HALFPI))
        lam = np.where(nz, lam, 0.0)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("aea")
def setup_aea(P):
    _aea_setup(P, P.param_r("lat_1"), P.param_r("lat_2"))


@register("leac")
def setup_leac(P):
    phi2v = P.param_r("lat_1")
    phi1v = -HALFPI if P.param_b("south") else HALFPI
    _aea_setup(P, phi1v, phi2v)


# ---------------------------------------------------------------------------
# laea — Lambert Azimuthal Equal Area (src/PJ_laea.c)
# ---------------------------------------------------------------------------

@register("laea")
def setup_laea(P):
    phi0 = P.phi0
    t = abs(phi0)
    if abs(t - HALFPI) < EPS10:
        mode = "s_pole" if phi0 < 0.0 else "n_pole"
    elif t < EPS10:
        mode = "equit"
    else:
        mode = "obliq"
    es, e, one_es = P.es, P.e, P.one_es

    if es:
        qp = float(qsfn(1.0, e, one_es))
        apa = authset(es)
        sinb1 = cosb1 = rq = dd = xmf = ymf = 0.0
        if mode in ("equit",):
            rq = np.sqrt(0.5 * qp)
            dd = 1.0 / rq
            xmf = 1.0
            ymf = 0.5 * qp
        elif mode == "obliq":
            rq = np.sqrt(0.5 * qp)
            sinphi = np.sin(phi0)
            sinb1 = float(qsfn(sinphi, e, one_es)) / qp
            cosb1 = np.sqrt(1.0 - sinb1 * sinb1)
            dd = np.cos(phi0) / (np.sqrt(1.0 - es * sinphi * sinphi) * rq * cosb1)
            xmf = rq
            ymf = xmf / dd
            xmf = xmf * dd
        else:
            dd = 1.0
        rq, dd, xmf, ymf = float(rq), float(dd), float(xmf), float(ymf)
        sinb1, cosb1 = float(sinb1), float(cosb1)

        def fwd(lam, phi):
            coslam = np.cos(lam)
            sinlam = np.sin(lam)
            q = qsfn(np.sin(phi), e, one_es)
            if mode in ("obliq", "equit"):
                sinb = q / qp
                cosb = np.sqrt(np.maximum(1.0 - sinb * sinb, 0.0))
                if mode == "obliq":
                    b = 1.0 + sinb1 * sinb + cosb1 * cosb * coslam
                else:
                    b = 1.0 + cosb * coslam
                bad = np.abs(b) < EPS10
                b = np.sqrt(2.0 / np.where(bad, 1.0, b))
                if mode == "obliq":
                    y = ymf * b * (cosb1 * sinb - sinb1 * cosb * coslam)
                else:
                    y = b * sinb * ymf
                x = xmf * b * cosb * sinlam
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
            else:
                if mode == "n_pole":
                    b = HALFPI + phi
                    q2 = qp - q
                else:
                    b = phi - HALFPI
                    q2 = qp + q
                bad = np.abs(b) < EPS10
                ok = q2 >= 0.0
                b2 = np.sqrt(np.maximum(q2, 0.0))
                x = np.where(ok, b2 * sinlam, 0.0)
                y = np.where(ok, coslam * (b2 if mode == "s_pole" else -b2), 0.0)
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            x = np.array(x, dtype=np.float64, copy=True)
            y = np.array(y, dtype=np.float64, copy=True)
            if mode in ("equit", "obliq"):
                x = x / dd
                y = y * dd
                rho = np.hypot(x, y)
                small = rho < EPS10
                sCe = 2.0 * np.arcsin(np.clip(0.5 * rho / rq, -1.0, 1.0))
                cCe = np.cos(sCe)
                sCe = np.sin(sCe)
                x = x * sCe
                if mode == "obliq":
                    with np.errstate(invalid="ignore", divide="ignore"):
                        ab = cCe * sinb1 + y * sCe * cosb1 / np.where(small, 1.0, rho)
                    y = rho * cosb1 * cCe - y * sinb1 * sCe
                else:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        ab = y * sCe / np.where(small, 1.0, rho)
                    y = rho * cCe
                lam = np.where(small, 0.0, np.arctan2(x, y))
                phi = np.where(small, phi0,
                               authlat(np.arcsin(np.clip(ab, -1.0, 1.0)), apa))
                return lam, phi
            else:
                yy = -y if mode == "n_pole" else y
                q = x * x + yy * yy
                zero = q == 0.0
                ab = 1.0 - q / qp
                if mode == "s_pole":
                    ab = -ab
                lam = np.where(zero, 0.0, np.arctan2(x, yy))
                phi = np.where(zero, phi0,
                               authlat(np.arcsin(np.clip(ab, -1.0, 1.0)), apa))
                return lam, phi

    else:
        sinph0 = float(np.sin(phi0))
        cosph0 = float(np.cos(phi0))

        def fwd(lam, phi):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            coslam = np.cos(lam)
            if mode in ("equit", "obliq"):
                if mode == "equit":
                    yv = 1.0 + cosphi * coslam
                else:
                    yv = 1.0 + sinph0 * sinphi + cosph0 * cosphi * coslam
                bad = yv <= EPS10
                b = np.sqrt(2.0 / np.where(bad, 1.0, yv))
                x = b * cosphi * np.sin(lam)
                if mode == "equit":
                    y = b * sinphi
                else:
                    y = b * (cosph0 * sinphi - sinph0 * cosphi * coslam)
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
            else:
                coslam_ = -coslam if mode == "n_pole" else coslam
                bad = np.abs(phi + phi0) < EPS10
                yv = FORTPI - phi * 0.5
                yv = 2.0 * (np.cos(yv) if mode == "s_pole" else np.sin(yv))
                x = yv * np.sin(lam)
                y = yv * coslam_
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            rh = np.hypot(x, y)
            half = rh * 0.5
            bad = half > 1.0
            z = 2.0 * np.arcsin(np.clip(half, -1.0, 1.0))
            sinz = np.sin(z)
            cosz = np.cos(z)
            if mode == "equit":
                with np.errstate(invalid="ignore", divide="ignore"):
                    phi = np.where(np.abs(rh) <= EPS10, 0.0,
                                   np.arcsin(np.clip(y * sinz / np.where(rh == 0, 1.0, rh), -1, 1)))
                xv = x * sinz
                yv = cosz * rh
            elif mode == "obliq":
                with np.errstate(invalid="ignore", divide="ignore"):
                    phi = np.where(np.abs(rh) <= EPS10, phi0,
                                   np.arcsin(np.clip(cosz * sinph0 + y * sinz * cosph0 / np.where(rh == 0, 1.0, rh), -1, 1)))
                xv = x * sinz * cosph0
                yv = (cosz - np.sin(phi) * sinph0) * rh
            elif mode == "n_pole":
                phi = HALFPI - z
                xv = x
                yv = -y
            else:
                phi = z - HALFPI
                xv = x
                yv = y
            if mode in ("equit", "obliq"):
                lam = np.where(yv == 0.0, 0.0, np.arctan2(xv, yv))
            else:
                lam = np.arctan2(xv, yv)
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# aeqd — Azimuthal Equidistant (src/PJ_aeqd.c); oblique/equatorial
# ellipsoidal path uses the engine's Vincenty geodesics in place of the
# reference's Karney library calls (same role, mm-level agreement).
# ---------------------------------------------------------------------------

@register("aeqd")
def setup_aeqd(P):
    phi0 = P.phi0
    if abs(abs(phi0) - HALFPI) < EPS10:
        mode = "s_pole" if phi0 < 0.0 else "n_pole"
        sinph0, cosph0 = (-1.0 if phi0 < 0 else 1.0), 0.0
    elif abs(phi0) < EPS10:
        mode = "equit"
        sinph0, cosph0 = 0.0, 1.0
    else:
        mode = "obliq"
        sinph0, cosph0 = float(np.sin(phi0)), float(np.cos(phi0))
    es = P.es
    TOL = 1.0e-14

    if not es:

        def fwd(lam, phi):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            coslam = np.cos(lam)
            if mode in ("equit", "obliq"):
                if mode == "equit":
                    yv = cosphi * coslam
                else:
                    yv = sinph0 * sinphi + cosph0 * cosphi * coslam
                near1 = np.abs(np.abs(yv) - 1.0) < TOL
                bad = near1 & (yv < 0.0)
                zero = near1 & (yv >= 0.0)
                c = np.arccos(np.clip(yv, -1.0, 1.0))
                with np.errstate(invalid="ignore", divide="ignore"):
                    k = np.where(near1, 0.0, c / np.sin(c))
                x = k * cosphi * np.sin(lam)
                if mode == "equit":
                    y = k * sinphi
                else:
                    y = k * (cosph0 * sinphi - sinph0 * cosphi * coslam)
                x = np.where(zero, 0.0, x)
                y = np.where(zero, 0.0, y)
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
            else:
                if mode == "n_pole":
                    phi_ = -phi
                    coslam_ = -coslam
                else:
                    phi_ = phi
                    coslam_ = coslam
                bad = np.abs(phi_ - HALFPI) < EPS10
                yv = HALFPI + phi_
                x = yv * np.sin(lam)
                y = yv * coslam_
                return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            c_rh = np.hypot(x, y)
            over = c_rh > PI
            bad = (c_rh - EPS10) > PI
            c_rh = np.where(over, PI, c_rh)
            small = c_rh < EPS10
            if mode in ("equit", "obliq"):
                sinc = np.sin(c_rh)
                cosc = np.cos(c_rh)
                with np.errstate(invalid="ignore", divide="ignore"):
                    if mode == "equit":
                        phi = aasin(y * sinc / np.where(small, 1.0, c_rh))
                        xv = x * sinc
                        yv = cosc * c_rh
                    else:
                        phi = aasin(cosc * sinph0 + y * sinc * cosph0 / np.where(small, 1.0, c_rh))
                        yv = (cosc - sinph0 * np.sin(phi)) * c_rh
                        xv = x * sinc * cosph0
                lam = np.where(yv == 0.0, 0.0, np.arctan2(xv, yv))
            elif mode == "n_pole":
                phi = HALFPI - c_rh
                lam = np.arctan2(x, -y)
            else:
                phi = c_rh - HALFPI
                lam = np.arctan2(x, y)
            phi = np.where(small, phi0, phi)
            lam = np.where(small, 0.0, lam)
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    else:
        en = enfn(es)
        if P.param_b("guam"):
            # Guam elliptical variant (src/PJ_aeqd.c:58-67,140-152):
            # series in lam around the origin meridian, 3-step
            # inverse-mlfn iteration with the C's exact update order
            M1 = float(mlfn(np.float64(phi0), np.sin(phi0),
                            np.cos(phi0), en))
            e_ = float(np.sqrt(es))

            def fwd(lam, phi):
                cosphi = np.cos(phi)
                sinphi = np.sin(phi)
                t = 1.0 / np.sqrt(1.0 - es * sinphi * sinphi)
                x = lam * cosphi * t
                y = (mlfn(phi, sinphi, cosphi, en) - M1
                     + 0.5 * lam * lam * cosphi * sinphi * t)
                return x, y

            def inv(x, y):
                x = np.asarray(x, dtype=np.float64)
                x2 = 0.5 * x * x
                phi = np.full_like(x, phi0)
                t = np.ones_like(x)
                for _ in range(3):
                    t = e_ * np.sin(phi)
                    t = np.sqrt(1.0 - t * t)
                    phi = inv_mlfn(M1 + y - x2 * np.tan(phi) * t, es, en)
                lam = x * t / np.cos(phi)
                return lam, phi

            P.fwd = fwd
            P.inv = inv
            return
        # Mp at the projection pole (PJ_aeqd.c setup: +-HALFPI by mode)
        mp_phi = -HALFPI if mode == "s_pole" else HALFPI
        Mp = float(mlfn(np.float64(mp_phi), np.sin(mp_phi), np.cos(mp_phi), en))
        a = P.a
        lam0 = P.lam0
        RHO = 57.295779513082320876798154814105

        def fwd(lam, phi):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            coslam = np.cos(lam)
            if mode in ("n_pole", "s_pole"):
                coslam_ = -coslam if mode == "n_pole" else coslam
                rho = np.abs(Mp - mlfn(phi, sinphi, cosphi, en))
                return rho * np.sin(lam), rho * coslam_
            from .geodesic import geod_inverse

            zero = (np.abs(lam) < EPS10) & (np.abs(phi - phi0) < EPS10)
            s12, azi1, _azi2, _ok = geod_inverse(
                np.full_like(lam, lam0 * RHO), np.full_like(phi, phi0 * RHO),
                (lam + lam0) * RHO, phi * RHO, a=a, f=es / (1 + np.sqrt(1 - es)))
            azi = azi1 / RHO
            x = s12 * np.sin(azi) / a
            y = s12 * np.cos(azi) / a
            return np.where(zero, 0.0, x), np.where(zero, 0.0, y)

        def inv(x, y):
            c = np.hypot(x, y)
            small = c < EPS10
            if mode in ("n_pole", "s_pole"):
                arg = Mp - c if mode == "n_pole" else Mp + c
                phi = inv_mlfn(arg, es, en)
                lam = np.arctan2(x, -y if mode == "n_pole" else y)
            else:
                from .geodesic import geod_direct

                x2 = x * a
                y2 = y * a
                azi1 = np.arctan2(x2, y2) * RHO
                s12 = np.sqrt(x2 * x2 + y2 * y2)
                lon2, lat2, _ = geod_direct(
                    np.full_like(x, lam0 * RHO), np.full_like(y, phi0 * RHO),
                    azi1, s12, a=a, f=es / (1 + np.sqrt(1 - es)))
                phi = lat2 / RHO
                lam = lon2 / RHO - lam0
            phi = np.where(small, phi0, phi)
            lam = np.where(small, 0.0, lam)
            return lam, phi

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# cea — Equal Area Cylindrical (src/PJ_cea.c)
# ---------------------------------------------------------------------------

@register("cea")
def setup_cea(P):
    t = 0.0
    if P.param_t("lat_ts"):
        t = P.param_r("lat_ts")
        P.k0 = float(np.cos(t))
        if P.k0 < 0.0:
            raise ValueError("cea: |lat_ts| > 90 (-24)")
    es, e, one_es = P.es, P.e, P.one_es
    if es:
        st = np.sin(t)
        P.k0 = P.k0 / np.sqrt(1.0 - es * st * st)
        apa = authset(es)
        qp = float(qsfn(1.0, e, one_es))
        k0 = P.k0

        def fwd(lam, phi):
            return k0 * lam, 0.5 * qsfn(np.sin(phi), e, one_es) / k0

        def inv(x, y):
            phi = authlat(np.arcsin(np.clip(2.0 * y * k0 / qp, -1.0, 1.0)), apa)
            return x / k0, phi

    else:
        k0 = P.k0

        def fwd(lam, phi):
            return k0 * lam, np.sin(phi) / k0

        def inv(x, y):
            yk = y * k0
            t_ = np.abs(yk)
            bad = (t_ - 1e-10) > 1.0
            phi = np.where(t_ >= 1.0, np.where(yk < 0.0, -HALFPI, HALFPI),
                           np.arcsin(np.clip(yk, -1.0, 1.0)))
            return np.where(bad, HUGE, x / k0), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# moll / wag4 / wag5 (src/PJ_moll.c)
# ---------------------------------------------------------------------------

def _moll_family(P, C_x, C_y, C_p):
    P.es = 0.0

    def fwd(lam, phi):
        phi_i = np.array(phi, dtype=np.float64, copy=True)
        phi_i, converged = iterate_lanes(theta_step, phi_i, (C_p * np.sin(phi),), 10,
                                         np.isfinite(phi_i))
        phi_i = np.where(converged, phi_i * 0.5,
                         np.where(phi_i < 0.0, -HALFPI, HALFPI))
        x = C_x * lam * np.cos(phi_i)
        y = C_y * np.sin(phi_i)
        return x, y

    def inv(x, y):
        phi = aasin(y / C_y)
        lam = x / (C_x * np.cos(phi))
        phi = phi + phi
        phi = aasin((phi + np.sin(phi)) / C_p)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


def _moll_setup(P, p):
    p2 = p + p
    sp = np.sin(p)
    r = np.sqrt(2.0 * PI * sp / (p2 + np.sin(p2)))
    _moll_family(P, float(2.0 * r / PI), float(r / sp), float(p2 + np.sin(p2)))


@register("moll")
def setup_moll(P):
    _moll_setup(P, HALFPI)


@register("wag4")
def setup_wag4(P):
    _moll_setup(P, PI / 3.0)


@register("wag5")
def setup_wag5(P):
    _moll_family(P, 0.90977, 1.65014, 3.00896)


# ---------------------------------------------------------------------------
# sinu / eck6 / mbtfps / gn_sinu (src/PJ_gn_sinu.c)
# ---------------------------------------------------------------------------

def _gn_sinu_sph(P, m, n):
    P.es = 0.0
    C_y = np.sqrt((m + 1.0) / n)
    C_x = C_y / (m + 1.0)

    def step(p, k):
        V = (m * p + np.sin(p) - k) / (m + np.cos(p))
        return p - V, np.abs(V) < 1e-7

    def fwd(lam, phi):
        phi_i = np.array(phi, dtype=np.float64, copy=True)
        bad = np.zeros(phi_i.shape, dtype=bool)
        if not m:
            phi_i = aasin(n * np.sin(phi_i)) if n != 1.0 else phi_i
        else:
            phi_i, converged = iterate_lanes(step, phi_i, (n * np.sin(phi_i),), 8,
                                             np.isfinite(phi_i))
            bad = ~converged & np.isfinite(phi_i)
        x = C_x * lam * (m + np.cos(phi_i))
        y = C_y * phi_i
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        yv = y / C_y
        if m:
            phi = aasin((m * yv + np.sin(yv)) / n)
        else:
            phi = aasin(np.sin(yv) / n) if n != 1.0 else yv
        lam = x / (C_x * (m + np.cos(yv)))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("sinu")
def setup_sinu(P):
    if P.es:
        en = enfn(P.es)
        es = P.es

        def fwd(lam, phi):
            s = np.sin(phi)
            c = np.cos(phi)
            y = mlfn(phi, s, c, en)
            x = lam * c / np.sqrt(1.0 - es * s * s)
            return x, y

        def inv(x, y):
            phi = inv_mlfn(y, es, en)
            s = np.abs(phi)
            interior = s < HALFPI
            edge = (s - EPS10) < HALFPI
            sp = np.sin(phi)
            with np.errstate(invalid="ignore", divide="ignore"):
                lam = np.where(interior,
                               x * np.sqrt(1.0 - es * sp * sp) / np.cos(phi),
                               np.where(edge, 0.0, HUGE))
            phi = np.where(interior | edge, phi, HUGE)
            return lam, phi

        P.fwd = fwd
        P.inv = inv
    else:
        _gn_sinu_sph(P, 0.0, 1.0)


@register("eck6")
def setup_eck6(P):
    _gn_sinu_sph(P, 1.0, 2.570796326794896619231321691)


@register("mbtfps")
def setup_mbtfps(P):
    _gn_sinu_sph(P, 0.5, 1.785398163397448309615660845)


@register("gn_sinu")
def setup_gn_sinu(P):
    if P.param_t("n") and P.param_t("m"):
        _gn_sinu_sph(P, P.param_f("m"), P.param_f("n"))
    else:
        raise ValueError("gn_sinu: missing m/n (-99)")


# ---------------------------------------------------------------------------
# mill — Miller Cylindrical (src/PJ_mill.c)
# ---------------------------------------------------------------------------

@register("mill")
def setup_mill(P):
    P.es = 0.0

    def fwd(lam, phi):
        return lam, np.log(np.tan(FORTPI + phi * 0.4)) * 1.25

    def inv(x, y):
        return x, 2.5 * (np.arctan(np.exp(0.8 * y)) - FORTPI)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# gnom / ortho — spherical azimuthal (src/PJ_gnom.c, src/PJ_ortho.c)
# ---------------------------------------------------------------------------

def _azi_modes(phi0):
    if abs(abs(phi0) - HALFPI) < EPS10:
        return "s_pole" if phi0 < 0.0 else "n_pole"
    if abs(phi0) < EPS10:
        return "equit"
    return "obliq"


@register("gnom")
def setup_gnom(P):
    P.es = 0.0
    phi0 = P.phi0
    mode = _azi_modes(phi0)
    sinph0 = float(np.sin(phi0))
    cosph0 = float(np.cos(phi0))

    def fwd(lam, phi):
        sinphi = np.sin(phi)
        cosphi = np.cos(phi)
        coslam = np.cos(lam)
        if mode == "equit":
            yv = cosphi * coslam
        elif mode == "obliq":
            yv = sinph0 * sinphi + cosph0 * cosphi * coslam
        elif mode == "s_pole":
            yv = -sinphi
        else:
            yv = sinphi
        bad = yv <= EPS10
        yv = np.where(bad, 1.0, 1.0 / yv)
        x = yv * cosphi * np.sin(lam)
        if mode == "equit":
            y = yv * sinphi
        elif mode == "obliq":
            y = yv * (cosph0 * sinphi - sinph0 * cosphi * coslam)
        elif mode == "s_pole":
            y = -yv * cosphi * coslam
        else:
            y = yv * cosphi * coslam
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        rh = np.hypot(x, y)
        z = np.arctan(rh)
        sinz = np.sin(z)
        cosz = np.cos(z)
        small = np.abs(rh) <= EPS10
        with np.errstate(invalid="ignore", divide="ignore"):
            rhs = np.where(small, 1.0, rh)
            if mode == "equit":
                phi = aasin(y * sinz / rhs)
                phi = np.where(small, 0.0, phi)
                xv = x * sinz
                yv = cosz * rh
            elif mode == "obliq":
                phi = aasin(cosz * sinph0 + y * sinz * cosph0 / rhs)
                phi = np.where(small, phi0, phi)
                xv = x * sinz * cosph0
                yv = (cosz - np.sin(phi) * sinph0) * rh
            elif mode == "n_pole":
                phi = np.where(small, HALFPI, HALFPI - z)
                xv = x
                yv = -y
            else:
                phi = np.where(small, -HALFPI, z - HALFPI)
                xv = x
                yv = y
        lam = np.where(small, 0.0, np.arctan2(xv, yv))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("ortho")
def setup_ortho(P):
    P.es = 0.0
    phi0 = P.phi0
    mode = _azi_modes(phi0)
    sinph0 = float(np.sin(phi0))
    cosph0 = float(np.cos(phi0))

    def fwd(lam, phi):
        sinphi = np.sin(phi)
        cosphi = np.cos(phi)
        coslam = np.cos(lam)
        if mode == "equit":
            bad = cosphi * coslam < -EPS10
            y = sinphi
        elif mode == "obliq":
            bad = sinph0 * sinphi + cosph0 * cosphi * coslam < -EPS10
            y = cosph0 * sinphi - sinph0 * cosphi * coslam
        else:
            bad = np.abs(phi - phi0) - EPS10 > HALFPI
            y = cosphi * (-coslam if mode == "n_pole" else coslam)
        x = cosphi * np.sin(lam)
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        rh = np.hypot(x, y)
        bad = rh > 1.0 + EPS10
        sinc = np.clip(rh, 0.0, 1.0)
        cosc = np.sqrt(1.0 - sinc * sinc)
        small = np.abs(rh) <= EPS10
        with np.errstate(invalid="ignore", divide="ignore"):
            rhs = np.where(small, 1.0, rh)
            if mode == "equit":
                pv = y * sinc / rhs
                xv = x * sinc
                yv = cosc * rh
            elif mode == "obliq":
                pv = cosc * sinph0 + y * sinc * cosph0 / rhs
                xv = x * sinc * cosph0
                yv = (cosc - sinph0 * pv) * rh
            elif mode == "n_pole":
                pv = None
                phi = np.arccos(np.clip(sinc, -1.0, 1.0))
                xv = x
                yv = -y
            else:
                pv = None
                phi = -np.arccos(np.clip(sinc, -1.0, 1.0))
                xv = x
                yv = y
            if pv is not None:
                phi = np.where(np.abs(pv) >= 1.0,
                               np.where(pv < 0.0, -HALFPI, HALFPI),
                               np.arcsin(np.clip(pv, -1.0, 1.0)))
        phi = np.where(small, phi0, phi)
        if mode in ("equit", "obliq"):
            lam = np.where((yv == 0.0) | small, 0.0, np.arctan2(xv, yv))
        else:
            lam = np.where(small, 0.0, np.arctan2(xv, yv))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# cass — Cassini (src/PJ_cass.c)
# ---------------------------------------------------------------------------

@register("cass")
def setup_cass(P):
    if P.es:
        en = enfn(P.es)
        m0 = float(mlfn(np.float64(P.phi0), np.sin(P.phi0), np.cos(P.phi0), en))
        es = P.es
        C1, C2, C3 = 0.16666666666666666666, 0.00833333333333333333, 0.04166666666666666666
        C4, C5 = 0.33333333333333333333, 0.06666666666666666666

        def fwd(lam, phi):
            sinphi = np.sin(phi)
            cosphi = np.cos(phi)
            y0 = mlfn(phi, sinphi, cosphi, en)
            n = 1.0 / np.sqrt(1.0 - es * sinphi * sinphi)
            tn = np.tan(phi)
            t = tn * tn
            a1 = lam * cosphi
            cq = cosphi * (es * cosphi / (1.0 - es))
            a2 = a1 * a1
            x = n * a1 * (1.0 - a2 * t * (C1 - (8.0 - t + 8.0 * cq) * a2 * C2))
            y = y0 - m0 + n * tn * a2 * (0.5 + (5.0 - t + 6.0 * cq) * a2 * C3)
            return x, y

        def inv(x, y):
            ph1 = inv_mlfn(m0 + y, es, en)
            tn = np.tan(ph1)
            t = tn * tn
            s1 = np.sin(ph1)
            r = 1.0 / (1.0 - es * s1 * s1)
            n = np.sqrt(r)
            r = r * (1.0 - es) * n
            dd = x / n
            d2 = dd * dd
            phi = ph1 - (n * tn / r) * d2 * (0.5 - (1.0 + 3.0 * t) * d2 * C3)
            with np.errstate(invalid="ignore", divide="ignore"):
                lam = dd * (1.0 + t * d2 * (-C4 + (1.0 + 3.0 * t) * d2 * C5)) / np.cos(ph1)
            return lam, phi

        P.fwd = fwd
        P.inv = inv
    else:

        def fwd(lam, phi):
            x = np.arcsin(np.clip(np.cos(phi) * np.sin(lam), -1.0, 1.0))
            y = np.arctan2(np.tan(phi), np.cos(lam)) - P.phi0
            return x, y

        def inv(x, y):
            dd = y + P.phi0
            phi = np.arcsin(np.clip(np.sin(dd) * np.cos(x), -1.0, 1.0))
            lam = np.arctan2(np.tan(x), np.cos(dd))
            return lam, phi

        P.fwd = fwd
        P.inv = inv
