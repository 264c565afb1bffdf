"""Projection kernels, wave 4: oblique Mercator + Krovak + poly + bonne.

Reference parity:
- omerc (Hotine Oblique Mercator, alpha/gamma or two-point form,
  no_off/no_rot)           <- src/PJ_omerc.c:24-203
- krovak                   <- src/PJ_krovak.c
- poly (Polyconic)         <- src/PJ_poly.c
- bonne                    <- src/PJ_bonne.c
"""

from __future__ import annotations

import numpy as np

from .common import (
    FORTPI,
    HALFPI,
    HUGE,
    PI,
    TWOPI,
    adjlon,
    aasin,
    enfn,
    inv_mlfn,
    iterate_lanes,
    mlfn,
    msfn,
    phi2,
    tsfn,
)
from .projections import EPS10, register


@register("omerc")
def setup_omerc(P):
    TOL = 1.0e-7
    EPS = 1.0e-10
    # the C probes tno_rot (presence only, PJ_omerc.c:103)
    no_rot = P.param_t("no_rot")
    alp = P.param_t("alpha")
    gam = P.param_t("gamma")
    alpha_c = P.param_r("alpha") if alp else 0.0
    gamma = P.param_r("gamma") if gam else 0.0
    no_off = False
    lam1 = phi1 = lam2 = phi2_ = 0.0
    if alp or gam:
        lamc = P.param_r("lonc")
        no_off = P.param_b("no_off") or P.param_b("no_uoff")
    else:
        lam1 = P.param_r("lon_1")
        phi1 = P.param_r("lat_1")
        lam2 = P.param_r("lon_2")
        phi2_ = P.param_r("lat_2")
        con = abs(phi1)
        if (abs(phi1 - phi2_) <= TOL or con <= TOL
                or abs(con - HALFPI) <= TOL
                or abs(abs(P.phi0) - HALFPI) <= TOL
                or abs(abs(phi2_) - HALFPI) <= TOL):
            raise ValueError("omerc: bad two-point spec (-33)")

    com = np.sqrt(P.one_es)
    if abs(P.phi0) > EPS:
        sinph0 = np.sin(P.phi0)
        cosph0 = np.cos(P.phi0)
        con = 1.0 - P.es * sinph0 * sinph0
        B = cosph0 * cosph0
        B = np.sqrt(1.0 + P.es * B * B / P.one_es)
        A = B * P.k0 * com / con
        D = B * com / (cosph0 * np.sqrt(con))
        F = D * D - 1.0
        if F <= 0.0:
            F = 0.0
        else:
            F = np.sqrt(F)
            if P.phi0 < 0.0:
                F = -F
        E = F = F + D
        E = E * float(tsfn(np.float64(P.phi0), sinph0, P.e)) ** B
    else:
        B = 1.0 / com
        A = P.k0
        E = D = F = 1.0

    if alp or gam:
        if alp:
            gamma0 = np.arcsin(np.sin(alpha_c) / D)
            if not gam:
                gamma = alpha_c
        else:
            gamma0 = gamma
            alpha_c = np.arcsin(D * np.sin(gamma0))
        con = abs(alpha_c)
        if con <= TOL or abs(con - PI) <= TOL or abs(abs(P.phi0) - HALFPI) <= TOL:
            raise ValueError("omerc: bad alpha/gamma (-32)")
        P.lam0 = lamc - np.arcsin(0.5 * (F - 1.0 / F) * np.tan(gamma0)) / B
    else:
        H = float(tsfn(np.float64(phi1), np.sin(phi1), P.e)) ** B
        L = float(tsfn(np.float64(phi2_), np.sin(phi2_), P.e)) ** B
        F = E / H
        p = (L - H) / (L + H)
        J = E * E
        J = (J - L * H) / (J + L * H)
        con = lam1 - lam2
        if con < -PI:
            lam2 -= TWOPI
        elif con > PI:
            lam2 += TWOPI
        P.lam0 = float(adjlon(np.float64(
            0.5 * (lam1 + lam2)
            - np.arctan(J * np.tan(0.5 * B * (lam1 - lam2)) / p) / B)))
        gamma0 = np.arctan(2.0 * np.sin(B * float(adjlon(np.float64(lam1 - P.lam0))))
                           / (F - 1.0 / F))
        gamma = alpha_c = np.arcsin(D * np.sin(gamma0))

    singam = float(np.sin(gamma0))
    cosgam = float(np.cos(gamma0))
    sinrot = float(np.sin(gamma))
    cosrot = float(np.cos(gamma))
    rB = 1.0 / B
    ArB = A * rB
    BrA = 1.0 / ArB
    if no_off:
        u_0 = 0.0
    else:
        u_0 = abs(ArB * np.arctan2(np.sqrt(D * D - 1.0), np.cos(alpha_c)))
        if P.phi0 < 0.0:
            u_0 = -u_0
    Fh = 0.5 * gamma0
    v_pole_n = ArB * np.log(np.tan(FORTPI - Fh))
    v_pole_s = ArB * np.log(np.tan(FORTPI + Fh))
    A, B, E = float(A), float(B), float(E)
    e_ = P.e

    def fwd(lam, phi):
        at_pole = np.abs(np.abs(phi) - HALFPI) <= EPS
        phi_s = np.where(at_pole, 0.0, phi)
        Q = E / np.power(tsfn(phi_s, np.sin(phi_s), e_), B)
        Sv = 0.5 * (Q - 1.0 / Q)
        Tv = 0.5 * (Q + 1.0 / Q)
        V = np.sin(B * lam)
        U = (Sv * singam - V * cosgam) / Tv
        bad = ~at_pole & (np.abs(np.abs(U) - 1.0) < EPS)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = 0.5 * ArB * np.log((1.0 - U) / (1.0 + U))
        temp = np.cos(B * lam)
        u = np.where(np.abs(temp) < TOL, A * lam,
                     ArB * np.arctan2(Sv * cosgam + V * singam, temp))
        v = np.where(at_pole, np.where(phi > 0, v_pole_n, v_pole_s), v)
        u = np.where(at_pole, ArB * phi, u)
        if no_rot:
            x, y = u, v
        else:
            u = u - u_0
            x = v * cosrot + u * sinrot
            y = u * cosrot - v * sinrot
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        if no_rot:
            v = np.asarray(y, dtype=np.float64)
            u = np.asarray(x, dtype=np.float64)
        else:
            v = x * cosrot - y * sinrot
            u = y * cosrot + x * sinrot + u_0
        Qp = np.exp(-BrA * v)
        Sp = 0.5 * (Qp - 1.0 / Qp)
        Tp = 0.5 * (Qp + 1.0 / Qp)
        Vp = np.sin(BrA * u)
        Up = (Vp * cosgam + Sp * singam) / Tp
        polar = np.abs(np.abs(Up) - 1.0) < EPS
        with np.errstate(invalid="ignore", divide="ignore"):
            base = E / np.sqrt((1.0 + Up) / (1.0 - Up))
            phi_v = phi2(np.power(np.where(polar, 1.0, base), 1.0 / B), e_)
            lam_v = -rB * np.arctan2(Sp * cosgam - Vp * singam, np.cos(BrA * u))
        phi_out = np.where(polar, np.where(Up < 0.0, -HALFPI, HALFPI), phi_v)
        lam_out = np.where(polar, 0.0, lam_v)
        return lam_out, phi_out

    P.fwd = fwd
    P.inv = inv


@register("poly")
def setup_poly(P):
    # src/PJ_poly.c
    TOL = 1e-10
    CONV = 1e-10
    ITOL = 1e-12
    es = P.es
    if es:
        en = enfn(es)
        ml0 = float(mlfn(np.float64(P.phi0), np.sin(P.phi0), np.cos(P.phi0), en))
        one_es = P.one_es

        def fwd(lam, phi):
            small = np.abs(phi) <= TOL
            sp = np.sin(phi)
            cp = np.cos(phi)
            with np.errstate(invalid="ignore", divide="ignore"):
                ms = np.where(np.abs(cp) > TOL, msfn(sp, cp, es) / sp, 0.0)
                E_ = lam * sp
                x2 = ms * np.sin(E_)
                y2 = (mlfn(phi, sp, cp, en) - ml0) + ms * (1.0 - np.cos(E_))
            x = np.where(small, lam, x2)
            y = np.where(small, -ml0, y2)
            return x, y

        def step(p, at_edge, r, yy):
            sp = np.sin(p)
            cp = np.cos(p)
            s2ph = sp * cp
            edge = np.abs(cp) < ITOL  # stops the lane unconverged
            mlp = np.sqrt(1.0 - es * sp * sp)
            c = sp * mlp / cp
            ml = mlfn(p, sp, cp, en)
            mlb = ml * ml + r
            mlp2 = one_es / (mlp * mlp * mlp)
            dPhi = ((ml + ml + c * mlb - 2.0 * yy * (c * ml + 1.0))
                    / (es * s2ph * (mlb - 2.0 * yy * ml) / c
                       + 2.0 * (yy - ml) * (c * mlp2 - 1.0 / s2ph)
                       - mlp2 - mlp2))
            return (p + np.where(edge, 0.0, dPhi), edge), (np.abs(dPhi) <= ITOL) | edge

        def inv(x, y):
            """Newton iteration of PJ_poly.c e_inverse (I_ITER 20, ITOL 1e-12)."""
            x = np.asarray(x, dtype=np.float64)
            yy = np.asarray(y, dtype=np.float64) + ml0
            small = np.abs(yy) <= TOL
            r = yy * yy + x * x
            (phi_i, at_edge), converged = iterate_lanes(
                step, (yy.copy(), np.zeros(yy.shape, dtype=bool)), (r, yy), 20,
                np.isfinite(yy) & ~small)
            converged &= ~at_edge
            with np.errstate(invalid="ignore", divide="ignore"):
                c2 = np.sin(phi_i)
                lam = np.arcsin(np.clip(x * np.tan(phi_i)
                                        * np.sqrt(1.0 - es * c2 * c2), -1, 1)) / np.sin(phi_i)
            lam = np.where(small, x, lam)
            phi_out = np.where(small, 0.0, np.where(converged | small, phi_i, HUGE))
            lam = np.where(converged | small, lam, HUGE)
            return lam, phi_out

    else:
        ml0 = -P.phi0
        phi0 = P.phi0

        def fwd(lam, phi):
            small = np.abs(phi) <= TOL
            with np.errstate(invalid="ignore", divide="ignore"):
                cot = 1.0 / np.tan(phi)
                E_ = lam * np.sin(phi)
                x2 = np.sin(E_) * cot
                y2 = phi - phi0 + cot * (1.0 - np.cos(E_))
            x = np.where(small, lam, x2)
            y = np.where(small, ml0, y2)
            return x, y

        def step(p, yy, B):
            tp = np.tan(p)
            dphi = (yy * (p * tp + 1.0) - p
                    - 0.5 * (p * p + B) * tp) / ((p - yy) / tp - 1.0)
            return p - dphi, np.abs(dphi) <= CONV

        def inv(x, y):
            x = np.asarray(x, dtype=np.float64)
            yy = phi0 + np.asarray(y, dtype=np.float64)
            small = np.abs(yy) <= TOL
            B = x * x + yy * yy
            phi_i, converged = iterate_lanes(step, yy.copy(), (yy, B), 10,
                                             np.isfinite(yy) & ~small)
            with np.errstate(invalid="ignore", divide="ignore"):
                lam = np.arcsin(np.clip(x * np.tan(phi_i), -1.0, 1.0)) / np.sin(phi_i)
            lam = np.where(small, x, np.where(converged, lam, HUGE))
            phi_out = np.where(small, 0.0, np.where(converged, phi_i, HUGE))
            return lam, phi_out

    P.fwd = fwd
    P.inv = inv


@register("bonne")
def setup_bonne(P):
    # src/PJ_bonne.c
    EPS = 1e-10
    phi1 = P.param_r("lat_1")
    if abs(phi1) < EPS:
        raise ValueError("bonne: |lat_1| ~ 0 (-23)")
    es = P.es
    if es:
        en = enfn(es)
        sphi1 = np.sin(phi1)
        cphi1 = np.cos(phi1)
        m1 = float(mlfn(np.float64(phi1), sphi1, cphi1, en))
        am1 = float(cphi1 / (np.sqrt(1.0 - es * sphi1 * sphi1) * sphi1))

        def fwd(lam, phi):
            sp = np.sin(phi)
            cp = np.cos(phi)
            rh = am1 + m1 - mlfn(phi, sp, cp, en)
            with np.errstate(invalid="ignore", divide="ignore"):
                E_ = cp * lam / (rh * np.sqrt(1.0 - es * sp * sp))
            return rh * np.sin(E_), am1 - rh * np.cos(E_)

        def inv(x, y):
            x = np.asarray(x, dtype=np.float64)
            yy = am1 - np.asarray(y, dtype=np.float64)
            rh = np.hypot(x, yy)
            phi_v = inv_mlfn(am1 + m1 - rh, es, en)
            s = np.abs(phi_v)
            interior = s < HALFPI
            edge = np.abs(s - HALFPI) <= EPS
            sp = np.sin(phi_v)
            with np.errstate(invalid="ignore", divide="ignore"):
                lam = np.where(interior,
                               rh * np.arctan2(x, yy)
                               * np.sqrt(1.0 - es * sp * sp) / np.cos(phi_v),
                               0.0)
            bad = ~interior & ~edge
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi_v)

    else:
        cphi1 = 0.0 if abs(phi1) + EPS >= HALFPI else 1.0 / np.tan(phi1)

        def fwd(lam, phi):
            rh = cphi1 + phi1 - phi
            big = np.abs(rh) > EPS
            with np.errstate(invalid="ignore", divide="ignore"):
                E_ = np.where(big, lam * np.cos(phi) / rh, 0.0)
            x = np.where(big, rh * np.sin(E_), 0.0)
            y = np.where(big, cphi1 - rh * np.cos(E_), 0.0)
            return x, y

        def inv(x, y):
            x = np.asarray(x, dtype=np.float64)
            yy = cphi1 - np.asarray(y, dtype=np.float64)
            rh = np.hypot(x, yy)
            phi_v = cphi1 + phi1 - rh
            bad = np.abs(phi_v) > HALFPI
            edge = np.abs(np.abs(phi_v) - HALFPI) <= EPS
            with np.errstate(invalid="ignore", divide="ignore"):
                lam = np.where(edge, 0.0, rh * np.arctan2(x, yy) / np.cos(phi_v))
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi_v)

    P.fwd = fwd
    P.inv = inv
