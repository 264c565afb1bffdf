"""Projection kernels, wave 15: Space Oblique Mercator for LANDSAT.

Reference parity: lsat <- src/PJ_lsat.c (Snyder/Linck SOM: Fourier
constants via the seraz0 quadrature, per-point nested iteration with
orbit-branch switching — vectorized with per-lane masks).
"""

from __future__ import annotations

import numpy as np

from .common import DEG_TO_RAD, FORTPI, HALFPI, HUGE, PI, TWOPI, aasin, iterate_lanes
from .projections import register

_PI_HALFPI = 4.71238898038468985766
_TWOPI_HALFPI = 7.85398163397448309610
_TOL = 1e-7


@register("lsat")
def setup_lsat(P):
    land = P.param_i("lsat")
    if land <= 0 or land > 5:
        raise ValueError("lsat: lsat not in 1..5 (-28)")
    path = P.param_i("path")
    if path <= 0 or path > (251 if land <= 3 else 233):
        raise ValueError("lsat: bad path (-29)")
    if land <= 3:
        P.lam0 = DEG_TO_RAD * 128.87 - TWOPI / 251.0 * path
        p22 = 103.2669323
        alf = DEG_TO_RAD * 99.092
    else:
        P.lam0 = DEG_TO_RAD * 129.3 - TWOPI / 233.0 * path
        p22 = 98.8841202
        alf = DEG_TO_RAD * 98.2
    p22 /= 1440.0
    sa = np.sin(alf)
    ca = np.cos(alf)
    if abs(ca) < 1e-9:
        ca = 1e-9
    es = P.es
    rone_es = P.rone_es
    one_es = P.one_es
    esc = es * ca * ca
    ess = es * sa * sa
    w = (1.0 - esc) * rone_es
    w = w * w - 1.0
    q = ess * rone_es
    t = ess * (2.0 - es) * rone_es * rone_es
    u = esc * rone_es
    xj = one_es * one_es * one_es
    rlm = PI * (1.0 / 248.0 + 0.5161290322580645)
    rlm2 = rlm + TWOPI

    # Fourier constants by Simpson quadrature (seraz0)
    state = {"a2": 0.0, "a4": 0.0, "b": 0.0, "c1": 0.0, "c3": 0.0}

    def seraz0(lam_deg, mult):
        lam = lam_deg * DEG_TO_RAD
        sd = np.sin(lam)
        sdsq = sd * sd
        s = p22 * sa * np.cos(lam) * np.sqrt(
            (1.0 + t * sdsq) / ((1.0 + w * sdsq) * (1.0 + q * sdsq)))
        d1 = 1.0 + q * sdsq
        h = np.sqrt((1.0 + q * sdsq) / (1.0 + w * sdsq)) * (
            (1.0 + w * sdsq) / (d1 * d1) - p22 * ca)
        sq = np.sqrt(xj * xj + s * s)
        fc = mult * (h * xj - s * s) / sq
        state["b"] += fc
        state["a2"] += fc * np.cos(lam + lam)
        state["a4"] += fc * np.cos(lam * 4.0)
        fc = mult * s * (h + xj) / sq
        state["c1"] += fc * np.cos(lam)
        state["c3"] += fc * np.cos(lam * 3.0)

    seraz0(0.0, 1.0)
    lam = 9.0
    while lam <= 81.0001:
        seraz0(lam, 4.0)
        lam += 18.0
    lam = 18.0
    while lam <= 72.0001:
        seraz0(lam, 2.0)
        lam += 18.0
    seraz0(90.0, 1.0)
    a2 = state["a2"] / 30.0
    a4 = state["a4"] / 60.0
    b = state["b"] / 30.0
    c1 = state["c1"] / 15.0
    c3 = state["c3"] / 45.0

    def lam_step(_lt, sav, lam, tanphi, fac):
        lt = lam + p22 * sav
        c = np.cos(lt)
        lt = np.where(np.abs(c) < _TOL, lt - _TOL, lt)
        c = np.where(np.abs(c) < _TOL, np.cos(lt), c)
        xlam = (one_es * tanphi * sa + np.sin(lt) * ca) / c
        ld = np.arctan(xlam) + fac
        return (lt, ld), np.abs(np.abs(sav) - np.abs(ld)) < _TOL

    def branch_step(lpp, _lamdp, _lamt, _ok, lam, tanphi):
        """One pass of the nn loop: the lambda iteration from the branch
        ``lpp``, then the branch switch."""
        cl = np.cos(lam + p22 * lpp)
        fac = lpp - np.sin(lpp) * np.where(cl < 0.0, -HALFPI, HALFPI)
        (lamt, lamdp), ok = iterate_lanes(lam_step, (np.zeros_like(lpp), lpp.copy()),
                                          (lam, tanphi, fac), 50,
                                          np.ones(lpp.shape, dtype=bool))
        in_range = (lamdp > rlm) & (lamdp < rlm2)
        lpp = np.where(lamdp <= rlm, _TWOPI_HALFPI, np.where(lamdp >= rlm2, HALFPI, lpp))
        return (lpp, lamdp, lamt, ok), ~ok | in_range

    def fwd(lam_in, phi_in):
        lam_in = np.asarray(lam_in, dtype=np.float64)
        phi = np.clip(np.asarray(phi_in, dtype=np.float64), -HALFPI, HALFPI)
        lampp = np.where(phi >= 0.0, HALFPI, _PI_HALFPI)
        every = np.ones(phi.shape, dtype=bool)
        (_, lamdp, lamt, ok), _ = iterate_lanes(
            branch_step, (lampp, np.zeros_like(phi), np.zeros_like(phi), every.copy()),
            (lam_in, np.tan(phi)), 3, every)
        sp = np.sin(phi)
        phidp = aasin((one_es * ca * sp - sa * np.cos(phi) * np.sin(lamt))
                      / np.sqrt(1.0 - es * sp * sp))
        with np.errstate(invalid="ignore", divide="ignore"):
            tanph = np.log(np.tan(FORTPI + 0.5 * phidp))
        sd = np.sin(lamdp)
        sdsq = sd * sd
        s = p22 * sa * np.cos(lamdp) * np.sqrt(
            (1.0 + t * sdsq) / ((1.0 + w * sdsq) * (1.0 + q * sdsq)))
        d = np.sqrt(xj * xj + s * s)
        x = (b * lamdp + a2 * np.sin(2.0 * lamdp) + a4 * np.sin(lamdp * 4.0)
             - tanph * s / d)
        y = c1 * sd + c3 * np.sin(lamdp * 3.0) + tanph * xj / d
        return np.where(ok, x, HUGE), np.where(ok, y, HUGE)

    def step(_s, sav, x, y):
        sd = np.sin(sav)
        sdsq = sd * sd
        s_i = p22 * sa * np.cos(sav) * np.sqrt(
            (1.0 + t * sdsq) / ((1.0 + w * sdsq) * (1.0 + q * sdsq)))
        ld = (x + y * s_i / xj - a2 * np.sin(2.0 * sav)
              - a4 * np.sin(sav * 4.0)
              - s_i / xj * (c1 * np.sin(sav) + c3 * np.sin(sav * 3.0)))
        ld = ld / b
        return (s_i, ld), np.abs(ld - sav) < _TOL

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        lamdp = x / b
        (s, lamdp), _ = iterate_lanes(step, (np.zeros_like(x), lamdp), (x, y), 50,
                                      np.isfinite(lamdp))
        sl = np.sin(lamdp)
        fac = np.exp(np.sqrt(1.0 + s * s / xj / xj)
                     * (y - c1 * sl - c3 * np.sin(lamdp * 3.0)))
        phidp = 2.0 * (np.arctan(fac) - FORTPI)
        dd = sl * sl
        lamdp = np.where(np.abs(np.cos(lamdp)) < _TOL, lamdp - _TOL, lamdp)
        spp = np.sin(phidp)
        sppsq = spp * spp
        with np.errstate(invalid="ignore", divide="ignore"):
            lamt = np.arctan(
                ((1.0 - sppsq * rone_es) * np.tan(lamdp) * ca
                 - spp * sa * np.sqrt(np.maximum(
                     (1.0 + q * dd) * (1.0 - sppsq) - sppsq * u, 0.0))
                 / np.cos(lamdp)) / (1.0 - sppsq * (1.0 + u)))
        sl2 = np.where(lamt >= 0.0, 1.0, -1.0)
        scl = np.where(np.cos(lamdp) >= 0.0, 1.0, -1.0)
        lamt = lamt - HALFPI * (1.0 - scl) * sl2
        lam_out = lamt - p22 * lamdp
        if abs(sa) < _TOL:
            phi_out = aasin(spp / np.sqrt(one_es * one_es + es * sppsq))
        else:
            phi_out = np.arctan((np.tan(lamdp) * np.cos(lamt)
                                 - ca * np.sin(lamt)) / (one_es * sa))
        return lam_out, phi_out

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# imw_p — International Map of the World Polyconic (src/PJ_imw_p.c)
# ---------------------------------------------------------------------------

from .common import RAD_TO_DEG, enfn, mlfn  # noqa: E402


@register("imw_p")
def setup_imw_p(P):
    TOL = 1e-10
    EPS = 1e-10
    if not (P.param_t("lat_1") and P.param_t("lat_2")):
        raise ValueError("imw_p: lat_1/lat_2 required (-41)")
    phi_1 = P.param_r("lat_1")
    phi_2 = P.param_r("lat_2")
    delv = 0.5 * (phi_2 - phi_1)
    sig = 0.5 * (phi_2 + phi_1)
    if abs(delv) < EPS or abs(sig) < EPS:
        raise ValueError("imw_p: degenerate lat_1/lat_2 (-42)")
    if phi_2 < phi_1:
        phi_1, phi_2 = phi_2, phi_1
    if P.param_t("lon_1"):
        lam_1 = P.param_r("lon_1")
    else:
        s = abs(sig * RAD_TO_DEG)
        s = 2.0 if s <= 60 else (4.0 if s <= 76 else 8.0)
        lam_1 = s * DEG_TO_RAD
    en = enfn(P.es)
    es = P.es

    def _xy(phi):
        sp = np.sin(phi)
        R = 1.0 / (np.tan(phi) * np.sqrt(1.0 - es * sp * sp))
        F = lam_1 * sp
        return R * np.sin(F), R * (1.0 - np.cos(F)), sp, R

    mode = 0
    if phi_1:
        x1, y1, sphi_1, R_1 = (float(v) for v in _xy(np.float64(phi_1)))
    else:
        mode = 1
        y1, x1 = 0.0, lam_1
        sphi_1 = R_1 = 0.0
    if phi_2:
        x2, T2, sphi_2, R_2 = (float(v) for v in _xy(np.float64(phi_2)))
    else:
        mode = -1
        T2, x2 = 0.0, lam_1
        sphi_2 = R_2 = 0.0
    m1 = float(mlfn(np.float64(phi_1), np.sin(phi_1), np.cos(phi_1), en))
    m2 = float(mlfn(np.float64(phi_2), np.sin(phi_2), np.cos(phi_2), en))
    t = m2 - m1
    s = x2 - x1
    y2 = np.sqrt(t * t - s * s) + y1
    C2 = y2 - T2
    t = 1.0 / t
    Pc = (m2 * y1 - m1 * y2) * t
    Qc = (y2 - y1) * t
    Pp = (m2 * x1 - m1 * x2) * t
    Qp = (x2 - x1) * t
    C2, Pc, Qc, Pp, Qp = map(float, (C2, Pc, Qc, Pp, Qp))

    def loc_for(lam, phi):
        """returns (x, y, yc) vectorized (loc_for in PJ_imw_p.c)."""
        zero = phi == 0.0
        phi_s = np.where(zero, 0.5, phi)
        sp = np.sin(phi_s)
        m = mlfn(phi_s, sp, np.cos(phi_s), en)
        xa = Pp + Qp * m
        ya = Pc + Qc * m
        with np.errstate(invalid="ignore", divide="ignore"):
            R = 1.0 / (np.tan(phi_s) * np.sqrt(1.0 - es * sp * sp))
            C = np.sqrt(np.maximum(R * R - xa * xa, 0.0))
            C = np.where(phi_s < 0.0, -C, C)
            C = C + ya - R
            if mode < 0:
                xb = lam
                yb = np.full_like(lam, C2)
            else:
                tt = lam * sphi_2
                xb = R_2 * np.sin(tt)
                yb = C2 + R_2 * (1.0 - np.cos(tt))
            if mode > 0:
                xc = lam
                yc = np.zeros_like(lam)
            else:
                tt = lam * sphi_1
                xc = R_1 * np.sin(tt)
                yc = R_1 * (1.0 - np.cos(tt))
            D = (xb - xc) / (yb - yc)
            B = xc + D * (C + R - yc)
            x = D * np.sqrt(np.maximum(R * R * (1.0 + D * D) - B * B, 0.0))
            x = np.where(phi_s > 0.0, -x, x)
            x = (B + x) / (1.0 + D * D)
            y = np.sqrt(np.maximum(R * R - x * x, 0.0))
            y = np.where(phi_s > 0.0, -y, y)
            y = y + C + R
        x = np.where(zero, lam, x)
        y = np.where(zero, 0.0, y)
        return x, y, yc

    def fwd(lam, phi):
        x, y, _yc = loc_for(lam, phi)
        return x, y

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        phi = np.full_like(y, phi_2)
        lam = x / np.cos(phi_2)
        for _ in range(50):
            tx, ty, yc = loc_for(lam, phi)
            done = (np.abs(tx - x) <= TOL) & (np.abs(ty - y) <= TOL)
            if np.all(done):
                break
            with np.errstate(invalid="ignore", divide="ignore"):
                phi = (phi - phi_1) * (y - yc) / (ty - yc) + phi_1
                lam = lam * x / tx
        return lam, phi

    P.fwd = fwd
    P.inv = inv
