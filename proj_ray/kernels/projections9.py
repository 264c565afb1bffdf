"""Projection kernels, wave 9: perspective + globular + Putnins family.

Reference parity:
- cc                          <- src/PJ_cc.c
- nsper / tpers               <- src/PJ_nsper.c
- lagrng (fwd-only)           <- src/PJ_lagrng.c
- oea                         <- src/PJ_oea.c
- putp2 / putp3 / putp3p / putp4p / weren / putp5 / putp5p /
  putp6 / putp6p              <- src/PJ_putp*.c
- wag7 (fwd-only)             <- src/PJ_wag7.c
- vandg2 / vandg3 / vandg4 (fwd-only) <- src/PJ_vandg2.c, PJ_vandg4.c
- apian / ortel / bacon (fwd-only)    <- src/PJ_bacon.c
"""

from __future__ import annotations

import numpy as np

from .common import DEG_TO_RAD, HALFPI, HUGE, PI, aacos, aasin, aatan2, iterate_lanes
from .projections import register


def _no_inverse(x, y):
    x = np.asarray(x, dtype=np.float64)
    return np.full_like(x, HUGE), np.full_like(x, HUGE)


@register("cc")
def setup_cc(P):
    P.es = 0.0

    def fwd(lam, phi):
        bad = np.abs(np.abs(phi) - HALFPI) <= 1e-10
        with np.errstate(invalid="ignore"):
            y = np.tan(np.where(bad, 0.0, phi))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, y)

    def inv(x, y):
        return x, np.arctan(y)

    P.fwd = fwd
    P.inv = inv


def _nsper_setup(P, tilt, cg=1.0, sg=0.0, cw=1.0, sw=0.0):
    EPS10 = 1e-10
    height = P.param_f("h")
    if height <= 0.0:
        raise ValueError("nsper: h <= 0 (-30)")
    phi0 = P.phi0
    if abs(abs(phi0) - HALFPI) < EPS10:
        mode = "s_pole" if phi0 < 0.0 else "n_pole"
        sinph0 = cosph0 = 0.0
    elif abs(phi0) < EPS10:
        mode = "equit"
        sinph0 = cosph0 = 0.0
    else:
        mode = "obliq"
        sinph0 = float(np.sin(phi0))
        cosph0 = float(np.cos(phi0))
    pn1 = height / P.a
    p = 1.0 + pn1
    rp = 1.0 / p
    h = 1.0 / pn1
    pfact = (p + 1.0) * h
    P.es = 0.0

    def fwd(lam, phi):
        sinphi = np.sin(phi)
        cosphi = np.cos(phi)
        coslam = np.cos(lam)
        if mode == "obliq":
            yv = sinph0 * sinphi + cosph0 * cosphi * coslam
        elif mode == "equit":
            yv = cosphi * coslam
        elif mode == "s_pole":
            yv = -sinphi
        else:
            yv = sinphi
        bad = yv < rp
        yv = pn1 / (p - yv)
        x = yv * cosphi * np.sin(lam)
        if mode == "obliq":
            y = yv * (cosph0 * sinphi - sinph0 * cosphi * coslam)
        elif mode == "equit":
            y = yv * sinphi
        else:
            cl = -coslam if mode == "n_pole" else coslam
            y = yv * cosphi * cl
        if tilt:
            yt = y * cg + x * sg
            ba = 1.0 / (yt * sw * h + cw)
            x = (x * cg - y * sg) * cw * ba
            y = yt * ba
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        if tilt:
            yt = 1.0 / (pn1 - y * sw)
            bm = pn1 * x * yt
            bq = pn1 * y * cw * yt
            x = bm * cg + bq * sg
            y = bq * cg - bm * sg
        rh = np.hypot(x, y)
        sinz = 1.0 - rh * rh * pfact
        bad = sinz < 0.0
        sinz = (p - np.sqrt(np.maximum(sinz, 0.0))) / (pn1 / np.where(rh == 0, 1.0, rh)
                                                       + rh / pn1)
        cosz = np.sqrt(np.maximum(1.0 - sinz * sinz, 0.0))
        small = np.abs(rh) <= 1e-10
        with np.errstate(invalid="ignore", divide="ignore"):
            rhs = np.where(small, 1.0, rh)
            if mode == "obliq":
                phi = np.arcsin(np.clip(cosz * sinph0 + y * sinz * cosph0 / rhs, -1, 1))
                yv = (cosz - sinph0 * np.sin(phi)) * rh
                xv = x * sinz * cosph0
            elif mode == "equit":
                phi = np.arcsin(np.clip(y * sinz / rhs, -1, 1))
                yv = cosz * rh
                xv = x * sinz
            elif mode == "n_pole":
                phi = np.arcsin(np.clip(cosz, -1, 1))
                yv = -y
                xv = x
            else:
                phi = -np.arcsin(np.clip(cosz, -1, 1))
                yv = y
                xv = x
        lam = np.arctan2(xv, yv)
        phi = np.where(small, phi0, phi)
        lam = np.where(small, 0.0, lam)
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("nsper")
def setup_nsper(P):
    _nsper_setup(P, tilt=False)


@register("tpers")
def setup_tpers(P):
    omega = P.param_f("tilt") * DEG_TO_RAD
    gamma = P.param_f("azi") * DEG_TO_RAD
    _nsper_setup(P, tilt=True, cg=float(np.cos(gamma)), sg=float(np.sin(gamma)),
                 cw=float(np.cos(omega)), sw=float(np.sin(omega)))


@register("lagrng")
def setup_lagrng(P):
    TOL = 1e-10
    rw = P.param_f("W")
    if rw <= 0:
        raise ValueError("lagrng: W <= 0 (-27)")
    rw = 1.0 / rw
    hrw = 0.5 * rw
    phi1 = np.sin(P.param_r("lat_1"))
    if abs(abs(phi1) - 1.0) < TOL:
        raise ValueError("lagrng: |lat_1| = 90 (-22)")
    a1 = float(np.power((1.0 - phi1) / (1.0 + phi1), hrw))
    P.es = 0.0

    def fwd(lam, phi):
        at_pole = np.abs(np.abs(phi) - HALFPI) < TOL
        sp = np.sin(phi)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = a1 * np.power((1.0 + sp) / (1.0 - sp), hrw)
            lamw = lam * rw
            c = 0.5 * (v + 1.0 / v) + np.cos(lamw)
            bad = ~at_pole & (c < TOL)
            x = 2.0 * np.sin(lamw) / c
            y = (v - 1.0 / v) / c
        x = np.where(at_pole, 0.0, x)
        y = np.where(at_pole, np.where(phi < 0, -2.0, 2.0), y)
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    P.fwd = fwd
    P.inv = _no_inverse


@register("oea")
def setup_oea(P):
    n = P.param_f("n")
    m = P.param_f("m")
    if n <= 0.0 or m <= 0.0:
        raise ValueError("oea: n/m <= 0 (-39)")
    theta = P.param_r("theta")
    sp0 = float(np.sin(P.phi0))
    cp0 = float(np.cos(P.phi0))
    rn, rm = 1.0 / n, 1.0 / m
    two_r_n, two_r_m = 2.0 * rn, 2.0 * rm
    hm, hn = 0.5 * m, 0.5 * n
    P.es = 0.0

    def fwd(lam, phi):
        cp = np.cos(phi)
        sp = np.sin(phi)
        cl = np.cos(lam)
        Az = aatan2(cp * np.sin(lam), cp0 * sp - sp0 * cp * cl) + theta
        shz = np.sin(0.5 * aacos(sp0 * sp + cp0 * cp * cl))
        M = aasin(shz * np.sin(Az))
        N = aasin(shz * np.cos(Az) * np.cos(M) / np.cos(M * two_r_m))
        y = n * np.sin(N * two_r_n)
        x = m * np.sin(M * two_r_m) * np.cos(N) / np.cos(N * two_r_n)
        return x, y

    def inv(x, y):
        N = hn * aasin(y * rn)
        M = hm * aasin(x * rm * np.cos(N * two_r_n) / np.cos(N))
        xp = 2.0 * np.sin(M)
        yp = 2.0 * np.sin(N) * np.cos(M * two_r_m) / np.cos(M)
        Az = aatan2(xp, yp) - theta
        cAz = np.cos(Az)
        z = 2.0 * aasin(0.5 * np.hypot(xp, yp))
        sz = np.sin(z)
        cz = np.cos(z)
        phi = aasin(sp0 * cz + cp0 * sz * cAz)
        lam = aatan2(sz * np.sin(Az), cp0 * cz - sp0 * sz * cAz)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("putp2")
def setup_putp2(P):
    P.es = 0.0
    C_x, C_y, C_p = 1.89490, 1.71848, 0.6141848493043784
    PI_DIV_3 = 1.0471975511965977

    def step(t, p):
        c = np.cos(t)
        s2 = np.sin(t)
        V = (t + s2 * (c - 1.0) - p) / (1.0 + c * (c - 1.0) - s2 * s2)
        return t - V, np.abs(V) < 1e-10

    def fwd(lam, phi):
        p = C_p * np.sin(phi)
        s = phi * phi
        th = np.array(phi * (0.615709 + s * (0.00909953 + s * 0.0046292)),
                      dtype=np.float64)
        th, converged = iterate_lanes(step, th, (p,), 10, np.isfinite(th))
        th = np.where(converged, th, np.where(th < 0, -PI_DIV_3, PI_DIV_3))
        return C_x * lam * (np.cos(th) - 0.5), C_y * np.sin(th)

    def inv(x, y):
        phi = aasin(y / C_y)
        c = np.cos(phi)
        lam = x / (C_x * (c - 0.5))
        phi = aasin((phi + np.sin(phi) * (c - 1.0)) / C_p)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


def _putp3_family(P, A):
    P.es = 0.0
    C = 0.79788456

    def fwd(lam, phi):
        return C * lam * (1.0 - A * phi * phi), C * phi

    def inv(x, y):
        phi = y / C
        return x / (C * (1.0 - A * phi * phi)), phi

    P.fwd = fwd
    P.inv = inv


@register("putp3")
def setup_putp3(P):
    _putp3_family(P, 4.0 * 0.1013211836)


@register("putp3p")
def setup_putp3p(P):
    _putp3_family(P, 2.0 * 0.1013211836)


def _putp4p_family(P, C_x, C_y):
    P.es = 0.0

    def fwd(lam, phi):
        th = aasin(0.883883476 * np.sin(phi))
        x = C_x * lam * np.cos(th)
        th = th * 0.333333333333333
        x = x / np.cos(th)
        return x, C_y * np.sin(th)

    def inv(x, y):
        th = aasin(y / C_y)
        lam = x * np.cos(th) / C_x
        th = th * 3.0
        lam = lam / np.cos(th)
        phi = aasin(np.clip(1.13137085 * np.sin(th), -1.0, 1.0))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("putp4p")
def setup_putp4p(P):
    _putp4p_family(P, 0.874038744, 3.883251825)


@register("weren")
def setup_weren(P):
    _putp4p_family(P, 1.0, 4.442882938)


def _putp5_family(P, A, B):
    P.es = 0.0
    C = 1.01346
    D = 1.2158542

    def fwd(lam, phi):
        return C * lam * (A - B * np.sqrt(1.0 + D * phi * phi)), C * phi

    def inv(x, y):
        phi = y / C
        return x / (C * (A - B * np.sqrt(1.0 + D * phi * phi))), phi

    P.fwd = fwd
    P.inv = inv


@register("putp5")
def setup_putp5(P):
    _putp5_family(P, 2.0, 1.0)


@register("putp5p")
def setup_putp5p(P):
    _putp5_family(P, 1.5, 0.5)


def _putp6_family(P, C_x, C_y, A, B, D):
    P.es = 0.0
    CON_POLE = 1.732050807568877

    def step(t, p):
        r = np.sqrt(1.0 + t * t)
        V = ((A - r) * t - np.log(t + r) - p) / (A - 2.0 * r)
        return t - V, np.abs(V) < 1e-10

    def fwd(lam, phi):
        p = B * np.sin(phi)
        th = np.array(phi * 1.10265779, dtype=np.float64)
        th, converged = iterate_lanes(step, th, (p,), 10, np.isfinite(th))
        th = np.where(converged, th, np.where(p < 0.0, -CON_POLE, CON_POLE))
        return C_x * lam * (D - np.sqrt(1.0 + th * th)), C_y * th

    def inv(x, y):
        th = y / C_y
        r = np.sqrt(1.0 + th * th)
        lam = x / (C_x * (D - r))
        phi = aasin(((A - r) * th - np.log(th + r)) / B)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("putp6")
def setup_putp6(P):
    _putp6_family(P, 1.01346, 0.91910, 4.0, 2.1471437182129378784, 2.0)


@register("putp6p")
def setup_putp6p(P):
    _putp6_family(P, 0.44329, 0.80404, 6.0, 5.61125, 3.0)


@register("wag7")
def setup_wag7(P):
    P.es = 0.0

    def fwd(lam, phi):
        s = 0.90630778703664996 * np.sin(phi)
        theta = np.arcsin(np.clip(s, -1.0, 1.0))
        ct = np.cos(theta)
        lam3 = lam / 3.0
        D = 1.0 / np.sqrt(0.5 * (1.0 + ct * np.cos(lam3)))
        x = 2.66723 * ct * np.sin(lam3) * D
        y = s * 1.24104 * D
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


def _vandg23(P, vdg3):
    P.es = 0.0
    TOL = 1e-10
    TWORPI = 0.63661977236758134308

    def fwd(lam, phi):
        bt = np.abs(TWORPI * phi)
        ct = 1.0 - bt * bt
        ct = np.where(ct < 0.0, 0.0, np.sqrt(np.maximum(ct, 0.0)))
        merid = np.abs(lam) < TOL
        with np.errstate(invalid="ignore", divide="ignore"):
            at = 0.5 * np.abs(PI / np.where(merid, 1.0, lam)
                              - np.where(merid, 1.0, lam) / PI)
            if vdg3:
                x1 = bt / (1.0 + ct)
                x = PI * (np.sqrt(at * at + 1.0 - x1 * x1) - at)
                y = PI * x1
            else:
                x1 = (ct * np.sqrt(1.0 + at * at) - at * ct * ct) / (
                    1.0 + at * at * bt * bt)
                x = PI * x1
                y = PI * np.sqrt(np.maximum(1.0 - x1 * (x1 + 2.0 * at) + TOL, 0.0))
            x = np.where(lam < 0.0, -x, x)
            y = np.where(phi < 0.0, -y, y)
        x_m = np.zeros_like(bt)
        y_m = PI * np.where(phi < 0.0, -bt, bt) / (1.0 + ct)
        return np.where(merid, x_m, x), np.where(merid, y_m, y)

    P.fwd = fwd
    P.inv = _no_inverse


@register("vandg2")
def setup_vandg2(P):
    _vandg23(P, False)


@register("vandg3")
def setup_vandg3(P):
    _vandg23(P, True)


@register("vandg4")
def setup_vandg4(P):
    P.es = 0.0
    TOL = 1e-10
    TWORPI = 0.63661977236758134308

    def fwd(lam, phi):
        on_eq = np.abs(phi) < TOL
        on_cm = (np.abs(lam) < TOL) | (np.abs(np.abs(phi) - HALFPI) < TOL)
        with np.errstate(invalid="ignore", divide="ignore"):
            bt = np.abs(TWORPI * phi)
            bt2 = bt * bt
            ct = 0.5 * (bt * (8.0 - bt * (2.0 + bt2)) - 5.0) / (bt2 * (bt - 1.0))
            ct2 = ct * ct
            dt = TWORPI * np.where(on_cm, 1.0, lam)
            dt = dt + 1.0 / dt
            dt = np.sqrt(np.maximum(dt * dt - 4.0, 0.0))
            dt = np.where((np.abs(lam) - HALFPI) < 0.0, -dt, dt)
            dt2 = dt * dt
            x1 = bt + ct
            x1 = x1 * x1
            t = bt + 3.0 * ct
            ft = x1 * (bt2 + ct2 * dt2 - 1.0) + (1.0 - bt2) * (
                bt2 * (t * t + 4.0 * ct2) + ct2 * (12.0 * bt * ct + 4.0 * ct2))
            x1v = (dt * (x1 + ct2 - 1.0) + 2.0 * np.sqrt(np.maximum(ft, 0.0))) / (
                4.0 * x1 + dt2)
            x = HALFPI * x1v
            y = HALFPI * np.sqrt(np.maximum(1.0 + dt * np.abs(x1v) - x1v * x1v, 0.0))
            x = np.where(lam < 0.0, -x, x)
            y = np.where(phi < 0.0, -y, y)
        x = np.where(on_eq, lam, np.where(on_cm, 0.0, x))
        y = np.where(on_eq, 0.0, np.where(on_cm, phi, y))
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


def _bacon_family(P, bacn, ortl):
    P.es = 0.0
    HLFPI2 = 2.46740110027233965467
    EPS = 1e-10

    def fwd(lam, phi):
        y = HALFPI * np.sin(phi) if bacn else np.array(phi, dtype=np.float64, copy=True)
        ax = np.abs(lam)
        big = ax >= EPS
        with np.errstate(invalid="ignore", divide="ignore"):
            if ortl:
                outer = ax >= HALFPI
                x_outer = np.sqrt(np.maximum(HLFPI2 - phi * phi + EPS, 0.0)) + ax - HALFPI
            f = 0.5 * (HLFPI2 / np.where(big, ax, 1.0) + np.where(big, ax, 1.0))
            x_inner = ax - f + np.sqrt(np.maximum(f * f - y * y, 0.0))
        if ortl:
            x = np.where(outer, x_outer, x_inner)
        else:
            x = x_inner
        x = np.where(big, np.where(lam < 0.0, -x, x), 0.0)
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("apian")
def setup_apian(P):
    _bacon_family(P, False, False)


@register("ortel")
def setup_ortel(P):
    _bacon_family(P, False, True)


@register("bacon")
def setup_bacon(P):
    _bacon_family(P, True, False)
