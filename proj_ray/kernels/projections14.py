"""Projection kernels, wave 14: Chamberlin trimetric + Laborde.

Reference parity:
- chamb (fwd-only, 3 control points) <- src/PJ_chamb.c
- labrd (Madagascar Laborde)         <- src/PJ_labrd.c
"""

from __future__ import annotations

import numpy as np

from .common import FORTPI, HALFPI, HUGE, PI, aacos, aasin, adjlon, iterate_lanes
from .projections import register


def _vect(dphi, c1, s1, c2, s2, dlam):
    """distance+azimuth between points (PJ_chamb.c vect), vectorized."""
    cdl = np.cos(dlam)
    big = (np.abs(dphi) > 1.0) | (np.abs(dlam) > 1.0)
    r_big = aacos(s1 * s2 + c1 * c2 * cdl)
    dp = np.sin(0.5 * dphi)
    dl = np.sin(0.5 * dlam)
    r_small = 2.0 * aasin(np.sqrt(dp * dp + c1 * c2 * dl * dl))
    r = np.where(big, r_big, r_small)
    with np.errstate(invalid="ignore", divide="ignore"):
        Az = np.arctan2(c2 * np.sin(dlam), c1 * s2 - s1 * c2 * cdl)
    small = np.abs(r) <= 1e-9
    return np.where(small, 0.0, r), np.where(small, 0.0, Az)


def _lc(b, c, a):
    with np.errstate(invalid="ignore", divide="ignore"):
        return aacos(0.5 * (b * b + c * c - a * a) / (b * c))


@register("chamb")
def setup_chamb(P):
    THIRD = 0.333333333333333333
    P.es = 0.0
    ctl = []
    for i in range(3):
        phi = P.param_r(f"lat_{i+1}")
        lam = float(adjlon(np.float64(P.param_r(f"lon_{i+1}") - P.lam0)))
        ctl.append(dict(phi=phi, lam=lam, cosphi=np.cos(phi), sinphi=np.sin(phi)))
    for i in range(3):
        j = 0 if i == 2 else i + 1
        r, Az = _vect(np.float64(ctl[j]["phi"] - ctl[i]["phi"]),
                      ctl[i]["cosphi"], ctl[i]["sinphi"],
                      ctl[j]["cosphi"], ctl[j]["sinphi"],
                      np.float64(ctl[j]["lam"] - ctl[i]["lam"]))
        if not r:
            raise ValueError("chamb: coincident control points (-25)")
        ctl[i]["vr"] = float(r)
        ctl[i]["vAz"] = float(Az)
    beta_0 = float(_lc(ctl[0]["vr"], ctl[2]["vr"], ctl[1]["vr"]))
    beta_1 = float(_lc(ctl[0]["vr"], ctl[1]["vr"], ctl[2]["vr"]))
    beta_2 = PI - beta_0
    py = 2.0 * ctl[2]["vr"] * np.sin(beta_0)
    ctl[0]["py"] = ctl[1]["py"] = ctl[2]["vr"] * np.sin(beta_0)
    ctl[2]["py"] = 0.0
    ctl[1]["px"] = 0.5 * ctl[0]["vr"]
    ctl[0]["px"] = -ctl[1]["px"]
    px = ctl[2]["px"] = ctl[0]["px"] + ctl[2]["vr"] * np.cos(beta_0)

    def fwd(lam, phi):
        sinphi = np.sin(phi)
        cosphi = np.cos(phi)
        v_r = []
        v_Az = []
        at_ctl = np.full(np.shape(lam), -1, dtype=np.int64)
        for i in range(3):
            r, Az = _vect(phi - ctl[i]["phi"], ctl[i]["cosphi"], ctl[i]["sinphi"],
                          cosphi, sinphi, lam - ctl[i]["lam"])
            zero = (r == 0.0) & (at_ctl < 0)
            at_ctl = np.where(zero, i, at_ctl)
            Az = adjlon(Az - ctl[i]["vAz"])
            v_r.append(r)
            v_Az.append(Az)
        x = np.full(np.shape(lam), px, dtype=np.float64)
        y = np.full(np.shape(lam), py, dtype=np.float64)
        for i in range(3):
            j = 0 if i == 2 else i + 1
            a = _lc(ctl[i]["vr"], v_r[i], v_r[j])
            a = np.where(v_Az[i] < 0.0, -a, a)
            if i == 0:
                x = x + v_r[i] * np.cos(a)
                y = y - v_r[i] * np.sin(a)
            elif i == 1:
                a = beta_1 - a
                x = x - v_r[i] * np.cos(a)
                y = y - v_r[i] * np.sin(a)
            else:
                a = beta_2 - a
                x = x + v_r[i] * np.cos(a)
                y = y + v_r[i] * np.sin(a)
        x = x * THIRD
        y = y * THIRD
        for i in range(3):
            m = at_ctl == i
            x = np.where(m, ctl[i]["px"], x)
            y = np.where(m, ctl[i]["py"], y)
        return x, y

    def _no_inverse(x, y):
        x = np.asarray(x, dtype=np.float64)
        return np.full_like(x, HUGE), np.full_like(x, HUGE)

    P.fwd = fwd
    P.inv = _no_inverse


@register("labrd")
def setup_labrd(P):
    EPS = 1e-10
    # the C reads bno_rot into P->rot but never uses it in the math
    # (src/PJ_labrd.c:89) — replicate the used-flag mark
    P.param_b("no_rot")
    Az = P.param_r("azi")
    e = P.e
    es = P.es
    one_es = P.one_es
    sinp = np.sin(P.phi0)
    t = 1.0 - es * sinp * sinp
    N = 1.0 / np.sqrt(t)
    R = one_es * N / t
    kRg = P.k0 * np.sqrt(N * R)
    p0s = np.arctan(np.sqrt(R / N) * np.tan(P.phi0))
    A = sinp / np.sin(p0s)
    te = e * sinp
    C = (0.5 * e * A * np.log((1.0 + te) / (1.0 - te))
         - A * np.log(np.tan(FORTPI + 0.5 * P.phi0))
         + np.log(np.tan(FORTPI + 0.5 * p0s)))
    t2 = Az + Az
    Cb = 1.0 / (12.0 * kRg * kRg)
    Ca = (1.0 - np.cos(t2)) * Cb
    Cb = Cb * np.sin(t2)
    Cc = 3.0 * (Ca * Ca - Cb * Cb)
    Cd = 6.0 * Ca * Cb
    kRg, p0s, A, C = float(kRg), float(p0s), float(A), float(C)
    Ca, Cb, Cc, Cd = float(Ca), float(Cb), float(Cc), float(Cd)
    phi0 = P.phi0
    k0 = P.k0

    def fwd(lam, phi):
        V1 = A * np.log(np.tan(FORTPI + 0.5 * phi))
        t_ = e * np.sin(phi)
        V2 = 0.5 * e * A * np.log((1.0 + t_) / (1.0 - t_))
        ps = 2.0 * (np.arctan(np.exp(V1 - V2 + C)) - FORTPI)
        I1 = ps - p0s
        cosps = np.cos(ps)
        cosps2 = cosps * cosps
        sinps = np.sin(ps)
        sinps2 = sinps * sinps
        I4 = A * cosps
        I2 = 0.5 * A * I4 * sinps
        I3 = I2 * A * A * (5.0 * cosps2 - sinps2) / 12.0
        I6 = I4 * A * A
        I5 = I6 * (cosps2 - sinps2) / 6.0
        I6 = I6 * A * A * (5.0 * cosps2 * cosps2
                           + sinps2 * (sinps2 - 18.0 * cosps2)) / 120.0
        tl = lam * lam
        x = kRg * lam * (I4 + tl * (I5 + tl * I6))
        y = kRg * (I1 + tl * (I2 + tl * I3))
        x2 = x * x
        y2 = y * y
        V1r = 3.0 * x * y2 - x * x2
        V2r = y * y2 - 3.0 * x2 * y
        x = x + Ca * V1r + Cb * V2r
        y = y + Ca * V2r - Cb * V1r
        return x, y

    def step(p, ps):
        V1i = A * np.log(np.tan(FORTPI + 0.5 * p))
        tpe = e * np.sin(p)
        V2i = 0.5 * e * A * np.log((1.0 + tpe) / (1.0 - tpe))
        tt = ps - 2.0 * (np.arctan(np.exp(V1i - V2i + C)) - FORTPI)
        return p + tt, np.abs(tt) < EPS

    def inv(x, y):
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        x2 = x * x
        y2 = y * y
        V1 = 3.0 * x * y2 - x * x2
        V2 = y * y2 - 3.0 * x2 * y
        V3 = x * (5.0 * y2 * y2 + x2 * (-10.0 * y2 + x2))
        V4 = y * (5.0 * x2 * x2 + y2 * (-10.0 * x2 + y2))
        x = x + (-Ca * V1 - Cb * V2 + Cc * V3 + Cd * V4)
        y = y + (Cb * V1 - Ca * V2 - Cd * V3 + Cc * V4)
        ps = p0s + y / kRg
        pe = np.array(ps + phi0 - p0s, dtype=np.float64)
        pe = iterate_lanes(step, pe, (ps,), 20, np.isfinite(pe))[0]
        t_ = e * np.sin(pe)
        t_ = 1.0 - t_ * t_
        Re = one_es / (t_ * np.sqrt(t_))
        t_ = np.tan(ps)
        tt2 = t_ * t_
        s = kRg * kRg
        d = Re * k0 * kRg
        I7 = t_ / (2.0 * d)
        I8 = t_ * (5.0 + 3.0 * tt2) / (24.0 * d * s)
        d = np.cos(ps) * kRg * A
        I9 = 1.0 / d
        d = d * s
        I10 = (1.0 + 2.0 * tt2) / (6.0 * d)
        I11 = (5.0 + tt2 * (28.0 + 24.0 * tt2)) / (120.0 * d * s)
        x2 = x * x
        phi = pe + x2 * (-I7 + I8 * x2)
        lam = x * (I9 + x2 * (-I10 + x2 * I11))
        return lam, phi

    P.fwd = fwd
    P.inv = inv
