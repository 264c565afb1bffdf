"""Projection kernels, wave 7: the remaining simple spherical heads.

Reference parity:
- kav5/qua_aut/mbt_s/fouc   <- src/PJ_sts.c
- vandg                     <- src/PJ_vandg.c
- aitoff/wintri (Newton-Jacobian inverse) <- src/PJ_aitoff.c
- wag2/wag3                 <- src/PJ_wag2.c, src/PJ_wag3.c
- boggs/august/denoy/gins8/larr/lask/tcc (fwd-only like the reference)
- crast/fahey/hatano/loxim/nell_h/mbt_fps/mbtfpp/mbtfpq/natearth
- urm5 (fwd-only)/urmfps/wag1
"""

from __future__ import annotations

import numpy as np

from .common import FORTPI, HALFPI, HUGE, PI, aasin, asqrt, iterate_lanes, theta_step
from .projections import register


def _no_inverse(x, y):
    x = np.asarray(x, dtype=np.float64)
    return np.full_like(x, HUGE), np.full_like(x, HUGE)


def _sts_family(P, p, q, tan_mode):
    P.es = 0.0
    C_x = q / p
    C_y = p
    C_p = 1.0 / q

    def fwd(lam, phi):
        x = C_x * lam * np.cos(phi)
        phi2 = phi * C_p
        c = np.cos(phi2)
        if tan_mode:
            return x * c * c, C_y * np.tan(phi2)
        return x / c, C_y * np.sin(phi2)

    def inv(x, y):
        yv = y / C_y
        phi2 = np.arctan(yv) if tan_mode else aasin(yv)
        c = np.cos(phi2)
        phi = phi2 / C_p
        lam = x / (C_x * np.cos(phi))
        if tan_mode:
            lam = lam / (c * c)
        else:
            lam = lam * c
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("kav5")
def setup_kav5(P):
    _sts_family(P, 1.50488, 1.35439, False)


@register("qua_aut")
def setup_qua_aut(P):
    _sts_family(P, 2.0, 2.0, False)


@register("mbt_s")
def setup_mbt_s(P):
    _sts_family(P, 1.48875, 1.36509, False)


@register("fouc")
def setup_fouc(P):
    _sts_family(P, 2.0, 2.0, True)


@register("vandg")
def setup_vandg(P):
    P.es = 0.0
    TOL = 1e-10
    THIRD = 0.33333333333333333333
    TWO_THRD = 0.66666666666666666666
    C2_27 = 0.07407407407407407407
    PI4_3 = 4.18879020478639098458
    PISQ = 9.86960440108935861869
    TPISQ = 19.73920880217871723738
    HPISQ = 4.93480220054467930934

    def fwd(lam, phi):
        p2 = np.abs(phi / HALFPI)
        bad = (p2 - TOL) > 1.0
        p2 = np.minimum(p2, 1.0)
        eq = np.abs(phi) <= TOL
        merid = (np.abs(lam) <= TOL) | (np.abs(p2 - 1.0) < TOL)
        with np.errstate(invalid="ignore", divide="ignore"):
            al = 0.5 * np.abs(PI / np.where(lam == 0, 1.0, lam) - lam / PI)
            al2 = al * al
            g = np.sqrt(np.maximum(1.0 - p2 * p2, 0.0))
            g = g / (p2 + g - 1.0)
            g2 = g * g
            p2t = g * (2.0 / p2 - 1.0)
            p2t = p2t * p2t
            xg = g - p2t
            gg = p2t + al2
            x = PI * (al * xg + np.sqrt(np.maximum(
                al2 * xg * xg - gg * (g2 - p2t), 0.0))) / gg
            x = np.where(lam < 0.0, -x, x)
            yv = np.abs(x / PI)
            yv = 1.0 - yv * (yv + 2.0 * al)
            badi = yv < -TOL
            yv = np.where(yv < 0.0, 0.0, yv)
            y = np.sqrt(yv) * np.where(phi < 0.0, -PI, PI)
        x_m = np.zeros_like(x)
        y_m = PI * np.tan(0.5 * np.arcsin(np.clip(p2, -1, 1)))
        y_m = np.where(phi < 0.0, -y_m, y_m)
        x = np.where(eq, lam, np.where(merid, x_m, x))
        y = np.where(eq, 0.0, np.where(merid, y_m, y))
        bad = bad | (~eq & ~merid & badi)
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x2 = x * x
        ay = np.abs(y)
        on_eq = ay < TOL
        y2 = y * y
        r = x2 + y2
        r2 = r * r
        c1 = -PI * ay * (r + PISQ)
        c3 = r2 + 2.0 * PI * (ay * r + PI * (y2 + PI * (ay + HALFPI)))
        c2 = c1 + PISQ * (r - 3.0 * y2)
        c0 = PI * ay
        c2 = c2 / c3
        al = c1 / c3 - THIRD * c2 * c2
        with np.errstate(invalid="ignore", divide="ignore"):
            m = 2.0 * np.sqrt(np.maximum(-THIRD * al, 0.0))
            d = C2_27 * c2 * c2 * c2 + (c0 * c0 - THIRD * c2 * c1) / c3
            d = 3.0 * d / (al * m)
            t = np.abs(d)
            bad = ~on_eq & ((t - TOL) > 1.0)
            dd = np.where(t > 1.0, np.where(d > 0.0, 0.0, PI),
                          np.arccos(np.clip(d, -1.0, 1.0)))
            phi = PI * (m * np.cos(dd * THIRD + PI4_3) - THIRD * c2)
            phi = np.where(y < 0.0, -phi, phi)
            tt = r2 + TPISQ * (x2 - y2 + HPISQ)
            lam = np.where(np.abs(x) <= TOL, 0.0,
                           0.5 * (r - PISQ + np.sqrt(np.maximum(tt, 0.0))) / np.where(x == 0, 1.0, x))
        # equatorial fast path
        t_eq = x2 * x2 + TPISQ * (x2 + HPISQ)
        lam_eq = np.where(np.abs(x) <= TOL, 0.0,
                          0.5 * (x2 - PISQ + np.sqrt(t_eq)) / np.where(x == 0, 1.0, x))
        phi = np.where(on_eq, 0.0, phi)
        lam = np.where(on_eq, lam_eq, lam)
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


def _aitoff_family(P, mode, cosphi1):
    P.es = 0.0

    def _raw(lam, phi):
        c = 0.5 * lam
        D = np.arccos(np.clip(np.cos(phi) * np.cos(c), -1.0, 1.0))
        nz = D != 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            invsin = 1.0 / np.where(nz, np.sin(D), 1.0)
            x = 2.0 * D * np.cos(phi) * np.sin(c) * invsin
            y = invsin * D * np.sin(phi)
        x = np.where(nz, x, 0.0)
        y = np.where(nz, y, 0.0)
        if mode:
            x = (x + lam * cosphi1) * 0.5
            y = (y + phi) * 0.5
        return x, y

    def fwd(lam, phi):
        return _raw(lam, phi)

    def inv(x, y):
        """Newton-Jacobian inverse (PJ_aitoff.c, Biklirici & Ipbüker)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        EPSILON = 1e-12
        phi = np.array(y, copy=True)
        lam = np.array(x, copy=True)
        origin = (np.abs(x) < EPSILON) & (np.abs(y) < EPSILON)
        for _round in range(20):
            for _it in range(11):
                sl = np.sin(lam * 0.5)
                cl = np.cos(lam * 0.5)
                sp = np.sin(phi)
                cp = np.cos(phi)
                D = cp * cl
                C = 1.0 - D * D
                with np.errstate(invalid="ignore", divide="ignore"):
                    D = np.arccos(np.clip(D, -1.0, 1.0)) / np.power(
                        np.where(C == 0, 1.0, C), 1.5)
                    f1 = 2.0 * D * C * cp * sl
                    f2 = D * C * sp
                    f1p = 2.0 * (sl * cl * sp * cp / C - D * sp * sl)
                    f1l = cp * cp * sl * sl / C + D * cp * cl * sp * sp
                    f2p = sp * sp * cl / C + D * sl * sl * cp
                    f2l = 0.5 * (sp * cp * sl / C - D * sp * cp * cp * sl * cl)
                if mode:
                    f1 = 0.5 * (f1 + lam * cosphi1)
                    f2 = 0.5 * (f2 + phi)
                    f1p = f1p * 0.5
                    f1l = 0.5 * (f1l + cosphi1)
                    f2p = 0.5 * (f2p + 1.0)
                    f2l = f2l * 0.5
                f1 = f1 - x
                f2 = f2 - y
                with np.errstate(invalid="ignore", divide="ignore"):
                    den = f1p * f2l - f2p * f1l
                    dl = (f2 * f1p - f1 * f2p) / np.where(den == 0, 1.0, den)
                    dp = (f1 * f2l - f2 * f1l) / np.where(den == 0, 1.0, den)
                dl = np.where(np.isfinite(dl), dl, 0.0)
                dp = np.where(np.isfinite(dp), dp, 0.0)
                while np.any(dl > PI):
                    dl = np.where(dl > PI, dl - PI, dl)
                while np.any(dl < -PI):
                    dl = np.where(dl < -PI, dl + PI, dl)
                phi = phi - dp
                lam = lam - dl
                if np.all((np.abs(dp) <= EPSILON) & (np.abs(dl) <= EPSILON)):
                    break
            phi = np.where(phi > HALFPI, phi - 2.0 * (phi - HALFPI), phi)
            phi = np.where(phi < -HALFPI, phi - 2.0 * (phi + HALFPI), phi)
            if not mode:
                lam = np.where(np.abs(np.abs(phi) - HALFPI) < EPSILON, 0.0, lam)
            xr, yr = _raw(lam, phi)
            if np.all((np.abs(x - xr) <= EPSILON) | origin):
                break
        lam = np.where(origin, 0.0, lam)
        phi = np.where(origin, 0.0, phi)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("aitoff")
def setup_aitoff(P):
    _aitoff_family(P, False, 1.0)


@register("wintri")
def setup_wintri(P):
    if P.param_t("lat_1"):
        cosphi1 = float(np.cos(P.param_r("lat_1")))
        if cosphi1 == 0.0:
            raise ValueError("wintri: |lat_1| = 90 (-22)")
    else:
        cosphi1 = 0.636619772367581343  # acos(2/pi)
    _aitoff_family(P, True, cosphi1)


@register("wag2")
def setup_wag2(P):
    P.es = 0.0
    C_x, C_y, C_p1, C_p2 = 0.92483, 1.38725, 0.88022, 0.88550

    def fwd(lam, phi):
        th = aasin(C_p1 * np.sin(C_p2 * phi))
        return C_x * lam * np.cos(th), C_y * th

    def inv(x, y):
        th = y / C_y
        lam = x / (C_x * np.cos(th))
        phi = aasin(np.sin(th) / C_p1) / C_p2
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("wag3")
def setup_wag3(P):
    P.es = 0.0
    ts = P.param_r("lat_ts") if P.param_t("lat_ts") else 0.0
    TWOTHIRD = 0.6666666666666666666667
    C_x = float(np.cos(ts) / np.cos(2.0 * ts / 3.0))

    def fwd(lam, phi):
        return C_x * lam * np.cos(TWOTHIRD * phi), phi

    def inv(x, y):
        return x / (C_x * np.cos(TWOTHIRD * y)), y

    P.fwd = fwd
    P.inv = inv


@register("boggs")
def setup_boggs(P):
    P.es = 0.0
    FXC, FXC2, FYC, FYC2 = 2.00276, 1.11072, 0.49931, 1.41421356237309504880

    def fwd(lam, phi):
        at_pole = np.abs(np.abs(phi) - HALFPI) < 1e-7
        theta = np.array(phi, dtype=np.float64, copy=True)
        c = np.sin(theta) * PI
        theta = iterate_lanes(theta_step, theta, (c,), 20, np.isfinite(theta) & ~at_pole)[0]
        theta = theta * 0.5
        with np.errstate(invalid="ignore", divide="ignore"):
            x = FXC * lam / (1.0 / np.cos(phi) + FXC2 / np.cos(theta))
        x = np.where(at_pole, 0.0, x)
        y = FYC * (phi + FYC2 * np.sin(theta))
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("august")
def setup_august(P):
    P.es = 0.0
    M = 1.333333333333333

    def fwd(lam, phi):
        t = np.tan(0.5 * phi)
        c1 = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        lam_h = lam * 0.5
        c = 1.0 + c1 * np.cos(lam_h)
        x1 = np.sin(lam_h) * c1 / c
        y1 = t / c
        x12 = x1 * x1
        y12 = y1 * y1
        return M * x1 * (3.0 + x12 - 3.0 * y12), M * y1 * (3.0 + 3.0 * x12 - y12)

    P.fwd = fwd
    P.inv = _no_inverse


@register("denoy")
def setup_denoy(P):
    P.es = 0.0
    C0, C1, C3 = 0.95, -0.08333333333333333333, 0.00166666666666666666
    D1, D5 = 0.9, 0.03

    def fwd(lam, phi):
        al = np.abs(lam)
        x = lam * np.cos((C0 + al * (C1 + al * al * C3))
                         * (phi * (D1 + D5 * phi * phi * phi * phi)))
        return x, phi

    P.fwd = fwd
    P.inv = _no_inverse


@register("gins8")
def setup_gins8(P):
    P.es = 0.0
    Cl, Cp, C12 = 0.000952426, 0.162388, 0.08333333333333333

    def fwd(lam, phi):
        t = phi * phi
        y = phi * (1.0 + t * C12)
        x = lam * (1.0 - Cp * t)
        t2 = lam * lam
        return x * (0.87 - Cl * t2 * t2), y

    P.fwd = fwd
    P.inv = _no_inverse


@register("larr")
def setup_larr(P):
    P.es = 0.0
    SIXTH = 0.16666666666666666

    def fwd(lam, phi):
        x = 0.5 * lam * (1.0 + np.sqrt(np.cos(phi)))
        y = phi / (np.cos(0.5 * phi) * np.cos(SIXTH * lam))
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("lask")
def setup_lask(P):
    P.es = 0.0
    a10, a12, a32, a14 = 0.975534, -0.119161, -0.0143059, -0.0547009
    b01, b21, b03 = 1.00384, 0.0802894, 0.0998909
    b41, b23, b05 = 0.000199025, -0.0285500, -0.0491032

    def fwd(lam, phi):
        l2 = lam * lam
        p2 = phi * phi
        x = lam * (a10 + p2 * (a12 + l2 * a32 + p2 * a14))
        y = phi * (b01 + l2 * (b21 + p2 * b23 + l2 * b41) + p2 * (b03 + p2 * b05))
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


@register("tcc")
def setup_tcc(P):
    P.es = 0.0
    EPS10 = 1e-10

    def fwd(lam, phi):
        b = np.cos(phi) * np.sin(lam)
        bt = 1.0 - b * b
        bad = bt < EPS10
        with np.errstate(invalid="ignore", divide="ignore"):
            x = b / np.sqrt(np.where(bad, 1.0, bt))
            y = np.arctan2(np.tan(phi), np.cos(lam))
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    P.fwd = fwd
    P.inv = _no_inverse


@register("tcea")
def setup_tcea(P):
    # src/PJ_tcea.c (spherical)
    P.es = 0.0
    rk0 = 1.0 / P.k0
    k0 = P.k0

    def fwd(lam, phi):
        return rk0 * np.cos(phi) * np.sin(lam), \
            k0 * (np.arctan2(np.tan(phi), np.cos(lam)) - P.phi0)

    def inv(x, y):
        yv = y * rk0 + P.phi0
        xv = x * k0
        t = np.sqrt(np.maximum(1.0 - xv * xv, 0.0))
        phi = np.arcsin(np.clip(t * np.sin(yv), -1.0, 1.0))
        lam = np.arctan2(xv, t * np.cos(yv))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("crast")
def setup_crast(P):
    P.es = 0.0
    XM, RXM = 0.97720502380583984317, 1.02332670794648848847
    YM, RYM = 3.06998012383946546542, 0.32573500793527994772
    THIRD = 0.333333333333333333

    def fwd(lam, phi):
        p3 = phi * THIRD
        return XM * lam * (2.0 * np.cos(p3 + p3) - 1.0), YM * np.sin(p3)

    def inv(x, y):
        phi = 3.0 * np.arcsin(np.clip(y * RYM, -1.0, 1.0))
        lam = x * RXM / (2.0 * np.cos((phi + phi) * THIRD) - 1.0)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("fahey")
def setup_fahey(P):
    P.es = 0.0

    def fwd(lam, phi):
        t = np.tan(0.5 * phi)
        y = 1.819152 * t
        x = 0.819152 * lam * asqrt(1.0 - t * t)
        return x, y

    def inv(x, y):
        yv = y / 1.819152
        phi = 2.0 * np.arctan(yv)
        t = 1.0 - yv * yv
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(np.abs(t) < 1e-6, 0.0, x / (0.819152 * np.sqrt(np.abs(t))))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("hatano")
def setup_hatano(P):
    P.es = 0.0
    CN, CS = 2.67595, 2.43763
    RCN, RCS = 0.37369906014686373063, 0.41023453108141924738
    FYCN, FYCS = 1.75859, 1.93052
    RYCN, RYCS = 0.56863737426006061674, 0.51799515156538134803
    FXC, RXC = 0.85, 1.17647058823529411764

    def fwd(lam, phi):
        c = np.sin(phi) * np.where(phi < 0.0, CS, CN)
        th = np.array(phi, dtype=np.float64, copy=True)
        th = iterate_lanes(theta_step, th, (c,), 20, np.isfinite(th))[0]
        th = th * 0.5
        x = FXC * lam * np.cos(th)
        y = np.sin(th) * np.where(th < 0.0, FYCS, FYCN)
        return x, y

    def inv(x, y):
        th = y * np.where(y < 0.0, RYCS, RYCN)
        bad = np.abs(th) > 1.000001
        th = np.where(np.abs(th) > 1.0, np.where(th > 0, HALFPI, -HALFPI),
                      np.arcsin(np.clip(th, -1.0, 1.0)))
        lam = RXC * x / np.cos(th)
        th = th + th
        phi = (th + np.sin(th)) * np.where(y < 0.0, RCS, RCN)
        bad = bad | (np.abs(phi) > 1.000001)
        phi = np.where(np.abs(phi) > 1.0, np.where(phi > 0, HALFPI, -HALFPI),
                       np.arcsin(np.clip(phi, -1.0, 1.0)))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("loxim")
def setup_loxim(P):
    P.es = 0.0
    EPS = 1e-8
    phi1 = P.param_r("lat_1")
    cosphi1 = float(np.cos(phi1))
    if cosphi1 < EPS:
        raise ValueError("loxim: |lat_1| ~ 90 (-22)")
    tanphi1 = float(np.tan(FORTPI + 0.5 * phi1))

    def fwd(lam, phi):
        y = phi - phi1
        small = np.abs(y) < EPS
        t = FORTPI + 0.5 * phi
        deg = (np.abs(t) < EPS) | (np.abs(np.abs(t) - HALFPI) < EPS)
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.where(deg, 0.0, lam * y / np.log(np.tan(t) / tanphi1))
        x = np.where(small, lam * cosphi1, x)
        return x, y

    def inv(x, y):
        phi = y + phi1
        small = np.abs(y) < EPS
        t = FORTPI + 0.5 * phi
        deg = (np.abs(t) < EPS) | (np.abs(np.abs(t) - HALFPI) < EPS)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(deg, 0.0, x * np.log(np.tan(t) / tanphi1) / np.where(y == 0, 1.0, y))
        lam = np.where(small, x / cosphi1, lam)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("nell_h")
def setup_nell_h(P):
    P.es = 0.0

    def fwd(lam, phi):
        return 0.5 * lam * (1.0 + np.cos(phi)), 2.0 * (phi - np.tan(0.5 * phi))

    def step(ph, p):
        c = np.cos(0.5 * ph)
        V = (ph - np.tan(ph / 2) - p) / (1.0 - 0.5 / (c * c))
        return ph - V, np.abs(V) < 1e-7

    def inv(x, y):
        p = 0.5 * y
        phi = np.zeros_like(np.asarray(y, dtype=np.float64))
        phi, converged = iterate_lanes(step, phi, (p,), 9, np.isfinite(phi))
        phi = np.where(converged, phi, np.where(p < 0.0, -HALFPI, HALFPI))
        lam = np.where(converged, 2.0 * x / (1.0 + np.cos(phi)), 2.0 * x)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("mbt_fps")
def setup_mbt_fps(P):
    P.es = 0.0
    C1, C2, C3 = 0.45503, 1.36509, 1.41546
    C_x, C_y = 0.22248, 1.44492
    C1_2 = 0.33333333333333333333333333

    def step(t0, k):
        t = t0 / C2
        V = (C1 * np.sin(t) + np.sin(t0) - k) / (C1_2 * np.cos(t) + np.cos(t0))
        return t0 - V, np.abs(V) < 1e-7

    def fwd(lam, phi):
        k = C3 * np.sin(phi)
        th = np.array(phi, dtype=np.float64, copy=True)
        th = iterate_lanes(step, th, (k,), 10, np.isfinite(th))[0]
        t = th / C2
        return C_x * lam * (1.0 + 3.0 * np.cos(th) / np.cos(t)), C_y * np.sin(t)

    def inv(x, y):
        t = aasin(y / C_y)
        phi = C2 * t
        lam = x / (C_x * (1.0 + 3.0 * np.cos(phi) / np.cos(t)))
        phi = aasin((C1 * np.sin(t) + np.sin(phi)) / C3)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("mbtfpp")
def setup_mbtfpp(P):
    P.es = 0.0
    CS = 0.95257934441568037152
    FXC = 0.92582009977255146156
    FYC = 3.40168025708304504493
    C23, C13 = 0.66666666666666666666, 0.33333333333333333333

    def fwd(lam, phi):
        th = np.arcsin(np.clip(CS * np.sin(phi), -1.0, 1.0))
        return FXC * lam * (2.0 * np.cos(C23 * th) - 1.0), FYC * np.sin(C13 * th)

    def inv(x, y):
        phi = y / FYC
        bad = np.abs(phi) > 1.0000001
        phi = np.where(np.abs(phi) >= 1.0,
                       np.where(phi < 0.0, -HALFPI, HALFPI),
                       np.arcsin(np.clip(phi, -1.0, 1.0)))
        phi3 = phi * 3.0
        lam = x / (FXC * (2.0 * np.cos(C23 * phi3) - 1.0))
        val = np.sin(phi3) / CS
        bad = bad | (np.abs(val) > 1.0000001)
        phi = np.where(np.abs(val) >= 1.0,
                       np.where(val < 0.0, -HALFPI, HALFPI),
                       np.arcsin(np.clip(val, -1.0, 1.0)))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("mbtfpq")
def setup_mbtfpq(P):
    P.es = 0.0
    C, RC = 1.70710678118654752440, 0.58578643762690495119
    FYC, RYC = 1.87475828462269495505, 0.53340209679417701685
    FXC, RXC = 0.31245971410378249250, 3.20041258076506210122

    def step(t, c):
        th1 = (np.sin(0.5 * t) + np.sin(t) - c) / (0.5 * np.cos(0.5 * t) + np.cos(t))
        return t - th1, np.abs(th1) < 1e-7

    def fwd(lam, phi):
        c = C * np.sin(phi)
        th = np.array(phi, dtype=np.float64, copy=True)
        th = iterate_lanes(step, th, (c,), 20, np.isfinite(th))[0]
        return FXC * lam * (1.0 + 2.0 * np.cos(th) / np.cos(0.5 * th)), \
            FYC * np.sin(0.5 * th)

    def inv(x, y):
        val = RYC * y
        bad = np.abs(val) > 1.000001
        t = np.where(np.abs(val) > 1.0, np.sign(val), val)
        phi = np.where(np.abs(val) > 1.0, np.where(val < 0, -PI, PI),
                       2.0 * np.arcsin(np.clip(val, -1.0, 1.0)))
        lam = RXC * x / (1.0 + 2.0 * np.cos(phi) / np.cos(0.5 * phi))
        val2 = RC * (t + np.sin(phi))
        bad = bad | (np.abs(val2) > 1.000001)
        phi = np.where(np.abs(val2) > 1.0, np.where(val2 < 0, -HALFPI, HALFPI),
                       np.arcsin(np.clip(val2, -1.0, 1.0)))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("natearth")
def setup_natearth(P):
    P.es = 0.0
    A0, A1, A2, A3, A4 = 0.8707, -0.131979, -0.013791, 0.003971, -0.001529
    B0, B1, B2, B3, B4 = 1.007226, 0.015085, -0.044475, 0.028874, -0.005916
    C0, C1, C2, C3, C4 = B0, 3 * B1, 7 * B2, 9 * B3, 11 * B4
    MAX_Y = 0.8707 * 0.52 * PI

    def fwd(lam, phi):
        phi2 = phi * phi
        phi4 = phi2 * phi2
        x = lam * (A0 + phi2 * (A1 + phi2 * (A2 + phi4 * phi2 * (A3 + phi2 * A4))))
        y = phi * (B0 + phi2 * (B1 + phi4 * (B2 + B3 * phi2 + B4 * phi4)))
        return x, y

    def inv(x, y):
        y = np.clip(np.asarray(y, dtype=np.float64), -MAX_Y, MAX_Y)
        yc = np.array(y, copy=True)
        for _ in range(100):
            y2 = yc * yc
            y4 = y2 * y2
            f = yc * (B0 + y2 * (B1 + y4 * (B2 + B3 * y2 + B4 * y4))) - y
            fder = C0 + y2 * (C1 + y4 * (C2 + C3 * y2 + C4 * y4))
            dy = f / fder
            yc = yc - dy
            if np.all(np.abs(dy) < 1e-11):
                break
        phi = yc
        y2 = phi * phi
        lam = x / (A0 + y2 * (A1 + y2 * (A2 + y2 * y2 * y2 * (A3 + y2 * A4))))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("urm5")
def setup_urm5(P):
    P.es = 0.0
    n = P.param_f("n")
    q3 = P.param_f("q") / 3.0
    alpha = P.param_r("alpha")
    t = n * np.sin(alpha)
    m = float(np.cos(alpha) / np.sqrt(1.0 - t * t))
    # C float division: n = 0 (param absent) yields inf, not a raise
    rmn = float(np.float64(1.0) / np.float64(m * n))

    def fwd(lam, phi):
        th = aasin(n * np.sin(phi))
        x = m * lam * np.cos(th)
        t2 = th * th
        y = th * (1.0 + t2 * q3) * rmn
        return x, y

    P.fwd = fwd
    P.inv = _no_inverse


def _urmfps_setup(P, n):
    P.es = 0.0
    C_x = 0.8773826753
    C_y = 1.139753528477 / n

    def fwd(lam, phi):
        th = aasin(n * np.sin(phi))
        return C_x * lam * np.cos(th), C_y * th

    def inv(x, y):
        yv = y / C_y
        phi = aasin(np.sin(yv) / n)
        lam = x / (C_x * np.cos(yv))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("urmfps")
def setup_urmfps(P):
    if not P.param_t("n"):
        raise ValueError("urmfps: n required (-40)")
    n = P.param_f("n")
    if n <= 0.0 or n > 1.0:
        raise ValueError("urmfps: n outside (0,1] (-40)")
    _urmfps_setup(P, n)


@register("wag1")
def setup_wag1(P):
    _urmfps_setup(P, 0.8660254037844386467637231707)
