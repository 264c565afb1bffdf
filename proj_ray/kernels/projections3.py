"""Projection kernels, wave 3: Gaussian-sphere stereographic, conics,
Robinson table, pseudocylindrical extras.

Reference parity:
- gauss / inv_gauss helpers  <- src/pj_gauss.c:47-94
- sterea                     <- src/PJ_sterea.c:40-95
- eqdc                       <- src/PJ_eqdc.c:28-130
- robin (5-degree spline table, Newton inverse) <- src/PJ_robin.c
- eck4                       <- src/PJ_eck4.c
- gall                       <- src/PJ_gall.c
- hammer                     <- src/PJ_hammer.c
- wink1 / eck5 / eck1-3      <- src/PJ_wink1.c, src/PJ_eck5.c, ...
"""

from __future__ import annotations

import numpy as np

from .common import (
    FORTPI,
    HALFPI,
    HUGE,
    PI,
    RAD_TO_DEG,
    aasin,
    enfn,
    inv_mlfn,
    iterate_lanes,
    mlfn,
    msfn,
)
from .projections import EPS10, register


# ---------------------------------------------------------------------------
# Gaussian sphere mapping (src/pj_gauss.c)
# ---------------------------------------------------------------------------

class Gauss:
    def __init__(self, e, phi0):
        es = e * e
        self.e = e
        sphi = np.sin(phi0)
        cphi2 = np.cos(phi0) ** 2
        self.rc = np.sqrt(1.0 - es) / (1.0 - es * sphi * sphi)
        self.C = np.sqrt(1.0 + es * cphi2 * cphi2 / (1.0 - es))
        self.chi = np.arcsin(sphi / self.C)
        self.ratexp = 0.5 * self.C * e
        self.K = np.tan(0.5 * self.chi + FORTPI) / (
            np.tan(0.5 * phi0 + FORTPI) ** self.C
            * self._srat(e * sphi, self.ratexp))

    @staticmethod
    def _srat(esinp, expv):
        return np.power((1.0 - esinp) / (1.0 + esinp), expv)

    def fwd(self, lam, phi):
        sphi = 2.0 * np.arctan(
            self.K * np.power(np.tan(0.5 * phi + FORTPI), self.C)
            * self._srat(self.e * np.sin(phi), self.ratexp)) - HALFPI
        return self.C * lam, sphi

    def inv(self, slam, sphi):
        """Fixed-point iteration, DEL_TOL 1e-14, <=20 iters (pj_gauss.c:77-94)."""
        elam = slam / self.C
        num = np.power(np.tan(0.5 * sphi + FORTPI) / self.K, 1.0 / self.C)

        def step(phi, num):
            new = (2.0 * np.arctan(num * self._srat(
                self.e * np.sin(phi), -0.5 * self.e)) - HALFPI)
            return new, np.abs(new - phi) < 1e-14

        phi_s = np.array(sphi, dtype=np.float64, copy=True)
        return elam, iterate_lanes(step, phi_s, (num,), 20, np.isfinite(phi_s))[0]


@register("sterea")
def setup_sterea(P):
    g = Gauss(P.e, P.phi0)
    phic0 = float(g.chi)
    sinc0 = float(np.sin(phic0))
    cosc0 = float(np.cos(phic0))
    R2 = 2.0 * float(g.rc)
    k0 = P.k0

    def fwd(lam, phi):
        lam_g, phi_g = g.fwd(lam, phi)
        sinc = np.sin(phi_g)
        cosc = np.cos(phi_g)
        cosl = np.cos(lam_g)
        k = k0 * R2 / (1.0 + sinc0 * sinc + cosc0 * cosc * cosl)
        return k * cosc * np.sin(lam_g), k * (cosc0 * sinc - sinc0 * cosc * cosl)

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64) / k0
        y = np.asarray(y, dtype=np.float64) / k0
        rho = np.hypot(x, y)
        nz = rho != 0.0
        c = 2.0 * np.arctan2(rho, R2)
        sinc = np.sin(c)
        cosc = np.cos(c)
        with np.errstate(invalid="ignore", divide="ignore"):
            phi_g = np.where(
                nz,
                np.arcsin(np.clip(cosc * sinc0 + y * sinc * cosc0 / np.where(nz, rho, 1.0), -1, 1)),
                phic0)
            lam_g = np.where(nz, np.arctan2(x * sinc, rho * cosc0 * cosc - y * sinc0 * sinc), 0.0)
        return g.inv(lam_g, phi_g)

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# eqdc — Equidistant Conic (src/PJ_eqdc.c)
# ---------------------------------------------------------------------------

@register("eqdc")
def setup_eqdc(P):
    phi1 = P.param_r("lat_1")
    phi2 = P.param_r("lat_2")
    if abs(phi1 + phi2) < EPS10:
        raise ValueError("eqdc: lat_1 = -lat_2 (-21)")
    en = enfn(P.es)
    n = sinphi = np.sin(phi1)
    cosphi = np.cos(phi1)
    secant = abs(phi1 - phi2) >= EPS10
    ellips = P.es > 0.0
    if ellips:
        m1 = float(msfn(sinphi, cosphi, P.es))
        ml1 = float(mlfn(np.float64(phi1), sinphi, cosphi, en))
        if secant:
            sinphi2 = np.sin(phi2)
            n = (m1 - float(msfn(sinphi2, np.cos(phi2), P.es))) / (
                float(mlfn(np.float64(phi2), sinphi2, np.cos(phi2), en)) - ml1)
        c = ml1 + m1 / n
        rho0 = c - float(mlfn(np.float64(P.phi0), np.sin(P.phi0), np.cos(P.phi0), en))
    else:
        if secant:
            n = (cosphi - np.cos(phi2)) / (phi2 - phi1)
        c = phi1 + np.cos(phi1) / n
        rho0 = c - P.phi0
    n, c, rho0 = float(n), float(c), float(rho0)
    es = P.es

    def fwd(lam, phi):
        if ellips:
            rho = c - mlfn(phi, np.sin(phi), np.cos(phi), en)
        else:
            rho = c - phi
        lamn = lam * n
        return rho * np.sin(lamn), rho0 - rho * np.cos(lamn)

    def inv(x, y):
        y = rho0 - y
        rho = np.hypot(x, y)
        nz = rho != 0.0
        if n < 0.0:
            rho = -rho
            x = -x
            y = -y
        phi = c - rho
        if ellips:
            phi = inv_mlfn(phi, es, en)
        lam = np.arctan2(x, y) / n
        phi = np.where(nz, phi, np.where(n > 0.0, HALFPI, -HALFPI))
        lam = np.where(nz, lam, 0.0)
        return lam, phi

    def spc(lam, phi):
        """Analytic factors SPECIAL(fac) (src/PJ_eqdc.c:39-48):
        h = 1, k = n*(c - M(phi))/msfn(phi); convergence stays
        numeric (no IS_ANAL_CONV)."""
        from .factors import IS_ANAL_HK

        sinphi, cosphi = np.sin(phi), np.cos(phi)
        m = mlfn(phi, sinphi, cosphi, en) if ellips else phi
        k = n * (c - m) / msfn(sinphi, cosphi, es)
        return {"code": IS_ANAL_HK, "h": np.ones_like(k), "k": k}

    P.fwd = fwd
    P.inv = inv
    P.spc = spc


# ---------------------------------------------------------------------------
# robin — Robinson (src/PJ_robin.c 5-degree cubic table)
# ---------------------------------------------------------------------------

# the reference stores COEFS as float32 (struct COEFS {float c0..c3},
# src/PJ_robin.c:17-19); rounding through float32 is required for parity
_ROBIN_X = np.array([
    [1, 2.2199e-17, -7.15515e-05, 3.1103e-06],
    [0.9986, -0.000482243, -2.4897e-05, -1.3309e-06],
    [0.9954, -0.00083103, -4.48605e-05, -9.86701e-07],
    [0.99, -0.00135364, -5.9661e-05, 3.6777e-06],
    [0.9822, -0.00167442, -4.49547e-06, -5.72411e-06],
    [0.973, -0.00214868, -9.03571e-05, 1.8736e-08],
    [0.96, -0.00305085, -9.00761e-05, 1.64917e-06],
    [0.9427, -0.00382792, -6.53386e-05, -2.6154e-06],
    [0.9216, -0.00467746, -0.00010457, 4.81243e-06],
    [0.8962, -0.00536223, -3.23831e-05, -5.43432e-06],
    [0.8679, -0.00609363, -0.000113898, 3.32484e-06],
    [0.835, -0.00698325, -6.40253e-05, 9.34959e-07],
    [0.7986, -0.00755338, -5.00009e-05, 9.35324e-07],
    [0.7597, -0.00798324, -3.5971e-05, -2.27626e-06],
    [0.7186, -0.00851367, -7.01149e-05, -8.6303e-06],
    [0.6732, -0.00986209, -0.000199569, 1.91974e-05],
    [0.6213, -0.010418, 8.83923e-05, 6.24051e-06],
    [0.5722, -0.00906601, 0.000182, 6.24051e-06],
    [0.5322, -0.00677797, 0.000275608, 6.24051e-06],
], dtype=np.float32).astype(np.float64)
_ROBIN_Y = np.array([
    [-5.20417e-18, 0.0124, 1.21431e-18, -8.45284e-11],
    [0.062, 0.0124, -1.26793e-09, 4.22642e-10],
    [0.124, 0.0124, 5.07171e-09, -1.60604e-09],
    [0.186, 0.0123999, -1.90189e-08, 6.00152e-09],
    [0.248, 0.0124002, 7.10039e-08, -2.24e-08],
    [0.31, 0.0123992, -2.64997e-07, 8.35986e-08],
    [0.372, 0.0124029, 9.88983e-07, -3.11994e-07],
    [0.434, 0.0123893, -3.69093e-06, -4.35621e-07],
    [0.4958, 0.0123198, -1.02252e-05, -3.45523e-07],
    [0.5571, 0.0121916, -1.54081e-05, -5.82288e-07],
    [0.6176, 0.0119938, -2.41424e-05, -5.25327e-07],
    [0.6769, 0.011713, -3.20223e-05, -5.16405e-07],
    [0.7346, 0.0113541, -3.97684e-05, -6.09052e-07],
    [0.7903, 0.0109107, -4.89042e-05, -1.04739e-06],
    [0.8435, 0.0103431, -6.4615e-05, -1.40374e-09],
    [0.8936, 0.00969686, -6.4636e-05, -8.547e-06],
    [0.9394, 0.00840947, -0.000192841, -4.2106e-06],
    [0.9761, 0.00616527, -0.000256, -4.2106e-06],
    [1, 0.00328947, -0.000319159, -4.2106e-06],
], dtype=np.float32).astype(np.float64)


def _poly_v(C, z):
    return C[..., 0] + z * (C[..., 1] + z * (C[..., 2] + z * C[..., 3]))


def _poly_dv(C, z):
    return C[..., 1] + z * (C[..., 2] + C[..., 2] + z * 3.0 * C[..., 3])


@register("robin")
def setup_robin(P):
    P.es = 0.0
    FXC, FYC = 0.8487, 1.3523
    C1 = 11.45915590261646417544
    RC1 = 0.08726646259971647884
    NODES = 18

    def fwd(lam, phi):
        dphi = np.abs(phi)
        i = np.minimum(np.floor(dphi * C1).astype(np.int64), NODES - 1)
        i = np.maximum(i, 0)
        z = RAD_TO_DEG * (dphi - RC1 * i)
        x = _poly_v(_ROBIN_X[i], z) * FXC * lam
        y = _poly_v(_ROBIN_Y[i], z) * FYC
        y = np.where(phi < 0.0, -y, y)
        return x, y

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        lam = x / FXC
        aphi = np.abs(y / FYC)
        out_lam = np.empty_like(lam)
        out_phi = np.empty_like(aphi)
        hi = aphi >= 1.0
        bad = aphi > 1.000001
        out_phi[hi] = np.where(y[hi] < 0.0, -HALFPI, HALFPI)
        out_lam[hi] = lam[hi] / _ROBIN_X[NODES, 0]
        lo = ~hi
        if np.any(lo):
            av = aphi[lo]
            # locate the Y-table interval per element
            idx = np.searchsorted(_ROBIN_Y[:, 0], av, side="right") - 1
            idx = np.clip(idx, 0, NODES - 1)
            T0 = _ROBIN_Y[idx]
            t = 5.0 * (av - T0[:, 0]) / (_ROBIN_Y[idx + 1, 0] - T0[:, 0])
            Tc = T0.copy()
            # the reference's `T.c0 -= lp.phi` stores the subtraction
            # back into a float32 struct member (PJ_robin.c:16-18,102);
            # that single-precision round shifts the Newton root by up
            # to ~8e-7 deg near the pole — replicate it exactly
            Tc[:, 0] = (Tc[:, 0] - av).astype(np.float32)
            for _ in range(50):
                t1 = _poly_v(Tc, t) / _poly_dv(Tc, t)
                t = t - t1
                if np.all(np.abs(t1) < 1e-8):
                    break
            phi_v = (5.0 * idx + t) * (PI / 180.0)
            phi_v = np.where(y[lo] < 0.0, -phi_v, phi_v)
            out_phi[lo] = phi_v
            out_lam[lo] = lam[lo] / _poly_v(_ROBIN_X[idx], t)
        out_lam = np.where(bad, HUGE, out_lam)
        out_phi = np.where(bad, HUGE, out_phi)
        return out_lam, out_phi

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# eck4 / gall / hammer / wink1 / eck5 (simple spherical pseudocyl)
# ---------------------------------------------------------------------------

@register("eck4")
def setup_eck4(P):
    P.es = 0.0
    C_x = 0.42223820031577120149
    C_y = 1.32650042817700232218
    C_p = 3.57079632679489661922

    def step(t, p):
        c = np.cos(t)
        s = np.sin(t)
        V = (t + s * (c + 2.0) - p) / (1.0 + c * (c + 2.0) - s * s)
        return t - V, np.abs(V) < 1e-7

    def fwd(lam, phi):
        p = C_p * np.sin(phi)
        V = phi * phi
        th = phi * (0.895168 + V * (0.0218849 + V * 0.00826809))
        th = np.array(th, dtype=np.float64)
        th, converged = iterate_lanes(step, th, (p,), 6, np.isfinite(th))
        x = np.where(converged, C_x * lam * (1.0 + np.cos(th)), C_x * lam)
        y = np.where(converged, C_y * np.sin(th),
                     np.where(th < 0.0, -C_y, C_y))
        return x, y

    def inv(x, y):
        phi = aasin(y / C_y)
        c = np.cos(phi)
        lam = x / (C_x * (1.0 + c))
        phi = aasin((phi + np.sin(phi) * (c + 2.0)) / C_p)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


@register("gall")
def setup_gall(P):
    P.es = 0.0
    YF = 1.70710678118654752440
    XF = 0.70710678118654752440
    RYF = 0.58578643762690495119
    RXF = 1.41421356237309504880

    def fwd(lam, phi):
        return XF * lam, YF * np.tan(0.5 * phi)

    def inv(x, y):
        return RXF * x, 2.0 * np.arctan(y * RYF)

    P.fwd = fwd
    P.inv = inv


@register("hammer")
def setup_hammer(P):
    # src/PJ_hammer.c: W (default .5), M (default 1)
    P.es = 0.0
    W = P.param_f("W", 0.5) if P.param_t("W") else 0.5
    if W <= 0:
        raise ValueError("hammer: W <= 0 (-27)")
    M = P.param_f("M", 1.0) if P.param_t("M") else 1.0
    if M <= 0:
        raise ValueError("hammer: M <= 0 (-27)")
    rm = 1.0 / M
    M = M / W

    def fwd(lam, phi):
        cosphi = np.cos(phi)
        d = np.sqrt(2.0 / (1.0 + cosphi * np.cos(lam * W)))
        x = M * d * cosphi * np.sin(lam * W)
        y = rm * d * np.sin(phi)
        return x, y

    def inv(x, y):
        # src/PJ_hammer.c s_inverse (W=0.5, M=1 closed form)
        z = np.sqrt(np.maximum(1.0 - 0.25 * W * W * x * x - 0.25 * y * y, 0.0))
        zz = 2.0 * z * z - 1.0
        bad = np.abs(zz) < 1e-12
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.arctan2(W * x * z, zz) / W
            phi = np.arcsin(np.clip(z * y, -1.0, 1.0))
        return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("wink1")
def setup_wink1(P):
    P.es = 0.0
    cosphi1 = float(np.cos(P.param_r("lat_ts"))) if P.param_t("lat_ts") else 1.0

    def fwd(lam, phi):
        return 0.5 * lam * (cosphi1 + np.cos(phi)), phi

    def inv(x, y):
        return 2.0 * x / (cosphi1 + np.cos(y)), y

    P.fwd = fwd
    P.inv = inv


@register("eck5")
def setup_eck5(P):
    P.es = 0.0
    XF = 0.44101277172455148219
    RXF = 2.26750802723822639137
    YF = 0.88202554344910296438
    RYF = 1.13375401361911319568

    def fwd(lam, phi):
        return XF * (1.0 + np.cos(phi)) * lam, YF * phi

    def inv(x, y):
        phi = RYF * y
        return RXF * x / (1.0 + np.cos(phi)), phi

    P.fwd = fwd
    P.inv = inv
