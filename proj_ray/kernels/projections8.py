"""Projection kernels, wave 8: geos, tpeqd, nzmg (+ complex polynomial).

Reference parity:
- geos (geostationary satellite view, sweep x/y, sph+ell)
                            <- src/PJ_geos.c
- tpeqd (two point equidistant) <- src/PJ_tpeqd.c
- nzmg (New Zealand Map Grid, 6th-order complex polynomial with
  Newton inverse)            <- src/PJ_nzmg.c + src/pj_zpoly1.c
"""

from __future__ import annotations

import numpy as np

from .common import DEG_TO_RAD, HALFPI, HUGE, aacos, aasin, adjlon, asqrt
from .projections import register


@register("geos")
def setup_geos(P):
    h = P.param_f("h")
    if h <= 0.0:
        raise ValueError("geos: h <= 0 (-30)")
    if P.phi0:
        raise ValueError("geos: lat_0 must be 0 (-46)")
    sweep = P.param_s("sweep")
    if sweep is None:
        flip_axis = False
    else:
        if len(sweep) != 1 or sweep not in ("x", "y"):
            raise ValueError("geos: bad sweep (-49)")
        flip_axis = sweep == "x"
    radius_g_1 = h / P.a
    radius_g = 1.0 + radius_g_1
    C = radius_g * radius_g - 1.0
    es = P.es
    if es:
        radius_p = np.sqrt(P.one_es)
        radius_p2 = P.one_es
        radius_p_inv2 = P.rone_es

        def fwd(lam, phi):
            phi_c = np.arctan(radius_p2 * np.tan(phi))
            r = radius_p / np.hypot(radius_p * np.cos(phi_c), np.sin(phi_c))
            Vx = r * np.cos(lam) * np.cos(phi_c)
            Vy = r * np.sin(lam) * np.cos(phi_c)
            Vz = r * np.sin(phi_c)
            bad = ((radius_g - Vx) * Vx - Vy * Vy - Vz * Vz * radius_p_inv2) < 0.0
            tmp = radius_g - Vx
            if flip_axis:
                x = radius_g_1 * np.arctan(Vy / np.hypot(Vz, tmp))
                y = radius_g_1 * np.arctan(Vz / tmp)
            else:
                x = radius_g_1 * np.arctan(Vy / tmp)
                y = radius_g_1 * np.arctan(Vz / np.hypot(Vy, tmp))
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            Vx = -1.0
            with np.errstate(invalid="ignore"):
                if flip_axis:
                    Vz = np.tan(y / radius_g_1)
                    Vy = np.tan(x / radius_g_1) * np.hypot(1.0, Vz)
                else:
                    Vy = np.tan(x / radius_g_1)
                    Vz = np.tan(y / radius_g_1) * np.hypot(1.0, Vy)
            a = Vz / radius_p
            a = Vy * Vy + a * a + Vx * Vx
            b = 2.0 * radius_g * Vx
            det = b * b - 4.0 * a * C
            bad = det < 0.0
            k = (-b - np.sqrt(np.maximum(det, 0.0))) / (2.0 * a)
            Vx2 = radius_g + k * Vx
            Vy2 = Vy * k
            Vz2 = Vz * k
            lam = np.arctan2(Vy2, Vx2)
            phi = np.arctan(Vz2 * np.cos(lam) / Vx2)
            phi = np.arctan(radius_p_inv2 * np.tan(phi))
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    else:

        def fwd(lam, phi):
            tmp = np.cos(phi)
            Vx = np.cos(lam) * tmp
            Vy = np.sin(lam) * tmp
            Vz = np.sin(phi)
            bad = ((radius_g - Vx) * Vx - Vy * Vy - Vz * Vz) < 0.0
            tmp2 = radius_g - Vx
            if flip_axis:
                x = radius_g_1 * np.arctan(Vy / np.hypot(Vz, tmp2))
                y = radius_g_1 * np.arctan(Vz / tmp2)
            else:
                x = radius_g_1 * np.arctan(Vy / tmp2)
                y = radius_g_1 * np.arctan(Vz / np.hypot(Vy, tmp2))
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

        def inv(x, y):
            Vx = -1.0
            with np.errstate(invalid="ignore"):
                if flip_axis:
                    Vz = np.tan(y / (radius_g - 1.0))
                    Vy = np.tan(x / (radius_g - 1.0)) * np.sqrt(1.0 + Vz * Vz)
                else:
                    Vy = np.tan(x / (radius_g - 1.0))
                    Vz = np.tan(y / (radius_g - 1.0)) * np.sqrt(1.0 + Vy * Vy)
            a = Vy * Vy + Vz * Vz + Vx * Vx
            b = 2.0 * radius_g * Vx
            det = b * b - 4.0 * a * C
            bad = det < 0.0
            k = (-b - np.sqrt(np.maximum(det, 0.0))) / (2.0 * a)
            Vx2 = radius_g + k * Vx
            Vy2 = Vy * k
            Vz2 = Vz * k
            lam = np.arctan2(Vy2, Vx2)
            phi = np.arctan(Vz2 * np.cos(lam) / Vx2)
            return np.where(bad, HUGE, lam), np.where(bad, HUGE, phi)

    P.fwd = fwd
    P.inv = inv


@register("tpeqd")
def setup_tpeqd(P):
    phi_1 = P.param_r("lat_1")
    lam_1 = P.param_r("lon_1")
    phi_2 = P.param_r("lat_2")
    lam_2 = P.param_r("lon_2")
    if phi_1 == phi_2 and lam_1 == lam_2:
        raise ValueError("tpeqd: identical control points (-25)")
    P.lam0 = float(adjlon(np.float64(0.5 * (lam_1 + lam_2))))
    dlam2 = float(adjlon(np.float64(lam_2 - lam_1)))
    cp1, cp2 = np.cos(phi_1), np.cos(phi_2)
    sp1, sp2 = np.sin(phi_1), np.sin(phi_2)
    cs = cp1 * sp2
    sc = sp1 * cp2
    ccs = cp1 * cp2 * np.sin(dlam2)
    z02 = float(aacos(sp1 * sp2 + cp1 * cp2 * np.cos(dlam2)))
    hz0 = 0.5 * z02
    A12 = np.arctan2(cp2 * np.sin(dlam2), cp1 * sp2 - sp1 * cp2 * np.cos(dlam2))
    pp = float(aasin(cp1 * np.sin(A12)))
    ca, sa = np.cos(pp), np.sin(pp)
    lp_ = float(adjlon(np.float64(np.arctan2(cp1 * np.cos(A12), sp1) - hz0)))
    dlam2 *= 0.5
    lamc = HALFPI - np.arctan2(np.sin(A12) * sp1, np.cos(A12)) - dlam2
    thz0 = np.tan(hz0)
    rhshz0 = 0.5 / np.sin(hz0)
    r2z0 = 0.5 / z02
    z02 = z02 * z02
    P.es = 0.0

    def fwd(lam, phi):
        sp = np.sin(phi)
        cp = np.cos(phi)
        dl1 = lam + dlam2
        dl2 = lam - dlam2
        z1 = aacos(sp1 * sp + cp1 * cp * np.cos(dl1))
        z2 = aacos(sp2 * sp + cp2 * cp * np.cos(dl2))
        z1 = z1 * z1
        z2 = z2 * z2
        t = z1 - z2
        x = r2z0 * t
        t = z02 - t
        y = r2z0 * asqrt(4.0 * z02 * z2 - t * t)
        y = np.where((ccs * sp - cp * (cs * np.sin(dl1) - sc * np.sin(dl2))) < 0.0,
                     -y, y)
        return x, y

    def inv(x, y):
        cz1 = np.cos(np.hypot(y, x + hz0))
        cz2 = np.cos(np.hypot(y, x - hz0))
        s = cz1 + cz2
        d = cz1 - cz2
        lam = -np.arctan2(d, s * thz0)
        phi = aacos(np.hypot(thz0 * s, d) * rhshz0)
        phi = np.where(y < 0.0, -phi, phi)
        sp = np.sin(phi)
        cp = np.cos(phi)
        lam = lam - lp_
        s2 = np.cos(lam)
        phi_o = aasin(sa * sp + ca * cp * s2)
        lam_o = np.arctan2(cp * np.sin(lam), sa * cp * s2 - ca * sp) + lamc
        return lam_o, phi_o

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# nzmg + complex polynomial helpers (pj_zpoly1 / pj_zpolyd1)
# ---------------------------------------------------------------------------

_NZMG_BF = np.array([
    0.7557853228 + 0.0j,
    0.249204646 + 0.003371507j,
    -0.001541739 + 0.041058560j,
    -0.10162907 + 0.01727609j,
    -0.26623489 - 0.36249218j,
    -0.6870983 - 1.1651967j,
])
_NZMG_TPHI = np.array([1.5627014243, 0.5185406398, -0.03333098, -0.1052906,
                       -0.0368594, 0.007317, 0.01220, 0.00394, -0.0013])
_NZMG_TPSI = np.array([0.6399175073, -0.1358797613, 0.063294409, -0.02526853,
                       0.0117879, -0.0055161, 0.0026906, -0.001333, 0.00067,
                       -0.00034])


def zpoly1(z, C):
    """Complex polynomial z*(C1 + z*(C2 + ...)) (pj_zpoly1; C are C_1..C_n)."""
    a = np.full_like(z, C[-1])
    for c in C[-2::-1]:
        a = c + z * a
    return z * a


def zpolyd1(z, C):
    """(value, derivative) of zpoly1 (pj_zpolyd1)."""
    a = np.full_like(z, C[-1])
    b = np.zeros_like(z)
    first = True
    for c in C[-2::-1]:
        if first:
            first = False
            b = a.copy()
        else:
            b = a + z * b
        a = c + z * a
    b = a + z * b
    a = z * a
    return a, b


@register("nzmg")
def setup_nzmg(P):
    # fixed International ellipsoid + NZ origin (PJ_nzmg.c entry)
    P.a = 6378388.0
    P.ra = 1.0 / P.a
    P.lam0 = DEG_TO_RAD * 173.0
    P.phi0 = DEG_TO_RAD * -41.0
    P.x0 = 2510000.0
    P.y0 = 6023150.0
    RAD_TO_SEC5 = 2.062648062470963551564733573
    SEC5_TO_RAD = 0.4848136811095359935899141023
    phi0 = P.phi0

    def fwd(lam, phi):
        dphi = (phi - phi0) * RAD_TO_SEC5
        pr = np.full_like(dphi, _NZMG_TPSI[-1])
        for c in _NZMG_TPSI[-2::-1]:
            pr = c + dphi * pr
        pr = pr * dphi
        z = pr + 1j * lam
        p = zpoly1(z, _NZMG_BF)
        return p.imag, p.real

    def inv(x, y):
        p = np.asarray(y, dtype=np.float64) + 1j * np.asarray(x, dtype=np.float64)
        target = p.copy()
        converged = np.zeros(p.shape, dtype=bool)
        for _ in range(20):
            f, fp = zpolyd1(p, _NZMG_BF)
            f = f - target
            den = fp.real * fp.real + fp.imag * fp.imag
            dr = -(f.real * fp.real + f.imag * fp.imag) / den
            di = -(f.imag * fp.real - f.real * fp.imag) / den
            p = p + dr + 1j * di
            done = (np.abs(dr) + np.abs(di)) <= 1e-10
            converged |= done
            if np.all(done):
                break
        lam = p.imag
        phi = np.full_like(p.real, _NZMG_TPHI[-1])
        for c in _NZMG_TPHI[-2::-1]:
            phi = c + p.real * phi
        phi = phi0 + p.real * phi * SEC5_TO_RAD
        lam = np.where(converged, lam, HUGE)
        phi = np.where(converged, phi, HUGE)
        return lam, phi

    P.fwd = fwd
    P.inv = inv
