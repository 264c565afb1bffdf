"""Geodetic <-> geocentric conversion + Helmert shifts (pure NumPy).

Replicates the reference's GeocentricInfo math:
- forward: src/geocent.c:148-205 (closed form)
- inverse: src/geocent.c:220-437 iterative method (Wenzel/IfE, genau 1e-12,
  <=30 iterations) — the variant the reference compiles
  (``USE_ITERATIVE_METHOD`` is defined at src/geocent.c:219)
- Helmert 3/7-param to/from WGS84: src/pj_transform.c:502-592
  (position-vector convention, params pre-scaled at parse time by
  src/pj_datum_set.c:131-147)

All functions honour the inf (HUGE_VAL) sentinel: non-finite lanes pass
through untouched (src/pj_transform.c:138-146).
"""

from __future__ import annotations

import numpy as np

from .common import HALFPI, HUGE, PI, iterate_lanes


def geodetic_to_geocentric(a: float, es: float, lam, phi, z):
    """(lam, phi, h) radians/meters -> (X, Y, Z) meters. src/geocent.c:148-205."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    ok = np.isfinite(lam) & np.isfinite(phi)

    # clamp slightly-out-of-range latitudes (src/geocent.c:180-190)
    lat = np.clip(phi, -1.001 * HALFPI, 1.001 * HALFPI)
    bad = (phi < -1.001 * HALFPI) | (phi > 1.001 * HALFPI)
    lat = np.clip(lat, -HALFPI, HALFPI)
    lon = np.where(lam > PI, lam - 2 * PI, lam)

    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    sin2 = sin_lat * sin_lat
    rn = a / np.sqrt(1.0 - es * sin2)
    X = (rn + z) * cos_lat * np.cos(lon)
    Y = (rn + z) * cos_lat * np.sin(lon)
    Z = (rn * (1.0 - es) + z) * sin_lat

    # lat error poisons x/y only; z stays (src/pj_transform.c:400-409)
    X = np.where(ok & ~bad, X, HUGE)
    Y = np.where(ok & ~bad, Y, HUGE)
    Z = np.where(ok & ~bad, Z, z)
    return X, Y, Z


def geocentric_to_geodetic(a: float, es: float, X, Y, Z):
    """(X, Y, Z) meters -> (lam, phi, h). Iterative, src/geocent.c:330-437."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    ok = np.isfinite(X) & np.isfinite(Y) & np.isfinite(Z)
    Xs = np.where(ok, X, 0.0)
    Ys = np.where(ok, Y, 0.0)
    Zs = np.where(ok, Z, 0.0)

    genau = 1.0e-12
    genau2 = genau * genau
    maxiter = 30

    P = np.sqrt(Xs * Xs + Ys * Ys)
    RR = np.sqrt(Xs * Xs + Ys * Ys + Zs * Zs)

    at_pole = (P / a) < genau
    at_center = at_pole & ((RR / a) < genau)
    with np.errstate(invalid="ignore", divide="ignore"):
        lon = np.where(at_pole, 0.0, np.arctan2(Ys, Xs))
        CT = np.where(RR == 0.0, 0.0, Zs / RR)  # sin of geocentric latitude
        ST = np.where(RR == 0.0, 0.0, P / RR)   # cos of geocentric latitude
    RX = 1.0 / np.sqrt(1.0 - es * (2.0 - es) * ST * ST)
    CPHI = ST * (1.0 - es) * RX
    SPHI = CT * RX
    height = np.zeros_like(P)

    def step(_h, cphi0, sphi0, st, ct, p, zz):
        RN = a / np.sqrt(1.0 - es * sphi0 * sphi0)
        h = p * cphi0 + zz * sphi0 - RN * (1.0 - es * sphi0 * sphi0)
        RK = es * RN / (RN + h)
        rx = 1.0 / np.sqrt(1.0 - RK * (2.0 - RK) * st * st)
        cphi = st * (1.0 - RK) * rx
        sphi = ct * rx
        sdphi = sphi * cphi0 - cphi * sphi0
        return (h, cphi, sphi), sdphi * sdphi <= genau2

    iterate_lanes(step, (height, CPHI, SPHI), (ST, CT, P, Zs), maxiter, ok)

    with np.errstate(invalid="ignore", divide="ignore"):
        lat = np.arctan(SPHI / np.abs(CPHI))

    b = a if es == 0.0 else a * np.sqrt(1.0 - es)
    lat = np.where(at_center, HALFPI, lat)
    height = np.where(at_center, -b, height)

    lon = np.where(ok, lon, HUGE)
    lat = np.where(ok, lat, HUGE)
    height = np.where(ok, height, Z)
    return lon, lat, height


def helmert_to_wgs84(params, X, Y, Z, seven: bool):
    """Apply 3/7-param shift toward WGS84. src/pj_transform.c:502-543.

    ``params`` are the pre-scaled datum_params (rotations already in
    radians, scale already 1+ppm*1e-6 — src/pj_datum_set.c:131-147).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    ok = np.isfinite(X)
    Dx, Dy, Dz = params[0], params[1], params[2]
    if not seven:
        Xo = X + Dx
        Yo = Y + Dy
        Zo = Z + Dz
    else:
        Rx, Ry, Rz, M = params[3], params[4], params[5], params[6]
        Xo = M * (X - Rz * Y + Ry * Z) + Dx
        Yo = M * (Rz * X + Y - Rx * Z) + Dy
        Zo = M * (-Ry * X + Rx * Y + Z) + Dz
    return np.where(ok, Xo, X), np.where(ok, Yo, Y), np.where(ok, Zo, Z)


def helmert_from_wgs84(params, X, Y, Z, seven: bool):
    """Inverse 3/7-param shift from WGS84. src/pj_transform.c:549-592."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    ok = np.isfinite(X)
    Dx, Dy, Dz = params[0], params[1], params[2]
    if not seven:
        Xo = X - Dx
        Yo = Y - Dy
        Zo = Z - Dz
    else:
        Rx, Ry, Rz, M = params[3], params[4], params[5], params[6]
        Xt = (X - Dx) / M
        Yt = (Y - Dy) / M
        Zt = (Z - Dz) / M
        Xo = Xt + Rz * Yt - Ry * Zt
        Yo = -Rz * Xt + Yt + Rx * Zt
        Zo = Ry * Xt - Rx * Yt + Zt
    return np.where(ok, Xo, X), np.where(ok, Yo, Y), np.where(ok, Zo, Z)
