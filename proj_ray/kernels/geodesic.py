"""Vectorized ellipsoidal geodesics (inverse / direct) + spherical helpers.

Serves the role of the reference's embedded Karney suite
(``geod_inverse`` / ``geod_direct``, src/geodesic.c:240-990, API
src/geodesic.h:223-396) used by the ``geod`` CLI and as the kNN
true-distance refine step.  ``geod_inverse`` / ``geod_direct`` are the
full Karney order-6 series solution (see ``karney.py``) — exact
everywhere including antipodal pairs.  The classic Vincenty iteration
is retained as ``vincenty_inverse`` (masked, vectorized; mm-accurate
away from the antipodes) for cross-validation.

``haversine`` (spherical law-of-haversines on the authalic radius) is
the cheap first-pass distance used for candidate pruning in kNN — and is
expressible in ANSI SQL, making it the oracle-checkable variant.
"""

from __future__ import annotations

import numpy as np

from .karney import geod_direct_karney, geod_inverse_karney

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
MEAN_RADIUS = 6371008.7714  # (2a+b)/3 for WGS84


def haversine(lon1, lat1, lon2, lat2, radius: float = MEAN_RADIUS):
    """Great-circle distance in meters (degrees in). SQL-expressible:
    2*R*asin(sqrt(sin^2(dlat/2) + cos(lat1)*cos(lat2)*sin^2(dlon/2)))."""
    lon1 = np.radians(np.asarray(lon1, dtype=np.float64))
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lon2 = np.radians(np.asarray(lon2, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    sdlat = np.sin((lat2 - lat1) * 0.5)
    sdlon = np.sin((lon2 - lon1) * 0.5)
    h = sdlat * sdlat + np.cos(lat1) * np.cos(lat2) * sdlon * sdlon
    return 2.0 * radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def geod_inverse(lon1, lat1, lon2, lat2, a: float = WGS84_A, f: float = WGS84_F):
    """Ellipsoidal geodesic inverse (Karney order-6 series, exact
    everywhere incl. antipodal). Degrees in; returns (s12_m, azi1_deg,
    azi2_deg, converged_mask) — the mask is all-True (Karney's bracketed
    Newton always converges); kept for API compatibility."""
    s12, azi1, azi2, _a12 = geod_inverse_karney(lon1, lat1, lon2, lat2, a, f)
    return s12, azi1, azi2, np.ones(s12.shape, dtype=bool)


def geod_direct(lon1, lat1, azi1_deg, s12, a: float = WGS84_A, f: float = WGS84_F):
    """Ellipsoidal geodesic direct (Karney series): start point +
    azimuth + distance -> (lon2, lat2, azi2). Degrees/meters."""
    return geod_direct_karney(lon1, lat1, azi1_deg, s12, a, f)


def vincenty_inverse(lon1, lat1, lon2, lat2, a: float = WGS84_A, f: float = WGS84_F):
    """Vectorized Vincenty inverse (legacy / cross-validation path).
    Degrees in; returns (s12_m, azi1_deg, azi2_deg, converged_mask) —
    non-convergent near-antipodal lanes fall back to haversine and are
    flagged False."""
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat1 = np.asarray(lat1, dtype=np.float64)
    lon2 = np.asarray(lon2, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    b = a * (1.0 - f)
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    L = np.radians(lon2 - lon1)
    U1 = np.arctan((1.0 - f) * np.tan(phi1))
    U2 = np.arctan((1.0 - f) * np.tan(phi2))
    sinU1, cosU1 = np.sin(U1), np.cos(U1)
    sinU2, cosU2 = np.sin(U2), np.cos(U2)

    lam = L.copy()
    active = np.isfinite(lam)
    sin_sigma = np.zeros_like(lam)
    cos_sigma = np.ones_like(lam)
    sigma = np.zeros_like(lam)
    sin_alpha = np.zeros_like(lam)
    cos_sq_alpha = np.ones_like(lam)
    cos2sm = np.zeros_like(lam)
    converged = np.zeros(lam.shape, dtype=bool)
    for _ in range(100):
        if not np.any(active):
            break
        i = np.flatnonzero(active)
        sl, cl = np.sin(lam[i]), np.cos(lam[i])
        ss = np.sqrt((cosU2[i] * sl) ** 2 + (cosU1[i] * sinU2[i] - sinU1[i] * cosU2[i] * cl) ** 2)
        cs = sinU1[i] * sinU2[i] + cosU1[i] * cosU2[i] * cl
        sg = np.arctan2(ss, cs)
        with np.errstate(divide="ignore", invalid="ignore"):
            sa = np.where(ss == 0.0, 0.0, cosU1[i] * cosU2[i] * sl / np.where(ss == 0, 1.0, ss))
        csa = 1.0 - sa * sa
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = np.where(csa == 0.0, 0.0, cs - 2.0 * sinU1[i] * sinU2[i] / np.where(csa == 0, 1.0, csa))
        C = f / 16.0 * csa * (4.0 + f * (4.0 - 3.0 * csa))
        lam_new = L[i] + (1.0 - C) * f * sa * (
            sg + C * ss * (c2 + C * cs * (-1.0 + 2.0 * c2 * c2)))
        dl = np.abs(lam_new - lam[i])
        lam[i] = lam_new
        sin_sigma[i] = ss
        cos_sigma[i] = cs
        sigma[i] = sg
        sin_alpha[i] = sa
        cos_sq_alpha[i] = csa
        cos2sm[i] = c2
        done = dl < 1e-12
        converged[i[done]] = True
        active[i[done]] = False

    u_sq = cos_sq_alpha * (a * a - b * b) / (b * b)
    A = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    B = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    dsigma = B * sin_sigma * (cos2sm + B / 4.0 * (
        cos_sigma * (-1.0 + 2.0 * cos2sm ** 2)
        - B / 6.0 * cos2sm * (-3.0 + 4.0 * sin_sigma ** 2) * (-3.0 + 4.0 * cos2sm ** 2)))
    s12 = b * A * (sigma - dsigma)
    sl, cl = np.sin(lam), np.cos(lam)
    azi1 = np.degrees(np.arctan2(cosU2 * sl, cosU1 * sinU2 - sinU1 * cosU2 * cl))
    azi2 = np.degrees(np.arctan2(cosU1 * sl, -sinU1 * cosU2 + cosU1 * sinU2 * cl))
    # coincident points
    coincident = (sin_sigma == 0.0) & converged
    s12 = np.where(coincident, 0.0, s12)
    # non-convergent (near antipodal): haversine fallback, flagged
    fb = ~converged & np.isfinite(L)
    if np.any(fb):
        s12 = np.where(fb, haversine(lon1, lat1, lon2, lat2), s12)
    return s12, azi1, azi2, converged


def vincenty_direct(lon1, lat1, azi1_deg, s12, a: float = WGS84_A, f: float = WGS84_F):
    """Vectorized Vincenty direct (legacy / cross-validation path)."""
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat1 = np.asarray(lat1, dtype=np.float64)
    alpha1 = np.radians(np.asarray(azi1_deg, dtype=np.float64))
    s = np.asarray(s12, dtype=np.float64)
    b = a * (1.0 - f)
    phi1 = np.radians(lat1)
    U1 = np.arctan((1.0 - f) * np.tan(phi1))
    sigma1 = np.arctan2(np.tan(U1), np.cos(alpha1))
    sin_alpha = np.cos(U1) * np.sin(alpha1)
    cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
    u_sq = cos_sq_alpha * (a * a - b * b) / (b * b)
    A = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    B = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    sigma = s / (b * A)
    for _ in range(100):
        cos2sm = np.cos(2.0 * sigma1 + sigma)
        ss, cs = np.sin(sigma), np.cos(sigma)
        dsigma = B * ss * (cos2sm + B / 4.0 * (
            cs * (-1.0 + 2.0 * cos2sm ** 2)
            - B / 6.0 * cos2sm * (-3.0 + 4.0 * ss ** 2) * (-3.0 + 4.0 * cos2sm ** 2)))
        sigma_new = s / (b * A) + dsigma
        if np.all(np.abs(sigma_new - sigma) < 1e-12):
            sigma = sigma_new
            break
        sigma = sigma_new
    ss, cs = np.sin(sigma), np.cos(sigma)
    cos2sm = np.cos(2.0 * sigma1 + sigma)
    sinU1, cosU1 = np.sin(U1), np.cos(U1)
    sa1, ca1 = np.sin(alpha1), np.cos(alpha1)
    tmp = sinU1 * ss - cosU1 * cs * ca1
    phi2 = np.arctan2(sinU1 * cs + cosU1 * ss * ca1,
                      (1.0 - f) * np.sqrt(sin_alpha ** 2 + tmp ** 2))
    lam = np.arctan2(ss * sa1, cosU1 * cs - sinU1 * ss * ca1)
    C = f / 16.0 * cos_sq_alpha * (4.0 + f * (4.0 - 3.0 * cos_sq_alpha))
    L = lam - (1.0 - C) * f * sin_alpha * (
        sigma + C * ss * (cos2sm + C * cs * (-1.0 + 2.0 * cos2sm ** 2)))
    lon2 = lon1 + np.degrees(L)
    lon2 = (lon2 + 540.0) % 360.0 - 180.0
    azi2 = np.degrees(np.arctan2(sin_alpha, -tmp))
    return lon2, np.degrees(phi2), azi2


def slerp_line(lon1, lat1, lon2, lat2, n_points: int):
    """Spherical great-circle interpolation (slerp) — an SQL-expressible
    line expansion (after geod -l line mode, src/geod.c:34-57): expands
    each pair into n_points rows.

    Returns (k, lon, lat) arrays of shape (N, n_points), degrees. The op
    sequence is kept trivially mirrorable in SQL (sin/cos/acos/atan2).
    """
    d2r = np.pi / 180.0
    r2d = 57.29577951308232
    lo1 = np.asarray(lon1, dtype=np.float64) * d2r
    la1 = np.asarray(lat1, dtype=np.float64) * d2r
    lo2 = np.asarray(lon2, dtype=np.float64) * d2r
    la2 = np.asarray(lat2, dtype=np.float64) * d2r
    x1 = np.cos(la1) * np.cos(lo1)
    y1 = np.cos(la1) * np.sin(lo1)
    z1 = np.sin(la1)
    x2 = np.cos(la2) * np.cos(lo2)
    y2 = np.cos(la2) * np.sin(lo2)
    z2 = np.sin(la2)
    dot = x1 * x2 + y1 * y2 + z1 * z2
    omega = np.arccos(np.minimum(np.maximum(dot, -1.0), 1.0))
    sino = np.sin(omega)
    lons = np.empty((lo1.size, n_points))
    lats = np.empty_like(lons)
    for k in range(n_points):
        f = k * (1.0 / (n_points - 1))
        safe = sino != 0.0
        a = np.where(safe, np.sin((1.0 - f) * omega) / np.where(safe, sino, 1.0), 1.0 - f)
        b = np.where(safe, np.sin(f * omega) / np.where(safe, sino, 1.0), f)
        vx = a * x1 + b * x2
        vy = a * y1 + b * y2
        vz = a * z1 + b * z2
        lons[:, k] = np.arctan2(vy, vx) * r2d
        lats[:, k] = np.arctan2(vz, np.sqrt(vx * vx + vy * vy)) * r2d
    return lons, lats
