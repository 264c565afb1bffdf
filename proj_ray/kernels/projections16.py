"""Projection kernels, wave 16: Icosahedral Snyder Equal Area and
Roussilhe Stereographic.

Reference parity: isea (fwd-only, spherical) <- src/PJ_isea.c;
rouss (ellipsoidal, series fwd+inv) <- src/proj_rouss.c with the
Evenden exact-meridian-distance helpers <- src/proj_mdist.c.

The reference walks Snyder's 20 icosahedron faces per point and takes
the FIRST face whose great-circle distance passes both the ``g`` and
``q`` tolerance tests (PJ_isea.c isea_snyder_forward).  We vectorize
that as 20 masked numpy passes: each pass computes the candidate
projection for all still-unassigned lanes and commits the ones that
match, preserving the C first-match order bit for bit.

Output modes (+mode=): plane (default, faces laid out on the ISEA map
plane), dd (quad + rotated triangle coords), di (quad-encoded hex
d/i integers), hex (packed global hex coord).  Aperture 3/4 and odd
aperture-3 resolutions follow isea_dddi / isea_dddi_ap3odd.
"""

from __future__ import annotations

import numpy as np

from .common import HUGE, PI, iterate_lanes
from .projections import register

_DEG36 = 0.62831853071795864768
_DEG72 = 1.25663706143591729537
_DEG90 = 1.57079632679489661922
_DEG108 = 1.88495559215387594306
_DEG120 = 2.09439510239319549229
_DEG144 = 2.51327412287183459075
_DEG180 = PI
_V_LAT = 0.46364760899944494524
_E_RAD = 0.91843818702186776133
_F_RAD = 0.18871053072122403508
_ISEA_SCALE = 0.8301572857837594396028083
_RPRIME = 0.91038328153090290025
_TABLE_G = 0.6615845383
_TABLE_H = 0.1909830056
_ISEA_STD_LAT = 1.01722196792335072101
_ISEA_STD_LON = 0.19634954084936207740
_DBL_EPS = 2.220446049250313e-16
_DEG2RAD = PI / 180.0

# vertex[] / tri_v1[] / icostriangles[] from PJ_isea.c:190-239
_VERTEX = np.array([
    (0.0, _DEG90),
    (_DEG180, _V_LAT), (-_DEG108, _V_LAT), (-_DEG36, _V_LAT),
    (_DEG36, _V_LAT), (_DEG108, _V_LAT),
    (-_DEG144, -_V_LAT), (-_DEG72, -_V_LAT), (0.0, -_V_LAT),
    (_DEG72, -_V_LAT), (_DEG144, -_V_LAT),
    (0.0, -_DEG90),
])
_TRI_V1 = [0, 0, 0, 0, 0, 0, 6, 7, 8, 9, 10, 2, 3, 4, 5, 1, 11, 11, 11, 11, 11]
_ICOTRI = np.array([
    (0.0, 0.0),
    (-_DEG144, _E_RAD), (-_DEG72, _E_RAD), (0.0, _E_RAD),
    (_DEG72, _E_RAD), (_DEG144, _E_RAD),
    (-_DEG144, _F_RAD), (-_DEG72, _F_RAD), (0.0, _F_RAD),
    (_DEG72, _F_RAD), (_DEG144, _F_RAD),
    (-_DEG108, -_F_RAD), (-_DEG36, -_F_RAD), (_DEG36, -_F_RAD),
    (_DEG108, -_F_RAD), (_DEG180, -_F_RAD),
    (-_DEG108, -_E_RAD), (-_DEG36, -_E_RAD), (_DEG36, -_E_RAD),
    (_DEG108, -_E_RAD), (_DEG180, -_E_RAD),
])

# snyder constants[SNYDER_POLY_ICOSAHEDRON] (PJ_isea.c:160-168)
_C_G_DEG = 37.37736814
_C_BIGG_DEG = 36.0
_C_THETA_DEG = 30.0


def _az_adjustment(tri):
    """PJ_isea.c az_adjustment — scalar, setup-time only."""
    vlon, vlat = _VERTEX[_TRI_V1[tri]]
    clon, clat = _ICOTRI[tri]
    return float(np.arctan2(
        np.cos(vlat) * np.sin(vlon - clon),
        np.cos(clat) * np.sin(vlat)
        - np.sin(clat) * np.cos(vlat) * np.cos(vlon - clon)))


_AZ_ADJ = [0.0] + [_az_adjustment(i) for i in range(1, 21)]


def _triangle_xy(tri):
    """PJ_isea.c isea_triangle_xy — face center on the plane (scalar)."""
    t = (tri - 1) % 20
    cx = _TABLE_G * ((t % 5) - 2) * 2.0
    if t > 9:
        cx += _TABLE_G
    cy = (5.0, 1.0, -1.0, -5.0)[t // 5] * _TABLE_H
    return cx * _RPRIME, cy * _RPRIME


_TRI_CX = np.array([0.0] + [_triangle_xy(i)[0] for i in range(1, 21)])
_TRI_CY = np.array([0.0] + [_triangle_xy(i)[1] for i in range(1, 21)])


def _norm_pm_pi(lon):
    """fmod into (-pi, pi] the way the C while-loops do."""
    lon = np.fmod(lon, 2.0 * PI)
    for _ in range(3):
        m = lon > PI
        if not np.any(m):
            break
        lon = np.where(m, lon - 2.0 * PI, lon)
    for _ in range(3):
        m = lon < -PI
        if not np.any(m):
            break
        lon = np.where(m, lon + 2.0 * PI, lon)
    return lon


def _isea_ctran(o_lat, o_lon, lon, lat, lon0):
    """PJ_isea.c isea_ctran/snyder_ctran: rotate so the grid pole is north."""
    alpha = o_lat
    beta = o_lon + PI  # np->lon += M_PI
    lambda0 = beta
    cos_p = np.cos(lat)
    sin_a = np.sin(alpha)
    sin_phip = sin_a * np.sin(lat) - np.cos(alpha) * cos_p * np.cos(lon - lambda0)
    lp_b = np.arctan2(
        cos_p * np.sin(lon - lambda0),
        sin_a * cos_p * np.cos(lon - lambda0) + np.cos(alpha) * np.sin(lat))
    lambdap = _norm_pm_pi(lp_b + beta)
    phip = np.arcsin(np.clip(sin_phip, -1.0, 1.0))
    # isea_ctran tail: npt.lon -= (M_PI - lon0 + np->lon); npt.lon += M_PI
    lambdap = lambdap - (PI - lon0 + o_lon)
    lambdap = _norm_pm_pi(lambdap + PI)
    return lambdap, phip


def _snyder_forward(lon, lat):
    """PJ_isea.c isea_snyder_forward, vectorized 20-face first-match."""
    theta = _C_THETA_DEG * _DEG2RAD
    g = _C_G_DEG * _DEG2RAD
    G = _C_BIGG_DEG * _DEG2RAD
    cot_theta = 1.0 / np.tan(theta)
    tan_g = np.tan(g)

    x = np.full(np.shape(lon), HUGE, dtype=np.float64)
    y = np.full(np.shape(lon), HUGE, dtype=np.float64)
    tri = np.zeros(np.shape(lon), dtype=np.int64)
    todo = np.ones(np.shape(lon), dtype=bool)
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(1, 21):
            if not np.any(todo):
                break
            clon, clat = _ICOTRI[i]
            z = np.arccos(np.clip(
                np.sin(clat) * sin_lat
                + np.cos(clat) * cos_lat * np.cos(lon - clon), -1.0, 1.0))
            cand = todo & (z <= g + 0.000005)
            if not np.any(cand):
                continue
            Az = np.arctan2(
                cos_lat * np.sin(lon - clon),
                np.cos(clat) * sin_lat
                - np.sin(clat) * cos_lat * np.cos(lon - clon))
            Az = Az - _AZ_ADJ[i]
            Az = np.where(Az < 0.0, Az + 2.0 * PI, Az)
            mult = np.zeros(np.shape(lon), dtype=np.float64)
            for _ in range(8):
                m = Az > _DEG120 + _DBL_EPS
                if not np.any(m):
                    break
                Az = np.where(m, Az - _DEG120, Az)
                mult = np.where(m, mult + 1.0, mult)
            q = np.arctan2(tan_g, np.cos(Az) + np.sin(Az) * cot_theta)
            cand = cand & (z <= q + 0.000005)
            if not np.any(cand):
                continue
            H = np.arccos(np.clip(
                np.sin(Az) * np.sin(G) * np.cos(g) - np.cos(Az) * np.cos(G),
                -1.0, 1.0))
            Ag = Az + G + H - _DEG180
            Azprime = np.arctan2(
                2.0 * Ag, _RPRIME * _RPRIME * tan_g * tan_g - 2.0 * Ag * cot_theta)
            dprime = _RPRIME * tan_g / (np.cos(Azprime) + np.sin(Azprime) * cot_theta)
            f = dprime / (2.0 * _RPRIME * np.sin(q / 2.0))
            rho = 2.0 * _RPRIME * f * np.sin(z / 2.0)
            Azprime = Azprime + _DEG120 * mult
            x = np.where(cand, rho * np.sin(Azprime), x)
            y = np.where(cand, rho * np.cos(Azprime), y)
            tri = np.where(cand, i, tri)
            todo = todo & ~cand
    return x, y, tri


def _rotate(x, y, degrees):
    """PJ_isea.c isea_rotate (degrees is a scalar)."""
    rad = -degrees * PI / 180.0
    c, s = np.cos(rad), np.sin(rad)
    return x * c + y * s, -x * s + y * c


def _div2_trunc(v):
    """C integer v/2 (truncate toward zero) for int arrays."""
    return v // 2 + ((v % 2 != 0) & (v < 0)).astype(v.dtype)


def _hexbin2(width, x, y):
    """PJ_isea.c hexbin2 (horizontal=0 path): cube-round to hex centers."""
    x = x / np.cos(30.0 * PI / 180.0)
    y = y - x / 2.0
    x = x / width
    y = y / width
    z = -x - y
    rx = np.floor(x + 0.5)
    ry = np.floor(y + 0.5)
    rz = np.floor(z + 0.5)
    ix = rx.astype(np.int64)
    iy = ry.astype(np.int64)
    iz = rz.astype(np.int64)
    s = ix + iy + iz
    adx = np.abs(rx - x)
    ady = np.abs(ry - y)
    adz = np.abs(rz - z)
    fix_x = (adx >= ady) & (adx >= adz)
    fix_y = ~fix_x & (ady >= adx) & (ady >= adz)
    fix_z = ~fix_x & ~fix_y
    nz = s != 0
    ix = np.where(nz & fix_x, ix - s, ix)
    iy = np.where(nz & fix_y, iy - s, iy)
    iz = np.where(nz & fix_z, iz - s, iz)
    # hex_xy: iso -> rect
    hy = np.where(ix >= 0, -iy - _div2_trunc(ix + 1), -iy - _div2_trunc(ix))
    return ix, hy


def _hex_iso(hx, hy):
    """PJ_isea.c hex_iso: rect -> iso cube coords (x, y, z)."""
    iy = np.where(hx >= 0, -hy - _div2_trunc(hx + 1), -hy - _div2_trunc(hx))
    iz = -hx - iy
    return hx, iy, iz


def _ptdd(tri, x, y):
    """PJ_isea.c isea_ptdd: triangle coords -> quad coords + quad number."""
    downtri = ((tri - 1) // 5) % 2 == 1
    quad = ((tri - 1) % 5) + ((tri - 1) // 10) * 5 + 1
    xd, yd = _rotate(x, y, 240.0)
    xu, yu = _rotate(x, y, 60.0)
    x = np.where(downtri, xd + 0.5, xu)
    y = np.where(downtri, yd + 0.86602540378443864672, yu)
    return quad, x, y


def _dddi_ap3odd(quad, x, y, resolution):
    """PJ_isea.c isea_dddi_ap3odd (aperture 3, odd resolution)."""
    sidelength = (2.0 ** resolution + 1.0) / 2.0
    hexwidth = np.cos(PI / 6.0) / sidelength
    maxcoord = int(sidelength * 2.0 + 0.5)
    hx, hy = _hexbin2(hexwidth, x, y)
    hx, hy, hz = _hex_iso(hx, hy)
    d = hx - hz
    i = hx + hy + hy
    quad = quad.copy()
    north = (quad <= 5)
    c_np = north & (d == 0) & (i == maxcoord)
    c_ur = north & ~c_np & (i == maxcoord)
    c_lr = north & ~c_np & ~c_ur & (d == maxcoord)
    south = (quad >= 6)
    c_sp = south & (i == 0) & (d == maxcoord)
    c_slr = south & ~c_sp & (d == maxcoord)
    c_sur = south & ~c_sp & ~c_slr & (i == maxcoord)
    nq = np.where(c_np, 0, quad)
    nq = np.where(c_ur, np.where(quad + 1 == 6, 1, quad + 1), nq)
    nq = np.where(c_lr, quad + 5, nq)
    nq = np.where(c_sp, 11, nq)
    nq = np.where(c_slr, np.where(quad + 1 == 11, 6, quad + 1), nq)
    nq = np.where(c_sur, (quad - 4) % 5, nq)
    nd = np.where(c_np | c_ur | c_lr | c_sp, 0, d)
    nd = np.where(c_slr, maxcoord - i, nd)
    ni = np.where(c_np | c_sp | c_slr | c_sur, 0, i)
    ni = np.where(c_ur, maxcoord - d, ni)
    return nq, nd, ni


def _dddi(quad, x, y, aperture, resolution):
    """PJ_isea.c isea_dddi: quad coords -> d/i hex indices + final quad."""
    if aperture == 3 and resolution % 2 != 0:
        return _dddi_ap3odd(quad, x, y, resolution)
    if aperture > 0:
        sidelength = int(aperture ** (resolution / 2.0) + 0.5)
    else:
        sidelength = resolution
    hexwidth = 1.0 / sidelength
    x, y = _rotate(x, y, -30.0)
    hx, hy = _hexbin2(hexwidth, x, y)
    hx, hy, hz = _hex_iso(hx, hy)
    quad = quad.copy()
    north = (quad <= 5)
    c_np = north & (hx == 0) & (hz == -sidelength)
    c_ur = north & ~c_np & (hz == -sidelength)
    c_lr = north & ~c_np & ~c_ur & (hx == sidelength)
    south = (quad >= 6)
    c_sp = south & (hz == 0) & (hx == sidelength)
    c_slr = south & ~c_sp & (hx == sidelength)
    c_sll = south & ~c_sp & ~c_slr & (hy == -sidelength)
    nq = np.where(c_np, 0, quad)
    nq = np.where(c_ur, np.where(quad + 1 == 6, 1, quad + 1), nq)
    nq = np.where(c_lr, quad + 5, nq)
    nq = np.where(c_sp, 11, nq)
    nq = np.where(c_slr, np.where(quad + 1 == 11, 6, quad + 1), nq)
    nq = np.where(c_sll, quad - 4, nq)
    nx = hx.copy()
    ny = hy.copy()
    nz = hz.copy()
    # north-pole: zero all
    for m in (c_np, c_sp):
        nx = np.where(m, 0, nx)
        ny = np.where(m, 0, ny)
        nz = np.where(m, 0, nz)
    # north upper-right: y = side - x; z = x - side; x = 0
    ny = np.where(c_ur, sidelength - hx, ny)
    nz = np.where(c_ur, hx - sidelength, nz)
    nx = np.where(c_ur, 0, nx)
    # north lower-right: y = -z; x = 0
    ny = np.where(c_lr, -hz, ny)
    nx = np.where(c_lr, 0, nx)
    # south lower-right: x = y + side; y = 0; z = -x
    nx = np.where(c_slr, hy + sidelength, nx)
    ny = np.where(c_slr, 0, ny)
    nz = np.where(c_slr, -(hy + sidelength), nz)
    # south lower-left: y = 0; z = -x
    ny = np.where(c_sll, 0, ny)
    nz = np.where(c_sll, -nx, nz)
    return nq, nx, -nz


def _ptdi(tri, x, y, aperture, resolution):
    """PJ_isea.c isea_ptdi."""
    quad, x, y = _ptdd(tri, x, y)
    return _dddi(quad, x, y, aperture, resolution)


@register("isea")
def setup_isea(P):
    # ENTRY0(isea) — PJ_isea.c:1055-1130.  Note the entry sets
    # aperture=3 / resolution=4 defaults AFTER the option block,
    # overriding isea_grid_init's 4/6.
    o_lat = _ISEA_STD_LAT
    o_lon = _ISEA_STD_LON
    o_az = 0.0
    radius = 1.0
    output = "plane"
    orient = P.param_s("orient")
    if orient:
        if orient == "isea":
            o_lat, o_lon, o_az = _ISEA_STD_LAT, _ISEA_STD_LON, 0.0
        elif orient == "pole":
            o_lat, o_lon, o_az = PI / 2.0, 0.0, 0.0
        else:
            raise ValueError("isea: invalid orient (-34)")
    if P.param_t("azi"):
        o_az = P.param_r("azi")
    if P.param_t("lon_0"):
        o_lon = P.param_r("lon_0")
    if P.param_t("lat_0"):
        o_lat = P.param_r("lat_0")
    mode = P.param_s("mode")
    if mode:
        if mode in ("plane", "di", "dd", "hex"):
            output = mode
        else:
            raise ValueError("isea: invalid mode (-34)")
    if P.param_t("rescale"):
        radius = _ISEA_SCALE
    resolution = P.param_i("resolution") if P.param_t("resolution") else 4
    aperture = P.param_i("aperture") if P.param_t("aperture") else 3

    def fwd(lam, phi):
        lam = np.asarray(lam, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        ilon, ilat = _isea_ctran(o_lat, o_lon, lam, phi, o_az)
        x, y, tri = _snyder_forward(ilon, ilat)
        bad = tri == 0
        x = x * radius
        y = y * radius
        if output == "plane":
            # isea_tri_plane: rotate down-triangles 180, add face center
            downtri = ((tri - 1) // 5) % 2 == 1
            xr, yr = _rotate(x, y, 180.0)
            x = np.where(downtri, xr, x)
            y = np.where(downtri, yr, y)
            ts = np.clip(tri, 0, 20)
            x = x + _TRI_CX[ts] * radius
            y = y + _TRI_CY[ts] * radius
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
        # convert to isea standard triangle size (isea_forward)
        x = np.where(bad, 0.0, x) / radius * _ISEA_SCALE + 0.5
        y = np.where(bad, 0.0, y) / radius * _ISEA_SCALE + 2.0 * 0.14433756729740644112
        tri = np.where(bad, 1, tri)
        if output == "dd":
            quad, x, y = _ptdd(tri, x, y)
            return np.where(bad, HUGE, x), np.where(bad, HUGE, y)
        quad, d, i = _ptdi(tri, x, y, aperture, resolution)
        if output == "di":
            return (np.where(bad, HUGE, d.astype(np.float64)),
                    np.where(bad, HUGE, i.astype(np.float64)))
        # hex: isea_hex packs quad into the low 4 bits of d
        hx = (d.astype(np.int64) << 4) + quad
        return (np.where(bad, HUGE, hx.astype(np.float64)),
                np.where(bad, HUGE, i.astype(np.float64)))

    def _no_inverse(x, y):
        x = np.asarray(x, dtype=np.float64)
        return np.full_like(x, HUGE), np.full_like(x, HUGE)

    P.fwd = fwd
    P.inv = _no_inverse


# ---------------------------------------------------------------------------
# rouss — Roussilhe Stereographic (proj_rouss.c) with Evenden's exact
# meridian distance series (proj_mdist.c proj_mdist_ini / proj_mdist /
# proj_inv_mdist).

def mdist_ini(es):
    """proj_mdist.c proj_mdist_ini: E(e^2) plus b_n Horner coefficients."""
    MAX_ITER = 20
    E = [1.0]
    ens = es
    numf = twon1 = denfi = 1.0
    denf = 1.0
    twon = 4.0
    Es = El = 1.0
    i = 1
    while i < MAX_ITER:
        numf *= twon1 * twon1
        den = twon * denf * denf * twon1
        T = numf / den
        E.append(T * ens)
        Es -= E[i]
        ens *= es
        twon *= 4.0
        denfi += 1.0
        denf *= denfi
        twon1 += 2.0
        i += 1
        if Es == El:
            break
        El = Es
    nb = i - 1
    E_series = Es  # B->E: the converged E(e^2) value
    # b_n pass: C does Es = b[0] = 1 - Es then keeps subtracting E[j]
    Es = 1.0 - Es
    b = [Es]
    numf = denf = 1.0
    numfi = 2.0
    denfi = 3.0
    for j in range(1, i):
        Es -= E[j]
        numf *= numfi
        denf *= denfi
        b.append(Es * numf / denf)
        numfi += 2.0
        denfi += 2.0
    return {"nb": nb, "es": es, "E": E_series, "b": b}


def mdist(phi, sphi, cphi, en):
    """proj_mdist.c proj_mdist — vectorized Horner evaluation."""
    es = en["es"]
    b = en["b"]
    sc = sphi * cphi
    sphi2 = sphi * sphi
    D = phi * en["E"] - es * sc / np.sqrt(1.0 - es * sphi2)
    i = en["nb"]
    total = b[i]
    while i:
        i -= 1
        total = b[i] + sphi2 * total
    return D + sc * total


def inv_mdist(dist, en):
    """proj_mdist.c proj_inv_mdist — per-lane Newton (20 iters)."""
    es = en["es"]
    k = 1.0 / (1.0 - es)

    def step(p, dist):
        s = np.sin(p)
        t = 1.0 - es * s * s
        delta = (mdist(p, s, np.cos(p), en) - dist) * (t * np.sqrt(t)) * k
        return p - delta, np.abs(delta) < 1e-14

    phi = np.array(dist, dtype=np.float64, copy=True)
    return iterate_lanes(step, phi, (dist,), 20, np.isfinite(phi))[0]


@register("rouss")
def setup_rouss(P):
    # ENTRY1(rouss, en) — proj_rouss.c:78-121
    en = mdist_ini(P.es)
    es2 = np.sin(P.phi0)
    s0 = float(mdist(np.float64(P.phi0), es2, np.cos(P.phi0), en))
    es2 = P.es * es2 * es2
    t = 1.0 - es2
    N0 = 1.0 / np.sqrt(t)
    R_R0_2 = t * t / P.one_es
    R_R0_4 = R_R0_2 * R_R0_2
    t = np.tan(P.phi0)
    t2 = t * t
    C1 = A1 = R_R0_2 / 4.0
    C2 = A2 = R_R0_2 * (2 * t2 - 1.0 - 2.0 * es2) / 12.0
    A3 = R_R0_2 * t * (1.0 + 4.0 * t2) / (12.0 * N0)
    A4 = R_R0_4 / 24.0
    A5 = R_R0_4 * (-1.0 + t2 * (11.0 + 12.0 * t2)) / 24.0
    A6 = R_R0_4 * (-2.0 + t2 * (11.0 - 2.0 * t2)) / 240.0
    B1 = t / (2.0 * N0)
    B2 = R_R0_2 / 12.0
    B3 = R_R0_2 * (1.0 + 2.0 * t2 - 2.0 * es2) / 4.0
    B4 = R_R0_2 * t * (2.0 - t2) / (24.0 * N0)
    B5 = R_R0_2 * t * (5.0 + 4.0 * t2) / (8.0 * N0)
    B6 = R_R0_4 * (-2.0 + t2 * (-5.0 + 6.0 * t2)) / 48.0
    B7 = R_R0_4 * (5.0 + t2 * (19.0 + 12.0 * t2)) / 24.0
    B8 = R_R0_4 / 120.0
    C3 = R_R0_2 * t * (1.0 + t2) / (3.0 * N0)
    C4 = R_R0_4 * (-3.0 + t2 * (34.0 + 22.0 * t2)) / 240.0
    C5 = R_R0_4 * (4.0 + t2 * (13.0 + 12.0 * t2)) / 24.0
    C6 = R_R0_4 / 16.0
    C7 = R_R0_4 * t * (11.0 + t2 * (33.0 + t2 * 16.0)) / (48.0 * N0)
    C8 = R_R0_4 * t * (1.0 + t2 * 4.0) / (36.0 * N0)
    D1 = t / (2.0 * N0)
    D2 = R_R0_2 / 12.0
    D3 = R_R0_2 * (2 * t2 + 1.0 - 2.0 * es2) / 4.0
    D4 = R_R0_2 * t * (1.0 + t2) / (8.0 * N0)
    D5 = R_R0_2 * t * (1.0 + t2 * 2.0) / (4.0 * N0)
    D6 = R_R0_4 * (1.0 + t2 * (6.0 + t2 * 6.0)) / 16.0
    D7 = R_R0_4 * t2 * (3.0 + t2 * 4.0) / 8.0
    D8 = R_R0_4 / 80.0
    D9 = R_R0_4 * t * (-21.0 + t2 * (178.0 - t2 * 26.0)) / 720.0
    D10 = R_R0_4 * t * (29.0 + t2 * (86.0 + t2 * 48.0)) / (96.0 * N0)
    D11 = R_R0_4 * t * (37.0 + t2 * 44.0) / (96.0 * N0)
    es = P.es
    k0 = P.k0

    def fwd(lam, phi):
        cp = np.cos(phi)
        sp = np.sin(phi)
        s = mdist(phi, sp, cp, en) - s0
        s2 = s * s
        al = lam * cp / np.sqrt(1.0 - es * sp * sp)
        al2 = al * al
        x = k0 * al * (1.0 + s2 * (A1 + s2 * A4)
                       - al2 * (A2 + s * A3 + s2 * A5 + al2 * A6))
        y = k0 * (al2 * (B1 + al2 * B4)
                  + s * (1.0 + al2 * (B3 - al2 * B6) + s2 * (B2 + s2 * B8)
                         + s * al2 * (B5 + s * B7)))
        return x, y

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64) / k0
        y = np.asarray(y, dtype=np.float64) / k0
        x2 = x * x
        y2 = y * y
        al = x * (1.0 - C1 * y2 + x2 * (C2 + C3 * y - C4 * x2 + C5 * y2
                                        - C7 * x2 * y)
                  + y2 * (C6 * y2 - C8 * x2 * y))
        s = s0 + y * (1.0 + y2 * (-D2 + D8 * y2)) + \
            x2 * (-D1 + y * (-D3 + y * (-D5 + y * (-D7 + y * D11)))
                  + x2 * (D4 + y * (D6 + y * D10) - x2 * D9))
        phi = inv_mdist(np.asarray(s, dtype=np.float64), en)
        sp = np.sin(phi)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = al * np.sqrt(1.0 - es * sp * sp) / np.cos(phi)
        return lam, phi

    P.fwd = fwd
    P.inv = inv
