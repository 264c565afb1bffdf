"""Projection kernels, wave 6: HEALPix / rHEALPix (equal-area sphere
tiling — the precedent the north star's cell index builds on).

Reference parity: src/PJ_healpix.c (healpix_sphere fwd/inv, authalic
latitude for ellipsoids with the authalic-radius rescale, polar-cap
combine/uncombine for rHEALPix, in-image pnpoly check with EPS jitter).
"""

from __future__ import annotations

import numpy as np

from .common import HUGE, PI
from .projections import register
from .projections2 import authlat, authset, qsfn

_PHI0 = np.arcsin(2.0 / 3.0)

# rotation matrices IDENT, R1(ccw 90), R2(180), R3(270); index map of
# get_rotate_index: [0,1,2,3,-1->R3,-2->R2,-3->R1]
_ROT = np.array([
    [[1, 0], [0, 1]],
    [[0, -1], [1, 0]],
    [[-1, 0], [0, -1]],
    [[0, 1], [-1, 0]],
    [[0, 1], [-1, 0]],
    [[-1, 0], [0, -1]],
    [[0, -1], [1, 0]],
], dtype=np.float64)


def _rot_index(idx):
    """get_rotate_index vectorized: -3..3 -> ROT row."""
    out = np.zeros_like(idx)
    out = np.where(idx == 1, 1, out)
    out = np.where(idx == 2, 2, out)
    out = np.where(idx == 3, 3, out)
    out = np.where(idx == -1, 4, out)
    out = np.where(idx == -2, 5, out)
    out = np.where(idx == -3, 6, out)
    return out


def _healpix_sphere(lam, phi):
    """healpix_sphere (PJ_healpix.c:208-230), vectorized."""
    equat = np.abs(phi) <= _PHI0
    x_eq = lam
    y_eq = 3.0 * PI / 8.0 * np.sin(phi)
    sigma = np.sqrt(3.0 * (1.0 - np.abs(np.sin(phi))))
    cn = np.floor(2.0 * lam / PI + 2.0)
    cn = np.where(cn >= 4, 3.0, cn)
    lamc = -3.0 * PI / 4.0 + (PI / 2.0) * cn
    x_po = lamc + (lam - lamc) * sigma
    y_po = np.sign(phi) * PI / 4.0 * (2.0 - sigma)
    return np.where(equat, x_eq, x_po), np.where(equat, y_eq, y_po)


def _healpix_sphere_inverse(x, y):
    """PJ_healpix.c:232-262, vectorized."""
    y0 = PI / 4.0
    equat = np.abs(y) <= y0
    lam_eq = x
    phi_eq = np.arcsin(np.clip(8.0 * y / (3.0 * PI), -1.0, 1.0))
    polar = (np.abs(y) > y0) & (np.abs(y) < PI / 2.0)
    cn = np.floor(2.0 * x / PI + 2.0)
    cn = np.where(cn >= 4, 3.0, cn)
    xc = -3.0 * PI / 4.0 + (PI / 2.0) * cn
    tau = 2.0 - 4.0 * np.abs(y) / PI
    with np.errstate(invalid="ignore", divide="ignore"):
        lam_po = xc + (x - xc) / np.where(tau == 0, 1.0, tau)
    phi_po = np.sign(y) * np.arcsin(np.clip(1.0 - tau * tau / 3.0, -1.0, 1.0))
    lam = np.where(equat, lam_eq, np.where(polar, lam_po, -PI))
    phi = np.where(equat, phi_eq, np.where(polar, phi_po, np.sign(y) * PI / 2.0))
    return lam, phi


def _in_image_healpix(x, y):
    """in_image for healpix (pnpoly over the jittered 18-gon),
    vectorized even-odd with the reference's boundary conventions."""
    EPS = 1e-15
    verts = np.array([
        (-PI - EPS, PI / 4), (-3 * PI / 4, PI / 2 + EPS),
        (-PI / 2, PI / 4 + EPS), (-PI / 4, PI / 2 + EPS),
        (0.0, PI / 4 + EPS), (PI / 4, PI / 2 + EPS),
        (PI / 2, PI / 4 + EPS), (3 * PI / 4, PI / 2 + EPS),
        (PI + EPS, PI / 4), (PI + EPS, -PI / 4),
        (3 * PI / 4, -PI / 2 - EPS), (PI / 2, -PI / 4 - EPS),
        (PI / 4, -PI / 2 - EPS), (0.0, -PI / 4 - EPS),
        (-PI / 4, -PI / 2 - EPS), (-PI / 2, -PI / 4 - EPS),
        (-3 * PI / 4, -PI / 2 - EPS), (-PI - EPS, -PI / 4),
    ])
    return _pnpoly_ref(verts, x, y)


def _pnpoly_ref(verts, x, y):
    """The healpix pnpoly variant (PJ_healpix.c:103-138): vertex hits
    count as inside; edges tested with min/max + <= conventions."""
    inside = np.zeros(np.shape(x), dtype=bool)
    on_vertex = np.zeros_like(inside)
    for vx, vy in verts:
        on_vertex |= (x == vx) & (y == vy)
    counter = np.zeros(np.shape(x), dtype=np.int64)
    p1 = verts[0]
    n = len(verts)
    for i in range(1, n + 1):
        p2 = verts[i % n]
        cond = (y > np.minimum(p1[1], p2[1])) & (y <= np.maximum(p1[1], p2[1])) \
            & (x <= np.maximum(p1[0], p2[0])) & (p1[1] != p2[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            xinters = (y - p1[1]) * (p2[0] - p1[0]) / (p2[1] - p1[1] + (p1[1] == p2[1])) + p1[0]
        hit = cond & ((p1[0] == p2[0]) | (x <= xinters))
        counter += hit.astype(np.int64)
        p1 = p2
    inside = (counter % 2 == 1) | on_vertex
    return inside


def _get_cap(x, y, north_square, south_square, inverse):
    """get_cap vectorized: returns (region, cn, cx, cy) arrays.
    region: 0=equatorial, 1=north, 2=south."""
    region = np.zeros(np.shape(x), dtype=np.int64)
    region = np.where(y > PI / 4.0, 1, region)
    region = np.where(y < -PI / 4.0, 2, region)
    cn = np.zeros(np.shape(x), dtype=np.int64)
    cx = np.array(x, dtype=np.float64, copy=True)
    cy = np.array(y, dtype=np.float64, copy=True)
    if not inverse:
        c = np.where(region == 1, PI / 2.0, -PI / 2.0)
        cn_p = np.where(x < -PI / 2.0, 0,
                        np.where(x < 0, 1, np.where(x < PI / 2.0, 2, 3)))
        cx_p = np.where(cn_p == 0, -3.0 * PI / 4.0,
                        np.where(cn_p == 1, -PI / 4.0,
                                 np.where(cn_p == 2, PI / 4.0, 3.0 * PI / 4.0)))
        pol = region != 0
        cn = np.where(pol, cn_p, 0)
        cx = np.where(pol, cx_p, cx)
        cy = np.where(pol, c, cy)
        return region, cn, cx, cy
    eps = 1e-15
    north = region == 1
    south = region == 2
    xs = np.where(north, x - north_square * PI / 2.0,
                  np.where(south, x - south_square * PI / 2.0, x))
    cx = np.where(north, -3.0 * PI / 4.0 + north_square * PI / 2.0, cx)
    cy = np.where(north, PI / 2.0, cy)
    cx = np.where(south, -3.0 * PI / 4.0 + south_square * PI / 2.0, cx)
    cy = np.where(south, -PI / 2.0, cy)
    # cap number from the disassembly sectors (PJ_healpix.c:341-368)
    yv = y
    n1 = (yv >= -xs - PI / 4.0 - eps) & (yv < xs + 5.0 * PI / 4.0 - eps)
    n2 = (yv > -xs - PI / 4.0 + eps) & (yv >= xs + 5.0 * PI / 4.0 - eps)
    n3 = (yv <= -xs - PI / 4.0 + eps) & (yv > xs + 5.0 * PI / 4.0 + eps)
    cn_n = np.where(n1, (north_square + 1) % 4,
                    np.where(n2, (north_square + 2) % 4,
                             np.where(n3, (north_square + 3) % 4, north_square)))
    s1 = (yv <= xs + PI / 4.0 + eps) & (yv > -xs - 5.0 * PI / 4.0 + eps)
    s2 = (yv < xs + PI / 4.0 - eps) & (yv <= -xs - 5.0 * PI / 4.0 + eps)
    s3 = (yv >= xs + PI / 4.0 - eps) & (yv < -xs - 5.0 * PI / 4.0 - eps)
    cn_s = np.where(s1, (south_square + 1) % 4,
                    np.where(s2, (south_square + 2) % 4,
                             np.where(s3, (south_square + 3) % 4, south_square)))
    cn = np.where(north, cn_n, np.where(south, cn_s, 0))
    return region, cn, cx, cy


def _combine_caps(x, y, north_square, south_square, inverse):
    """combine_caps vectorized (PJ_healpix.c:373-466)."""
    region, cn, cx, cy = _get_cap(x, y, north_square, south_square, inverse)
    pol = region != 0
    if not np.any(pol):
        return np.array(x, copy=True), np.array(y, copy=True)
    out_x = np.array(x, dtype=np.float64, copy=True)
    out_y = np.array(y, dtype=np.float64, copy=True)
    idx = np.flatnonzero(pol)
    reg = region[idx]
    cni = cn[idx]
    pole = np.where(reg == 1, north_square, south_square)
    if not inverse:
        rot_i = _rot_index(np.where(reg == 1, cni - pole, -(cni - pole)))
        ax = -3.0 * PI / 4.0 + pole * PI / 2.0
        ay = np.where(reg == 1, PI / 2.0, -PI / 2.0)
    else:
        rot_i = _rot_index(np.where(reg == 1, -(cni - pole), cni - pole))
        ax = -3.0 * PI / 4.0 + cni * PI / 2.0
        ay = np.where(reg == 1, PI / 2.0, -PI / 2.0)
    R = _ROT[rot_i]
    vx = np.asarray(x, dtype=np.float64)[idx] - cx[idx]
    vy = np.asarray(y, dtype=np.float64)[idx] - cy[idx]
    out_x[idx] = R[:, 0, 0] * vx + R[:, 0, 1] * vy + ax
    out_y[idx] = R[:, 1, 0] * vx + R[:, 1, 1] * vy + ay
    return out_x, out_y


def _rhealpix_verts(north_square, south_square):
    EPS = 1e-15
    ns, ss = north_square, south_square
    return np.array([
        (-PI - EPS, PI / 4 + EPS),
        (-PI + ns * PI / 2 - EPS, PI / 4 + EPS),
        (-PI + ns * PI / 2 - EPS, 3 * PI / 4 + EPS),
        (-PI + (ns + 1.0) * PI / 2 + EPS, 3 * PI / 4 + EPS),
        (-PI + (ns + 1.0) * PI / 2 + EPS, PI / 4 + EPS),
        (PI + EPS, PI / 4 + EPS),
        (PI + EPS, -PI / 4 - EPS),
        (-PI + (ss + 1.0) * PI / 2 + EPS, -PI / 4 - EPS),
        (-PI + (ss + 1.0) * PI / 2 + EPS, -3 * PI / 4 - EPS),
        (-PI + ss * PI / 2 - EPS, -3 * PI / 4 - EPS),
        (-PI + ss * PI / 2 - EPS, -PI / 4 - EPS),
        (-PI - EPS, -PI / 4 - EPS),
    ])


def _healpix_common(P, rhealpix: bool):
    es = P.es
    if rhealpix:
        ns = P.param_i("north_square")
        ss = P.param_i("south_square")
        if not (0 <= ns <= 3) or not (0 <= ss <= 3):
            raise ValueError("rhealpix: north/south_square outside 0..3 (-47)")
    else:
        ns = ss = 0
    if es:
        apa = authset(es)
        qp = float(qsfn(1.0, P.e, P.one_es))
        P.a = P.a * np.sqrt(0.5 * qp)  # authalic radius
        P.ra = 1.0 / P.a
        e, one_es = P.e, P.one_es

        def to_auth(phi):
            q = qsfn(np.sin(phi), e, one_es)
            ratio = np.clip(q / qp, -1.0, 1.0)
            return np.arcsin(ratio)

        def from_auth(beta):
            return authlat(beta, apa)
    else:
        to_auth = from_auth = None

    def fwd(lam, phi):
        if to_auth is not None:
            phi = to_auth(phi)
        x, y = _healpix_sphere(lam, phi)
        if rhealpix:
            x, y = _combine_caps(x, y, ns, ss, False)
        return x, y

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if rhealpix:
            ok = _pnpoly_ref(_rhealpix_verts(ns, ss), x, y)
            xs, ys = _combine_caps(np.where(ok, x, 0.0), np.where(ok, y, 0.0),
                                   ns, ss, True)
        else:
            ok = _in_image_healpix(x, y)
            xs, ys = x, y
        lam, phi = _healpix_sphere_inverse(xs, ys)
        if from_auth is not None:
            phi = from_auth(phi)
        return np.where(ok, lam, HUGE), np.where(ok, phi, HUGE)

    P.fwd = fwd
    P.inv = inv


@register("healpix")
def setup_healpix(P):
    _healpix_common(P, rhealpix=False)


@register("rhealpix")
def setup_rhealpix(P):
    _healpix_common(P, rhealpix=True)
