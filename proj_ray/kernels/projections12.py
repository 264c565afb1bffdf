"""Projection kernels, wave 12: quadrilateralized spherical cube + the
CalCOFI line/station grid.

Reference parity:
- qsc (6 cube faces, 4 areas per face, ellipsoid<->sphere shift)
                              <- src/PJ_qsc.c
- calcofi (sets a=1/x0=0/y0=0 so outputs are Line/Station units, and
  over=1 on inverse — replicated at setup time)  <- src/PJ_calcofi.c
"""

from __future__ import annotations

import numpy as np

from .common import FORTPI, HALFPI, HUGE, PI, RAD_TO_DEG, TWOPI, phi2, tsfn
from .projections import register


def _shift_lon(lon, offset):
    s = lon + offset
    s = np.where(s < -PI, s + TWOPI, s)
    s = np.where(s > PI, s - TWOPI, s)
    return s


@register("qsc")
def setup_qsc(P):
    EPS10 = 1e-10
    # face from the projection center (PJ_qsc.c entry)
    if P.phi0 >= HALFPI - FORTPI / 2.0:
        face = "top"
    elif P.phi0 <= -(HALFPI - FORTPI / 2.0):
        face = "bottom"
    elif abs(P.lam0) <= FORTPI:
        face = "front"
    elif abs(P.lam0) <= HALFPI + FORTPI:
        face = "right" if P.lam0 > 0.0 else "left"
    else:
        face = "back"
    es = P.es
    if es:
        a = P.a
        b = a * np.sqrt(1.0 - es)
        one_minus_f = 1.0 - (a - b) / a
        one_minus_f_squared = one_minus_f * one_minus_f

    def _equat_theta(phi, y, x):
        """qsc_fwd_equat_face_theta vectorized -> (theta, area)."""
        theta = np.arctan2(y, x)
        area = np.zeros(np.shape(theta), dtype=np.int64)
        a1 = (theta > FORTPI) & (theta <= HALFPI + FORTPI)
        a2 = (theta > HALFPI + FORTPI) | (theta <= -(HALFPI + FORTPI))
        a3 = ~a1 & ~a2 & (np.abs(theta) > FORTPI)
        theta = np.where(a1, theta - HALFPI, theta)
        theta = np.where(a2, np.where(theta >= 0.0, theta - PI, theta + PI), theta)
        theta = np.where(a3, theta + HALFPI, theta)
        area = np.where(a1, 1, np.where(a2, 2, np.where(a3, 3, 0)))
        small = phi < EPS10
        theta = np.where(small, 0.0, theta)
        area = np.where(small, 0, area)
        return theta, area

    def fwd(lam, phi_in):
        lat = np.arctan(one_minus_f_squared * np.tan(phi_in)) if es else phi_in
        lon = lam
        if face not in ("top", "bottom"):
            if face == "right":
                lon = _shift_lon(lon, HALFPI)
            elif face == "back":
                lon = _shift_lon(lon, PI)
            elif face == "left":
                lon = _shift_lon(lon, -HALFPI)
            sinlat = np.sin(lat)
            coslat = np.cos(lat)
            sinlon = np.sin(lon)
            coslon = np.cos(lon)
            q = coslat * coslon
            r = coslat * sinlon
            s = sinlat
        if face == "front":
            phi = np.arccos(np.clip(q, -1, 1))
            theta, area = _equat_theta(phi, s, r)
        elif face == "right":
            phi = np.arccos(np.clip(r, -1, 1))
            theta, area = _equat_theta(phi, s, -q)
        elif face == "back":
            phi = np.arccos(np.clip(-q, -1, 1))
            theta, area = _equat_theta(phi, s, -r)
        elif face == "left":
            phi = np.arccos(np.clip(-r, -1, 1))
            theta, area = _equat_theta(phi, s, q)
        elif face == "top":
            phi = HALFPI - lat
            c0 = (lon >= FORTPI) & (lon <= HALFPI + FORTPI)
            c1 = (lon > HALFPI + FORTPI) | (lon <= -(HALFPI + FORTPI))
            c2 = (lon > -(HALFPI + FORTPI)) & (lon <= -FORTPI)
            theta = np.where(c0, lon - HALFPI,
                     np.where(c1, np.where(lon > 0.0, lon - PI, lon + PI),
                      np.where(c2, lon + HALFPI, lon)))
            area = np.where(c0, 0, np.where(c1, 1, np.where(c2, 2, 3)))
        else:  # bottom
            phi = HALFPI + lat
            c0 = (lon >= FORTPI) & (lon <= HALFPI + FORTPI)
            c1 = (lon < FORTPI) & (lon >= -FORTPI)
            c2 = (lon < -FORTPI) & (lon >= -(HALFPI + FORTPI))
            theta = np.where(c0, -lon + HALFPI,
                     np.where(c1, -lon,
                      np.where(c2, -lon - HALFPI,
                               np.where(lon > 0.0, -lon + PI, -lon - PI))))
            area = np.where(c0, 0, np.where(c1, 1, np.where(c2, 2, 3)))
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.arctan((12.0 / PI) * (theta + np.arccos(np.clip(
                np.sin(theta) * np.cos(FORTPI), -1, 1)) - HALFPI))
            t = np.sqrt((1.0 - np.cos(phi)) / (np.cos(mu) * np.cos(mu))
                        / (1.0 - np.cos(np.arctan(1.0 / np.cos(theta)))))
        mu = mu + np.where(area == 1, HALFPI,
                           np.where(area == 2, PI,
                                    np.where(area == 3, HALFPI + PI, 0.0)))
        return t * np.cos(mu), t * np.sin(mu)

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        nu = np.arctan(np.sqrt(x * x + y * y))
        mu = np.arctan2(y, x)
        a0 = (x >= 0.0) & (x >= np.abs(y))
        a1 = ~a0 & (y >= 0.0) & (y >= np.abs(x))
        a2 = ~a0 & ~a1 & (x < 0.0) & (-x >= np.abs(y))
        a3 = ~a0 & ~a1 & ~a2
        mu = np.where(a1, mu - HALFPI, mu)
        mu = np.where(a2, np.where(mu < 0.0, mu + PI, mu - PI), mu)
        mu = np.where(a3, mu + HALFPI, mu)
        area = np.where(a1, 1, np.where(a2, 2, np.where(a3, 3, 0)))
        t = (PI / 12.0) * np.tan(mu)
        tantheta = np.sin(t) / (np.cos(t) - 1.0 / np.sqrt(2.0))
        theta = np.arctan(tantheta)
        cosmu = np.cos(mu)
        tannu = np.tan(nu)
        cosphi = 1.0 - cosmu * cosmu * tannu * tannu * (
            1.0 - np.cos(np.arctan(1.0 / np.cos(theta))))
        cosphi = np.clip(cosphi, -1.0, 1.0)
        if face in ("top", "bottom"):
            phi = np.arccos(cosphi)
            if face == "top":
                lp_phi = HALFPI - phi
                lam = np.where(area == 0, theta + HALFPI,
                       np.where(area == 1, np.where(theta < 0.0, theta + PI, theta - PI),
                        np.where(area == 2, theta - HALFPI, theta)))
            else:
                lp_phi = phi - HALFPI
                lam = np.where(area == 0, -theta + HALFPI,
                       np.where(area == 1, -theta,
                        np.where(area == 2, -theta - HALFPI,
                                 np.where(theta < 0.0, -theta - PI, -theta + PI))))
        else:
            q = cosphi
            t2 = q * q
            s = np.where(t2 >= 1.0, 0.0,
                         np.sqrt(np.maximum(1.0 - t2, 0.0)) * np.sin(theta))
            t2 = t2 + s * s
            r = np.where(t2 >= 1.0, 0.0, np.sqrt(np.maximum(1.0 - t2, 0.0)))
            # rotate into the correct area
            r1, s1 = r.copy(), s.copy()
            r = np.where(area == 1, -s1, np.where(area == 2, -r1,
                         np.where(area == 3, s1, r1)))
            s = np.where(area == 1, r1, np.where(area == 2, -s1,
                         np.where(area == 3, -r1, s1)))
            # rotate into the correct face
            if face == "right":
                q, r = -r, q
            elif face == "back":
                q, r = -q, -r
            elif face == "left":
                q, r = r, -q
            lp_phi = np.arccos(np.clip(-s, -1, 1)) - HALFPI
            lam = np.arctan2(r, q)
            if face == "right":
                lam = _shift_lon(lam, -HALFPI)
            elif face == "back":
                lam = _shift_lon(lam, -PI)
            elif face == "left":
                lam = _shift_lon(lam, HALFPI)
        if es:
            invert = lp_phi < 0.0
            tanphi = np.tan(lp_phi)
            xa = b / np.sqrt(tanphi * tanphi + one_minus_f_squared)
            lp_phi = np.arctan(np.sqrt(np.maximum(a * a - xa * xa, 0.0))
                               / (one_minus_f * xa))
            lp_phi = np.where(invert, -lp_phi, lp_phi)
        return lam, lp_phi

    P.fwd = fwd
    P.inv = inv


@register("calcofi")
def setup_calcofi(P):
    EPS10 = 1e-10
    LINE_TO_RAD = 0.0034906585039886592
    STATION_TO_RAD = 0.0011635528346628863
    PT_O_LINE = 80.0
    PT_O_STATION = 60.0
    PT_O_LAMBDA = -2.1144663887911301
    PT_O_PHI = 0.59602993955606354
    ROT = 0.52359877559829882
    # Line/Station units out: neutralize the generic wrapper's scaling
    # (the reference mutates a/x0/y0 inside fwd; same net effect)
    lam0 = P.lam0
    P.a = 1.0
    P.ra = 1.0
    P.x0 = 0.0
    P.y0 = 0.0
    P.over = True  # reference sets over on inverse to skip adjlon
    e = P.e
    es = P.es

    def fwd(lam, phi):
        lam = lam + lam0
        bad = np.abs(np.abs(phi) - HALFPI) <= EPS10
        phi_s = np.where(bad, 0.0, phi)
        if es:
            y = -np.log(tsfn(phi_s, np.sin(phi_s), e))
            oy = -np.log(float(tsfn(np.float64(PT_O_PHI), np.sin(PT_O_PHI), e)))
        else:
            y = np.log(np.tan(FORTPI + 0.5 * phi_s))
            oy = np.log(np.tan(FORTPI + 0.5 * PT_O_PHI))
        l1 = (y - oy) * np.tan(ROT)
        l2 = -lam - l1 + PT_O_LAMBDA
        ry = l2 * np.cos(ROT) * np.sin(ROT) + y
        if es:
            ry = phi2(np.exp(-ry), e)
        else:
            ry = HALFPI - 2.0 * np.arctan(np.exp(-ry))
        x = PT_O_LINE - RAD_TO_DEG * (ry - PT_O_PHI) * 5.0 / np.cos(ROT)
        yv = PT_O_STATION + RAD_TO_DEG * (ry - phi_s) * 15.0 / np.sin(ROT)
        return np.where(bad, HUGE, x), np.where(bad, HUGE, yv)

    def inv(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        ry = PT_O_PHI - LINE_TO_RAD * (x - PT_O_LINE) * np.cos(ROT)
        phi = ry - STATION_TO_RAD * (y - PT_O_STATION) * np.sin(ROT)
        if es:
            oymctr = -np.log(float(tsfn(np.float64(PT_O_PHI), np.sin(PT_O_PHI), e)))
            rymctr = -np.log(tsfn(ry, np.sin(ry), e))
            xymctr = -np.log(tsfn(phi, np.sin(phi), e))
        else:
            oymctr = np.log(np.tan(FORTPI + 0.5 * PT_O_PHI))
            rymctr = np.log(np.tan(FORTPI + 0.5 * ry))
            xymctr = np.log(np.tan(FORTPI + 0.5 * phi))
        l1 = (xymctr - oymctr) * np.tan(ROT)
        l2 = (rymctr - xymctr) / (np.cos(ROT) * np.sin(ROT))
        lam = PT_O_LAMBDA - (l1 + l2)
        return lam - lam0, phi

    P.fwd = fwd
    P.inv = inv
