"""Projection kernels, wave 13: bipolar conic.

Reference parity: bipc <- src/PJ_bipc.c (Bipolar Oblique Conic
Conformal of the western hemisphere, +ns for unskewed axes).
"""

from __future__ import annotations

import numpy as np

from .common import HALFPI, HUGE, PI
from .projections import register

_lamB = -0.34894976726250681539
_n = 0.63055844881274687180
_F = 1.89724742567461030582
_Azab = 0.81650043674686363166
_Azba = 1.82261843856185925133
_T = 1.27246578267089012270
_rhoc = 1.20709121521568721927
_cAzc = 0.69691523038678375519
_sAzc = 0.71715351331143607555
_C45 = 0.70710678118654752469
_S45 = 0.70710678118654752410
_C20 = 0.93969262078590838411
_S20 = -0.34202014332566873287
_R110 = 1.91986217719376253360
_R104 = 1.81514242207410275904


@register("bipc")
def setup_bipc(P):
    EPS10 = 1e-10
    ONEEPS = 1.000000001
    noskew = P.param_b("ns")
    P.es = 0.0

    def fwd(lam, phi):
        cphi = np.cos(phi)
        sphi = np.sin(phi)
        sdlam = _lamB - lam
        cdlam = np.cos(sdlam)
        sdlam = np.sin(sdlam)
        at_pole = np.abs(np.abs(phi) - HALFPI) < EPS10
        with np.errstate(invalid="ignore", divide="ignore"):
            tphi = np.where(at_pole, np.inf, sphi / np.where(at_pole, 1.0, cphi))
            Az = np.where(at_pole, np.where(phi < 0.0, PI, 0.0),
                          np.arctan2(sdlam, _C45 * (tphi - cdlam)))
        tag = Az > _Azba
        # tag branch (Azab cone)
        sdlam_b = lam + _R110
        cdlam_b = np.cos(sdlam_b)
        sdlam_b = np.sin(sdlam_b)
        z_b = _S20 * sphi + _C20 * cphi * cdlam_b
        bad = tag & (np.abs(z_b) > ONEEPS)
        z_b = np.arccos(np.clip(z_b, -1.0, 1.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            Az_b = np.where(np.isinf(tphi), Az,
                            np.arctan2(sdlam_b, _C20 * tphi - _S20 * cdlam_b))
        # non-tag branch (Azba cone)
        z_a = _S45 * (sphi + cphi * cdlam)
        bad = bad | (~tag & (np.abs(z_a) > ONEEPS))
        z_a = np.arccos(np.clip(z_a, -1.0, 1.0))

        z = np.where(tag, z_b, z_a)
        Az = np.where(tag, Az_b, Az)
        Av = np.where(tag, _Azab, _Azba)
        y0 = np.where(tag, _rhoc, -_rhoc)
        bad = bad | (z < 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.power(np.tan(0.5 * z), _n)
            r = _F * t
            al = 0.5 * (_R104 - z)
            bad = bad | (al < 0.0)
            al = (t + np.power(np.maximum(al, 0.0), _n)) / _T
            bad = bad | (np.abs(al) > ONEEPS)
            al = np.arccos(np.clip(al, -1.0, 1.0))
            tv = _n * (Av - Az)
            adj = np.abs(tv) < al
            r = np.where(adj, r / np.cos(al + np.where(tag, tv, -tv)), r)
        x = r * np.sin(tv)
        y = y0 + np.where(tag, -r, r) * np.cos(tv)
        if noskew:
            t2 = x
            x = -x * _cAzc - y * _sAzc
            y = -y * _cAzc + t2 * _sAzc
        return np.where(bad, HUGE, x), np.where(bad, HUGE, y)

    def inv(x, y):
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        if noskew:
            with np.errstate(invalid="ignore"):
                t2 = x.copy()
                x = -x * _cAzc + y * _sAzc
                y = -y * _cAzc - t2 * _sAzc
        neg = x < 0.0
        y = np.where(neg, _rhoc - y, y + _rhoc)
        s = np.where(neg, _S20, _S45)
        c = np.where(neg, _C20, _C45)
        Av = np.where(neg, _Azab, _Azba)
        r = np.hypot(x, y)
        rp = r.copy()
        rl = r.copy()
        Az = np.arctan2(x, y)
        fAz = np.abs(Az)
        converged = np.zeros(r.shape, dtype=bool)
        z = np.zeros_like(r)
        errstate = np.errstate(invalid="ignore", divide="ignore")
        errstate.__enter__()
        for _ in range(10):
            with np.errstate(invalid="ignore", divide="ignore"):
                z = 2.0 * np.arctan(np.power(r / _F, 1.0 / _n))
                al = np.arccos(np.clip(
                    (np.power(np.tan(0.5 * z), _n)
                     + np.power(np.tan(0.5 * (_R104 - z)), _n)) / _T, -1.0, 1.0))
                r = np.where(fAz < al,
                             rp * np.cos(al + np.where(neg, Az, -Az)), r)
            done = np.abs(rl - r) < 1e-10
            converged |= done
            rl = r.copy()
            if np.all(done):
                break
        errstate.__exit__(None, None, None)
        Az2 = Av - Az / _n
        phi = np.arcsin(np.clip(s * np.cos(z) + c * np.sin(z) * np.cos(Az2), -1, 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.arctan2(np.sin(Az2), c / np.tan(z) - s * np.cos(Az2))
        lam = np.where(neg, lam - _R110, _lamB - lam)
        lam = np.where(converged, lam, HUGE)
        phi = np.where(converged, phi, HUGE)
        return lam, phi

    P.fwd = fwd
    P.inv = inv
