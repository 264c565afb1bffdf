"""Projection kernels, wave 10: simple conics family, Swiss oblique
Mercator, Goode homolosine composite, oblique cylindrical equal area.

Reference parity:
- euler/murd1/murd2/murd3/pconic/tissot/vitk1 <- src/PJ_sconics.c
- somerc (CH1903)                             <- src/PJ_somerc.c
- goode (sinu+moll composite)                 <- src/PJ_goode.c
- ocea (incl. the reference's historical a-in-rok/rtk double-scaling
  quirk, replicated for parity)               <- src/PJ_ocea.c
"""

from __future__ import annotations

import numpy as np

from .common import FORTPI, HALFPI, HUGE, PI, aasin, iterate_lanes
from .projections import register
from .projections2 import _gn_sinu_sph
from .projections2 import setup_moll as _setup_moll


def _sconic(P, ptype):
    EPS = 1e-10
    if not (P.param_t("lat_1") and P.param_t("lat_2")):
        raise ValueError("sconic: lat_1/lat_2 required (-41)")
    p1 = P.param_r("lat_1")
    p2 = P.param_r("lat_2")
    del_ = 0.5 * (p2 - p1)
    sig = 0.5 * (p2 + p1)
    if abs(del_) < EPS or abs(sig) < EPS:
        raise ValueError("sconic: degenerate lat_1/lat_2 (-42)")
    P.es = 0.0
    c1 = c2 = rho_c = rho_0 = 0.0
    if ptype == "tissot":
        n = np.sin(sig)
        cs = np.cos(del_)
        rho_c = n / cs + cs / n
        rho_0 = np.sqrt((rho_c - 2.0 * np.sin(P.phi0)) / n)
    elif ptype == "murd1":
        rho_c = np.sin(del_) / (del_ * np.tan(sig)) + sig
        rho_0 = rho_c - P.phi0
        n = np.sin(sig)
    elif ptype == "murd2":
        cs = np.sqrt(np.cos(del_))
        rho_c = cs / np.tan(sig)
        rho_0 = rho_c + np.tan(sig - P.phi0)
        n = np.sin(sig) * cs
    elif ptype == "murd3":
        rho_c = del_ / (np.tan(sig) * np.tan(del_)) + sig
        rho_0 = rho_c - P.phi0
        n = np.sin(sig) * np.sin(del_) * np.tan(del_) / (del_ * del_)
    elif ptype == "euler":
        n = np.sin(sig) * np.sin(del_) / del_
        d2 = del_ * 0.5
        rho_c = d2 / (np.tan(d2) * np.tan(sig)) + sig
        rho_0 = rho_c - P.phi0
    elif ptype == "pconic":
        n = np.sin(sig)
        c2 = np.cos(del_)
        c1 = 1.0 / np.tan(sig)
        dd = P.phi0 - sig
        if abs(dd) - 1e-10 >= HALFPI:
            raise ValueError("pconic: |phi0 - sig| >= 90 (-43)")
        rho_0 = c2 * (c1 - np.tan(dd))
    elif ptype == "vitk1":
        cs = np.tan(del_)
        n = cs * np.sin(sig) / del_
        rho_c = del_ / (cs * np.tan(sig)) + sig
        rho_0 = rho_c - P.phi0
    n = float(n)
    rho_c, rho_0, c1, c2, sig = map(float, (rho_c, rho_0, c1, c2, sig))

    def fwd(lam, phi):
        if ptype == "murd2":
            rho = rho_c + np.tan(sig - phi)
        elif ptype == "pconic":
            rho = c2 * (c1 - np.tan(phi - sig))
        else:
            rho = rho_c - phi
        lamn = lam * n
        return rho * np.sin(lamn), rho_0 - rho * np.cos(lamn)

    def inv(x, y):
        y = rho_0 - y
        rho = np.hypot(x, y)
        if n < 0.0:
            rho = -rho
            x = -x
            y = -y
        lam = np.arctan2(x, y) / n
        if ptype == "pconic":
            phi = np.arctan(c1 - rho / c2) + sig
        elif ptype == "murd2":
            phi = sig - np.arctan(rho - rho_c)
        else:
            phi = rho_c - rho
        return lam, phi

    P.fwd = fwd
    P.inv = inv


for _t in ("euler", "murd1", "murd2", "murd3", "pconic", "tissot", "vitk1"):
    def _mk(t):
        def setup(P):
            _sconic(P, t)
        return setup
    register(_t)(_mk(_t))


@register("somerc")
def setup_somerc(P):
    e = P.e
    es = P.es
    rone_es = P.rone_es
    hlf_e = 0.5 * e
    cp = np.cos(P.phi0) ** 2
    c = np.sqrt(1.0 + es * cp * cp * rone_es)
    sp = np.sin(P.phi0)
    sinp0 = sp / c
    phip0 = float(aasin(sinp0))
    cosp0 = float(np.cos(phip0))
    spe = sp * e
    K = np.log(np.tan(FORTPI + 0.5 * phip0)) - c * (
        np.log(np.tan(FORTPI + 0.5 * P.phi0))
        - hlf_e * np.log((1.0 + spe) / (1.0 - spe)))
    kR = P.k0 * np.sqrt(P.one_es) / (1.0 - spe * spe)
    c, K, kR, sinp0 = float(c), float(K), float(kR), float(sinp0)

    def fwd(lam, phi):
        sp_ = e * np.sin(phi)
        phip = 2.0 * np.arctan(np.exp(c * (
            np.log(np.tan(FORTPI + 0.5 * phi))
            - hlf_e * np.log((1.0 + sp_) / (1.0 - sp_))) + K)) - HALFPI
        lamp = c * lam
        cp_ = np.cos(phip)
        phipp = aasin(cosp0 * np.sin(phip) - sinp0 * cp_ * np.cos(lamp))
        lampp = aasin(cp_ * np.sin(lamp) / np.cos(phipp))
        return kR * lampp, kR * np.log(np.tan(FORTPI + 0.5 * phipp))

    def step(p, con):
        esp = e * np.sin(p)
        delp = (con + np.log(np.tan(FORTPI + 0.5 * p))
                - hlf_e * np.log((1.0 + esp) / (1.0 - esp))) * (
            1.0 - esp * esp) * np.cos(p) * rone_es
        return p - delp, np.abs(delp) < 1e-10

    def inv(x, y):
        phipp = 2.0 * (np.arctan(np.exp(y / kR)) - FORTPI)
        lampp = x / kR
        cp_ = np.cos(phipp)
        phip = aasin(cosp0 * np.sin(phipp) + sinp0 * cp_ * np.cos(lampp))
        lamp = aasin(cp_ * np.sin(lampp) / np.cos(phip))
        con = (K - np.log(np.tan(FORTPI + 0.5 * phip))) / c
        phip = np.array(phip, dtype=np.float64, copy=True)
        phip, converged = iterate_lanes(step, phip, (con,), 6, np.isfinite(phip))
        lam = lamp / c
        phip = np.where(converged, phip, HUGE)
        lam = np.where(converged, lam, HUGE)
        return lam, phip

    P.fwd = fwd
    P.inv = inv


@register("goode")
def setup_goode(P):
    """Composite: sinusoidal within |phi| <= 40d44', Mollweide (with the
    0.0528 y-shift) outside — two inner operators like the reference's
    nested PJconsts."""
    P.es = 0.0
    Y_COR = 0.05280
    PHI_LIM = 0.71093078197902358062

    class _Sub:
        pass

    sinu = _Sub()
    moll = _Sub()
    _gn_sinu_sph(sinu, 0.0, 1.0)
    _setup_moll(moll)

    def fwd(lam, phi):
        xs, ys = sinu.fwd(lam, phi)
        xm, ym = moll.fwd(lam, phi)
        ym = ym - np.where(phi >= 0.0, Y_COR, -Y_COR)
        use_sinu = np.abs(phi) <= PHI_LIM
        return np.where(use_sinu, xs, xm), np.where(use_sinu, ys, ym)

    def inv(x, y):
        ls, ps = sinu.inv(x, y)
        ym = y + np.where(y >= 0.0, Y_COR, -Y_COR)
        lm, pm = moll.inv(x, ym)
        use_sinu = np.abs(y) <= PHI_LIM
        return np.where(use_sinu, ls, lm), np.where(use_sinu, ps, pm)

    P.fwd = fwd
    P.inv = inv


@register("ocea")
def setup_ocea(P):
    # NOTE: replicates the reference's historical quirk of baking P->a
    # into rok/rtk even though the generic wrapper scales by a again
    # (PJ_ocea.c:41-42) — outputs match the reference, quirk and all.
    rok = P.a / P.k0
    rtk = P.a * P.k0
    if P.param_t("alpha"):
        alpha = P.param_r("alpha")
        lonz = P.param_r("lonc")
        phi_0 = 0.0
        singam = np.arctan(-np.cos(alpha) / (-np.sin(phi_0) * np.sin(alpha))) + lonz
        sinphi = np.arcsin(np.cos(phi_0) * np.sin(alpha))
    else:
        phi_1 = P.param_r("lat_1")
        phi_2 = P.param_r("lat_2")
        lam_1 = P.param_r("lon_1")
        lam_2 = P.param_r("lon_2")
        singam = np.arctan2(
            np.cos(phi_1) * np.sin(phi_2) * np.cos(lam_1)
            - np.sin(phi_1) * np.cos(phi_2) * np.cos(lam_2),
            np.sin(phi_1) * np.cos(phi_2) * np.sin(lam_2)
            - np.cos(phi_1) * np.sin(phi_2) * np.sin(lam_1))
        sinphi = np.arctan(-np.cos(singam - lam_1) / np.tan(phi_1))
    P.lam0 = float(singam + HALFPI)
    cosphi = float(np.cos(sinphi))
    sinphi = float(np.sin(sinphi))
    P.es = 0.0

    def fwd(lam, phi):
        yv = np.sin(lam)
        t = np.cos(lam)
        x = np.arctan((np.tan(phi) * cosphi + sinphi * yv) / t)
        x = np.where(t < 0.0, x + PI, x)
        x = x * rtk
        y = rok * (sinphi * np.sin(phi) - cosphi * np.cos(phi) * yv)
        return x, y

    def inv(x, y):
        yv = y / rok
        xv = x / rtk
        t = np.sqrt(np.maximum(1.0 - yv * yv, 0.0))
        s = np.sin(xv)
        phi = np.arcsin(np.clip(yv * sinphi + t * cosphi * s, -1.0, 1.0))
        lam = np.arctan2(t * sinphi * s - yv * cosphi, t * np.cos(xv))
        return lam, phi

    P.fwd = fwd
    P.inv = inv


# ---------------------------------------------------------------------------
# Modified stereographic family (Snyder & Linck): complex-polynomial
# warped stereographic for regional grids (src/PJ_mod_ster.c).
# ---------------------------------------------------------------------------

from .common import DEG_TO_RAD  # noqa: E402
from .projections8 import zpoly1, zpolyd1  # noqa: E402

_MOD_STER_SETS = {
    "mil_os": dict(coef=[0.924500 + 0j, 0j, 0.019430 + 0j],
                   lam0=20.0, phi0=18.0, sphere=True),
    "lee_os": dict(coef=[0.721316 + 0j, 0j, -0.0088162 - 0.00617325j],
                   lam0=-165.0, phi0=-10.0, sphere=True),
    "gs48": dict(coef=[0.98879 + 0j, 0j, -0.050909 + 0j, 0j, 0.075528 + 0j],
                 lam0=-96.0, phi0=-39.0, sphere=True, a=6370997.0),
    "alsk": dict(
        coef_e=[0.9945303 + 0j, 0.0052083 - 0.0027404j, 0.0072721 + 0.0048181j,
                -0.0151089 - 0.1932526j, 0.0642675 - 0.1381226j,
                0.3582802 - 0.2884586j],
        coef_s=[0.9972523 + 0j, 0.0052513 - 0.0041175j, 0.0074606 + 0.0048125j,
                -0.0153783 - 0.1968253j, 0.0636871 - 0.1408027j,
                0.3660976 - 0.2937382j],
        lam0=-152.0, phi0=64.0),
    "gs50": dict(
        coef_e=[0.9827497 + 0j, 0.0210669 + 0.0053804j, -0.1031415 - 0.0571664j,
                -0.0323337 - 0.0322847j, 0.0502303 + 0.1211983j,
                0.0251805 + 0.0895678j, -0.0012315 - 0.1416121j,
                0.0072202 - 0.1317091j, -0.0194029 + 0.0759677j,
                -0.0210072 + 0.0834037j],
        coef_s=[0.9842990 + 0j, 0.0211642 + 0.0037608j, -0.1036018 - 0.0575102j,
                -0.0329095 - 0.0320119j, 0.0499471 + 0.1223335j,
                0.0260460 + 0.0899805j, 0.0007388 - 0.1435792j,
                0.0075848 - 0.1334108j, -0.0216473 + 0.0776645j,
                -0.0225161 + 0.0853673j],
        lam0=-120.0, phi0=45.0),
}


def _mod_ster_setup(P, name):
    spec = _MOD_STER_SETS[name]
    P.lam0 = DEG_TO_RAD * spec["lam0"]
    P.phi0 = DEG_TO_RAD * spec["phi0"]
    if spec.get("sphere"):
        # the C zeroes P->es but NOT P->e (PJ_mod_ster.c mil_os/
        # lee_os/gs48 entries): the forward/inverse chi computation
        # keeps the USER's eccentricity while setup's chio test sees
        # es == 0 and uses the geodetic phi0 — a faithful reference
        # inconsistency (output depends on the +ellps given)
        P.es = 0.0
        coef = np.array(spec["coef"])
        if "a" in spec:
            # pj_init's ra stays computed from the USER ellipse
            # (pj_init.c:473) — pj_inv divides by the stale value
            P.a = spec["a"]
    else:
        # fixed Clarke 1866 ellipsoid or authalic sphere (PJ_mod_ster.c)
        if P.es:
            coef = np.array(spec["coef_e"])
            P.a = 6378206.4
            P.es = 0.00676866
            P.e = np.sqrt(P.es)
        else:
            coef = np.array(spec["coef_s"])
            P.a = 6370997.0
        # ra/one_es/rone_es stay the pj_init (user-ellipse) values
    e = P.e
    phi0 = P.phi0
    if P.es:
        esphi = e * np.sin(phi0)
        chio = 2.0 * np.arctan(np.tan((HALFPI + phi0) * 0.5)
                               * ((1.0 - esphi) / (1.0 + esphi)) ** (e * 0.5)) - HALFPI
    else:
        chio = phi0
    schio = float(np.sin(chio))
    cchio = float(np.cos(chio))

    def fwd(lam, phi):
        sinlon = np.sin(lam)
        coslon = np.cos(lam)
        if e:
            esphi = e * np.sin(phi)
            chi = 2.0 * np.arctan(np.tan((HALFPI + phi) * 0.5)
                                  * np.power((1.0 - esphi) / (1.0 + esphi), e * 0.5)) - HALFPI
        else:
            chi = phi
        schi = np.sin(chi)
        cchi = np.cos(chi)
        s = 2.0 / (1.0 + schio * schi + cchio * cchi * coslon)
        z = s * cchi * sinlon + 1j * (s * (cchio * schi - schio * cchi * coslon))
        p = zpoly1(z, coef)
        return p.real, p.imag

    def step(ph, chi):
        esphi = e * np.sin(ph)
        dphi = (2.0 * np.arctan(np.tan((HALFPI + chi) * 0.5)
                * np.power((1.0 + esphi) / (1.0 - esphi), e * 0.5))
                - HALFPI - ph)
        return ph + dphi, np.abs(dphi) <= 1e-10

    def inv(x, y):
        target = np.asarray(x, dtype=np.float64) + 1j * np.asarray(y, dtype=np.float64)
        p = target.copy()
        converged = np.zeros(p.shape, dtype=bool)
        for _ in range(20):
            f, fp = zpolyd1(p, coef)
            f = f - target
            den = fp.real * fp.real + fp.imag * fp.imag
            dr = -(f.real * fp.real + f.imag * fp.imag) / den
            di = -(f.imag * fp.real - f.real * fp.imag) / den
            p = p + dr + 1j * di
            done = (np.abs(dr) + np.abs(di)) <= 1e-10
            converged |= done
            if np.all(done):
                break
        rh = np.abs(p)
        z2 = 2.0 * np.arctan(0.5 * rh)
        sinz = np.sin(z2)
        cosz = np.cos(z2)
        small = np.abs(rh) <= 1e-10
        with np.errstate(invalid="ignore", divide="ignore"):
            chi = aasin(cosz * schio + p.imag * sinz * cchio / np.where(small, 1.0, rh))
        if e:
            phi, conv2 = iterate_lanes(step, np.array(chi, copy=True), (chi,), 20,
                                       np.isfinite(chi) & ~small)
            converged = converged & (conv2 | small)
        else:
            phi = chi
        lam = np.arctan2(p.real * sinz,
                         rh * cchio * cosz - p.imag * schio * sinz)
        phi = np.where(small, phi0, phi)
        lam = np.where(small, 0.0, lam)
        phi = np.where(converged | small, phi, HUGE)
        lam = np.where(converged | small, lam, HUGE)
        return lam, phi

    P.fwd = fwd
    P.inv = inv


for _name in ("mil_os", "lee_os", "gs48", "alsk", "gs50"):
    def _mk2(nm):
        def setup(P):
            _mod_ster_setup(P, nm)
        return setup
    register(_name)(_mk2(_name))
