"""Shared vectorized math kernels (PROJ.4-equivalent, pure NumPy).

Every function here is a pure ``ndarray -> ndarray`` kernel with **no Ray
imports**, mirroring the scalar helpers of the reference implementation:

- ``adjlon``        <- reference src/adjlon.c:9-15
- ``tsfn``          <- reference src/pj_tsfn.c:5-10
- ``msfn``          <- reference src/pj_msfn.c:4-7
- ``iterate_lanes`` <- the reference's per-point fixed-point loops, per lane
- ``phi2``          <- reference src/pj_phi2.c:8-25
- ``enfn/mlfn/inv_mlfn`` <- reference src/pj_mlfn.c:22-57
- ``aasin/aacos/asqrt/aatan2`` <- reference src/aasincos.c:7-35

Error/sentinel convention: invalid results become ``np.inf`` (the
reference's HUGE_VAL, src/pj_fwd.c:12-14); downstream steps skip
non-finite lanes so one bad point never poisons a batch
(src/pj_transform.c:70-76 transient-error semantics).
"""

from __future__ import annotations

import numpy as np

HALFPI = 1.5707963267948966
FORTPI = 0.78539816339744833
PI = 3.14159265358979323846
TWOPI = 6.2831853071795864769
# adjlon() uses a slightly truncated PI for its fast-path test
# (reference src/adjlon.c:5-7) -- replicated for bit-parity.
_SPI = 3.14159265359

SEC_TO_RAD = 4.84813681109535993589914102357e-6  # src/pj_datum_set.c:35
DEG_TO_RAD = 0.0174532925199432958
RAD_TO_DEG = 57.29577951308232
# dmstor()'s degree multiplier is truncated relative to DEG_TO_RAD
# (reference src/dmstor.c:12-17); kept for parity in string parsing only.
DMS_DEG = 0.0174532925199433
DMS_MIN = 0.0002908882086657216
DMS_SEC = 0.0000048481368110953599

SRS_WGS84_SEMIMAJOR = 6378137.0
SRS_WGS84_ESQUARED = 0.0066943799901413165  # src/pj_transform.c:45-49

HUGE = np.inf


def adjlon(lon: np.ndarray) -> np.ndarray:
    """Wrap longitude(s) to (-pi, pi]. Vectorized src/adjlon.c:9-15."""
    lon = np.asarray(lon, dtype=np.float64)
    out = lon.copy()
    with np.errstate(invalid="ignore"):
        m = np.abs(lon) > _SPI
    if np.any(m):
        with np.errstate(invalid="ignore"):
            v = lon[m] + PI
            v -= TWOPI * np.floor(v / TWOPI)
            v -= PI
        out[m] = v
    return out


def tsfn(phi: np.ndarray, sinphi: np.ndarray, e: float) -> np.ndarray:
    """'small t' for conformal projections. src/pj_tsfn.c:5-10."""
    con = sinphi * e
    return np.tan(0.5 * (HALFPI - phi)) / np.power((1.0 - con) / (1.0 + con), 0.5 * e)


def msfn(sinphi: np.ndarray, cosphi: np.ndarray, es: float) -> np.ndarray:
    """'small m'. src/pj_msfn.c:4-7."""
    return cosphi / np.sqrt(1.0 - es * sinphi * sinphi)


def settle(go, state, idx, lanes, rest):
    """Write the stopping lanes (``~go``) of the compacted iterate
    ``lanes`` back to the ``state`` arrays at ``idx``; return the
    remaining lanes of ``idx``, ``lanes`` and ``rest`` (scalars in
    ``rest`` pass through).  Integer indices, not boolean masks: a
    scattered mask costs several times a ``take``."""
    keep = np.flatnonzero(go)
    stop = np.flatnonzero(~go)
    at = idx.take(stop)
    for s, v in zip(state, lanes):
        s[at] = v.take(stop)
    return (idx.take(keep), tuple(v.take(keep) for v in lanes),
            tuple(r.take(keep) if np.ndim(r) else r for r in rest))


def iterate_lanes(step, state, args, maxiter, active):
    """Run the per-point fixed-point loop of the reference (pj_mlfn.c,
    pj_phi2.c, geocent.c, the projections' Newton loops) over lanes.

    ``step(*lanes, *args)`` maps the unsettled lanes' state and args to
    ``(new_state, done)``.  ``state`` is one 1-D array or a tuple of
    them, owned by the caller and updated in place: each lane of
    ``active`` gets its iterate once, on the pass that settles it or
    after the last of ``maxiter`` passes; other lanes stay untouched.
    The loop works on the compacted unsettled lanes, and the array args
    are gathered once (scalar args pass through).  While every lane
    runs, ``step`` gets the caller's arrays themselves, so it must not
    write its inputs.  Returns ``(state, converged)``; the caller keeps
    its own rule for a lane that hit the cap.

    Loops that keep their own code: robin's and natearth's inverses,
    like the other loops that test ``np.all(done)``, stop all lanes
    together, not lane by lane; ``karney._newton_inverse``
    brackets its roots and its step depends on the pass number (it may
    bisect only after ``_MAXIT1`` passes); ``grid.nad_cvt``'s last pass
    fails its lanes without the convergence test (nad_cvt.c), though it
    shares ``settle``; ``geodesic.vincenty_*`` is a kept reference.
    """
    single = isinstance(state, np.ndarray)
    state = (state,) if single else tuple(state)
    idx = np.flatnonzero(active)
    if idx.size == active.size:
        lanes = state
    else:
        lanes = tuple(s.take(idx) for s in state)
        args = tuple(a.take(idx) if np.ndim(a) else a for a in args)
    for _ in range(maxiter):
        if idx.size == 0:
            break
        new, done = step(*lanes, *args)
        lanes = (new,) if single else new
        if done.any():
            idx, lanes, args = settle(~done, state, idx, lanes, args)
    for s, v in zip(state, lanes):  # the cap: keep the last iterate
        s[idx] = v
    converged = active.copy()
    converged[idx] = False
    return (state[0] if single else state), converged


def theta_step(t, k):
    """One Newton step of ``t + sin(t) = k`` to 1e-7, the auxiliary angle
    of moll/wag4/wag5, nell, wink2, boggs and hatano (PJ_moll.c:22-27)."""
    V = (t + np.sin(t) - k) / (1.0 + np.cos(t))
    return t - V, np.abs(V) < 1e-7


def phi2(ts: np.ndarray, e: float) -> np.ndarray:
    """Inverse of tsfn: conformal -> geodetic latitude.

    Per-lane fixed-point iteration replicating src/pj_phi2.c:8-25
    (TOL 1e-10, <=15 iterations, update-then-test order). Elements that
    fail to converge become inf (errno -18 in the reference).
    """
    ts = np.asarray(ts, dtype=np.float64)
    eccnth = 0.5 * e

    def step(phi, ts):
        con = e * np.sin(phi)
        dphi = HALFPI - 2.0 * np.arctan(ts * np.power((1.0 - con) / (1.0 + con), eccnth)) - phi
        return phi + dphi, ~(np.abs(dphi) > 1.0e-10)

    phi = HALFPI - 2.0 * np.arctan(ts)
    active = np.isfinite(phi)
    phi, ok = iterate_lanes(step, phi, (ts,), 15, active)
    phi[~np.isfinite(ts) | (active & ~ok)] = HUGE
    return phi


def enfn(es: float) -> np.ndarray:
    """Meridional-distance series coefficients. src/pj_mlfn.c:22-40."""
    C00, C02, C04, C06, C08 = 1.0, 0.25, 0.046875, 0.01953125, 0.01068115234375
    C22, C44, C46, C48 = 0.75, 0.46875, 0.01302083333333333333, 0.00712076822916666666
    C66, C68, C88 = 0.36458333333333333333, 0.00569661458333333333, 0.3076171875
    en = np.empty(5, dtype=np.float64)
    en[0] = C00 - es * (C02 + es * (C04 + es * (C06 + es * C08)))
    en[1] = es * (C22 - es * (C04 + es * (C06 + es * C08)))
    t = es * es
    en[2] = t * (C44 - es * (C46 + es * C48))
    t *= es
    en[3] = t * (C66 - es * C68)
    en[4] = t * es * C88
    return en


def mlfn(phi: np.ndarray, sphi: np.ndarray, cphi: np.ndarray, en: np.ndarray) -> np.ndarray:
    """Meridional distance. src/pj_mlfn.c:41-47."""
    cphi = cphi * sphi
    sphi = sphi * sphi
    return en[0] * phi - cphi * (en[1] + sphi * (en[2] + sphi * (en[3] + sphi * en[4])))


def inv_mlfn(arg: np.ndarray, es: float, en: np.ndarray) -> np.ndarray:
    """Newton inverse of mlfn. src/pj_mlfn.c:48-57 (EPS 1e-11, <=10 iters)."""
    arg = np.asarray(arg, dtype=np.float64)
    k = 1.0 / (1.0 - es)

    def step(p, arg):
        s = np.sin(p)
        t = 1.0 - es * s * s
        d = (mlfn(p, s, np.cos(p), en) - arg) * (t * np.sqrt(t)) * k
        return p - d, np.abs(d) < 1e-11

    # non-convergence leaves last iterate (reference returns phi with errno -17)
    return iterate_lanes(step, arg.copy(), (arg,), 10, np.isfinite(arg))[0]


_ONE_TOL = 1.00000000000001  # aasincos.c:3


def aasin(v: np.ndarray) -> np.ndarray:
    """arcsin clamped within ONE_TOL; beyond it the lane is an error
    (reference sets errno -19 -> HUGE_VAL result; batch engines mark
    the lane NaN instead). src/aasincos.c:7-17."""
    v = np.asarray(v, dtype=np.float64)
    out = np.arcsin(np.clip(v, -1.0, 1.0))
    return np.where(np.abs(v) > _ONE_TOL, np.nan, out)


def aacos(v: np.ndarray) -> np.ndarray:
    """arccos with the same ONE_TOL error semantics. aasincos.c:19-28."""
    v = np.asarray(v, dtype=np.float64)
    out = np.arccos(np.clip(v, -1.0, 1.0))
    return np.where(np.abs(v) > _ONE_TOL, np.nan, out)


def asqrt(v: np.ndarray) -> np.ndarray:
    """sqrt clamped at 0. src/aasincos.c:29-30."""
    return np.sqrt(np.maximum(v, 0.0))


def aatan2(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """atan2 that returns 0 when both args ~0. src/aasincos.c:31-35."""
    ATOL = 1e-50
    both_small = (np.abs(n) < ATOL) & (np.abs(d) < ATOL)
    return np.where(both_small, 0.0, np.arctan2(n, d))
