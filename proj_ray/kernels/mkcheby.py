"""C-exact port of the reference's Chebyshev approximation generator
(src/mk_cheby.c, src/bchgen.c, src/bch2bps.c) and its text dump
(src/p_series.c) — the machinery behind ``proj -T``.

Floating-point accumulation order is preserved everywhere (the double
DCT in bchgen accumulates k in index order; the Clenshaw-style power
conversion mirrors the C loop nests), so the printed coefficient
tables match the binary byte-for-byte at the same print format.

This module exists for the CLI surface (``cli._gen_cheby``).
"""

from __future__ import annotations

import numpy as np

from .common import PI


def bchgen(a, b, nu, nv, func):
    """Bivariate Chebyshev coefficients of ``func`` over [a, b]
    (src/bchgen.c): evaluate on the Chebyshev grid, then two cosine
    transforms.  ``func(u_arr, v_arr) -> (x_arr, y_arr)`` vectorized;
    a HUGE/inf result anywhere aborts (returns None like the C's
    nonzero).  Returns (fu, fv) arrays of shape (nu, nv)."""
    bma_u = 0.5 * (b[0] - a[0])
    bma_v = 0.5 * (b[1] - a[1])
    bpa_u = 0.5 * (b[0] + a[0])
    bpa_v = 0.5 * (b[1] + a[1])
    iu = np.arange(nu, dtype=np.float64)
    jv = np.arange(nv, dtype=np.float64)
    gu = np.cos(PI * (iu + 0.5) / nu) * bma_u + bpa_u
    gv = np.cos(PI * (jv + 0.5) / nv) * bma_v + bpa_v
    U = np.repeat(gu, nv)
    V = np.tile(gv, nu)
    x, y = func(U, V)
    fu = np.asarray(x, dtype=np.float64).reshape(nu, nv)
    fv = np.asarray(y, dtype=np.float64).reshape(nu, nv)
    if not (np.isfinite(fu).all() and np.isfinite(fv).all()):
        return None

    # first transform (over the u index), k accumulated IN ORDER
    # (bchgen.c:21-36): d = cos(PI * i * (k + .5) / nu)
    fac = 2.0 / nu
    acc_u = np.zeros((nu, nv))
    acc_v = np.zeros((nu, nv))
    for k in range(nu):
        d = np.cos((PI * iu) * (k + 0.5) / nu)  # per output row i
        acc_u += d[:, None] * fu[k, :][None, :]
        acc_v += d[:, None] * fv[k, :][None, :]
    fu = acc_u * fac
    fv = acc_v * fac

    # second transform (over the v index), same order (bchgen.c:38-55)
    fac = 2.0 / nv
    acc_u = np.zeros((nu, nv))
    acc_v = np.zeros((nu, nv))
    for k in range(nv):
        d = np.cos((PI * jv) * (k + 0.5) / nv)  # per output col j
        acc_u += d[None, :] * fu[:, k][:, None]
        acc_v += d[None, :] * fv[:, k][:, None]
    return acc_u * fac, acc_v * fac


def _eval_resid(fu, fv, res):
    """Sum of |coefficients| below res (mk_cheby.c eval())."""
    au = np.abs(fu)
    av = np.abs(fv)
    return float(au[au < res].sum()), float(av[av < res].sum())


def _rows(c, n):
    """Chebyshev row -> power series (bch2bps.c rows()); c is a
    (n, 2) array of (u, v); returns d of the same shape."""
    d = np.zeros((n, 2))
    dd = np.zeros((n, 2))
    d[0] = c[n - 1]
    for j in range(n - 2, 0, -1):
        for k in range(n - j, 0, -1):
            sv = d[k].copy()
            d[k] = 2.0 * d[k - 1] - dd[k]
            dd[k] = sv
        sv = d[0].copy()
        d[0] = -dd[0] + c[j]
        dd[0] = sv
    for j in range(n - 1, 0, -1):
        d[j] = d[j - 1] - dd[j]
    d[0] = -dd[0] + 0.5 * c[0]
    return d


def _rowshft(a, b, d, n):
    cnst = 2.0 / (b - a)
    fac = cnst
    for j in range(1, n):
        d[j] *= fac
        fac *= cnst
    cnst = 0.5 * (a + b)
    for j in range(0, n - 1):
        for k in range(n - 2, j - 1, -1):
            d[k] -= cnst * d[k + 1]


def _cols(c, nu, nv):
    """bch2bps.c cols(): rows of (nv, 2) Chebyshev-in-u -> power."""
    d = np.zeros((nu, nv, 2))
    dd = np.zeros((nu, nv, 2))
    d[0] = c[nu - 1]
    for j in range(nu - 2, 0, -1):
        for k in range(nu - j, 0, -1):
            sv = d[k].copy()
            d[k] = 2.0 * d[k - 1] - dd[k]
            dd[k] = sv
        sv = d[0].copy()
        d[0] = c[j] - dd[0]
        dd[0] = sv
    for j in range(nu - 1, 0, -1):
        d[j] = d[j - 1] - dd[j]
    d[0] = 0.5 * c[0] - dd[0]
    return d


def _colshft(a, b, d, n):
    cnst = 2.0 / (b - a)
    fac = cnst
    for j in range(1, n):
        d[j] *= fac
        fac *= cnst
    cnst = 0.5 * (a + b)
    for j in range(0, n - 1):
        for k in range(n - 2, j - 1, -1):
            d[k] -= cnst * d[k + 1]


def bch2bps(a, b, fu, fv, nu, nv):
    """Chebyshev -> bivariate power series in place (src/bch2bps.c)."""
    c = np.stack([fu, fv], axis=-1)  # (nu, nv, 2)
    d = np.zeros_like(c)
    for i in range(nu):
        d[i] = _rows(c[i], nv)
        _rowshft(a[1], b[1], d[i], nv)
    c2 = _cols(d, nu, nv)
    _colshft(a[0], b[0], c2, nu)
    return c2[..., 0].copy(), c2[..., 1].copy()


class Tseries:
    """The PW_COEF rows layout: cu/cv lists of trailing-trimmed
    coefficient arrays (possibly empty), mu/mv = last non-empty row."""

    def __init__(self, cu, cv):
        self.cu = cu
        self.cv = cv
        self.mu = len(cu) - 1
        self.mv = len(cv) - 1


def mk_cheby(a, b, res, func, nu, nv, power):
    """src/mk_cheby.c: generate, cut below resolution (halving up to 4
    times until the residual fits), optionally convert to a power
    series, and pack trailing-trimmed rows.  Returns (Tseries, resid)
    or (None, None) on failure; resid.u is NEGATED when the residual
    never fit (the C's warn flag)."""
    got = bchgen(a, b, nu, nv, func)
    if got is None:
        return None, None
    fu, fv = got
    cutres = res
    resid = (0.0, 0.0)
    i = 4
    while i:
        resid = _eval_resid(fu, fv, cutres)
        if resid[0] < res and resid[1] < res:
            break
        cutres *= 0.5
        i -= 1
    if i <= 0:
        resid = (-resid[0], resid[1])
    fu = np.where(np.abs(fu) < cutres, 0.0, fu)
    fv = np.where(np.abs(fv) < cutres, 0.0, fv)
    if power:
        fu, fv = bch2bps(a, b, fu, fv, nu, nv)

    def pack(f):
        ncols = np.zeros(nu, dtype=int)
        for j in range(nu):
            nz = np.flatnonzero(f[j] != 0.0)
            ncols[j] = (nz[-1] + 1) if nz.size else 0
        nr = 0
        for j in range(nu):
            if ncols[j]:
                nr = j + 1
        return [f[i, :ncols[i]].copy() for i in range(nr)]

    return Tseries(pack(fu), pack(fv)), resid


def p_series(T, fmt, write):
    """src/p_series.c: the packed coefficient dump with the C's
    %n-based line wrapping (the width of the PREVIOUS token decides
    the wrap — ported quirk and all)."""
    CUT = 60

    def dump(label, rows):
        write(f"{label}: {len(rows)}\n")
        for i, c in enumerate(rows):
            m = len(c)
            if not m:
                continue
            head = f"{i} {m}"
            write(head)
            L = len(head)
            n = 0
            for v in c:
                L += n
                if L > CUT:
                    write("\n ")
                    L = 1
                tok = " " + fmt % v
                write(tok)
                n = len(tok)
            write("\n")

    dump("u", T.cu)
    dump("v", T.cv)
