"""Datum shift grids: model + vectorized bilinear interpolation + apply.

Replicates:
- ``CTABLE`` model (src/projects.h:344-369): regular lat/lon raster of
  float32 (d_lam, d_phi) radian pairs, lower-left origin ``ll``, cell
  size ``del``, dims ``lim``; NTv2-style child subgrids as a tree.
- ``nad_intr`` bilinear interpolation with edge snapping
  (src/nad_intr.c:5-62): one flat index per lane into a lazily built
  float64 copy of the grid's shifts (``ShiftGrid.flat``, not pickled),
  four ``take`` calls for the corners, and the snaps run only on lanes
  in the first or last column or row
- ``nad_cvt`` forward shift + fixed-point inverse (src/nad_cvt.c:6-68):
  at most MAX_TRY + 1 = 10 passes, TOL 1e-12, first-order fallback at
  the grid edge; a lane still iterating on its tenth pass is HUGE, as
  the C's ``while (i-- && ...)`` then ``if (i < 0)`` makes it
- ``pj_apply_gridshift_3`` ordered first-match multi-grid apply with
  epsilon-inflated bboxes and child-subgrid descent
  (src/pj_apply_gridshift.c:116-254); unmatched points pass through
  unshifted (the reference's non-severe fallback, line ~236). A
  childless first grid that covers the whole batch (``@null``) is
  applied without gathers.
- the ``@null`` no-op world grid (src/pj_gridlist.c:109-151) and
  ``@optional`` missing-grid semantics (src/pj_gridlist.c:185-190).

Grids are small (<< 1 GB); at scale they are broadcast once per worker
(``ray.put`` / actor ``__init__``), never reloaded per batch.
"""

from __future__ import annotations

import struct

import numpy as np

from .common import HUGE, PI, adjlon, settle


class ShiftGrid:
    """In-memory CTABLE-equivalent. ``cvs[j, i] = (d_lam, d_phi)`` radians
    at node (phi = ll_phi + j*del_phi, lam = ll_lam + i*del_lam)."""

    def __init__(self, grid_id, ll, delta, lim, cvs, children=None):
        self.id = str(grid_id)
        self.ll = (float(ll[0]), float(ll[1]))          # (lam, phi) radians
        self.delta = (float(delta[0]), float(delta[1]))  # (dlam, dphi) radians
        self.lim = (int(lim[0]), int(lim[1]))            # (nlam, nphi)
        cvs = np.asarray(cvs, dtype=np.float32)
        want = (self.lim[1], self.lim[0], 2)
        if cvs.shape != want:
            raise ValueError(f"grid {self.id!r}: shift array has shape "
                             f"{cvs.shape}, expected (nphi, nlam, 2) = {want}")
        self.cvs = cvs
        self.children = list(children or [])

    def __getstate__(self):
        # the lazily built caches (``_is_zero``, ``_flat``) are rebuilt on
        # first use: a grid shipped to a Ray worker carries only its nodes
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    @property
    def epsilon(self):
        # src/pj_apply_gridshift.c:150
        return (abs(self.delta[1]) + abs(self.delta[0])) / 10000.0

    def contains(self, lam, phi):
        """epsilon-inflated bbox test (src/pj_apply_gridshift.c:152-159)."""
        eps = self.epsilon
        ll_lam, ll_phi = self.ll
        dl, dp = self.delta
        nl, npq = self.lim
        return ~(
            (ll_phi - eps > phi)
            | (ll_lam - eps > lam)
            | (ll_phi + (npq - 1) * dp + eps < phi)
            | (ll_lam + (nl - 1) * dl + eps < lam)
        )

    @property
    def is_zero(self):
        """True when every shift value is zero (the '@null' grid and
        synthetic zero grids) — nad_cvt then short-circuits to the
        bit-identical zero-shift op chain.  Cached after one scan."""
        z = self.__dict__.get("_is_zero")
        if z is None:
            z = not self.cvs.any()
            self.__dict__["_is_zero"] = z
        return z

    @property
    def flat(self):
        """``(d_lam, d_phi)`` node shifts as two flat float64 arrays,
        node (j, i) at ``j*nlam + i``.  Widening float32 is exact, and it
        is the widening nad_intr.c's double arithmetic does.  Built on
        first use and cached."""
        f = self.__dict__.get("_flat")
        if f is None:
            f = tuple(self.cvs[..., c].astype(np.float64, order="C").ravel()
                      for c in (0, 1))
            self.__dict__["_flat"] = f
        return f

    @staticmethod
    def null_grid():
        """The '@null' 3x3 zero world grid (src/pj_gridlist.c:109-151)."""
        return ShiftGrid(
            "null",
            ll=(-PI, -PI / 2),
            delta=(PI, PI / 2),
            lim=(3, 3),
            cvs=np.zeros((3, 3, 2), dtype=np.float32),
        )


def _locate(t_lam, t_phi, grid: ShiftGrid):
    """In-grid mask, cell index and cell fraction of each lane for
    nad_intr's lookup, including the edge snapping
    (src/nad_intr.c:17-43)."""
    dl, dp = grid.delta
    nlam, nphi = grid.lim
    tl = t_lam / dl
    tp = t_phi / dp
    il = np.floor(tl)
    ip = np.floor(tp)
    fl = tl - il
    fp = tp - ip

    # the four snaps can only fire in the first or last column or row;
    # they run, in the C's order, on those lanes alone
    edge = np.flatnonzero((il == -1) | (il == nlam - 1) | (ip == -1) | (ip == nphi - 1))
    if edge.size:
        el, ef, ep, eg = il[edge], fl[edge], ip[edge], fp[edge]
        s = (el == -1) & (ef > 0.99999999999)
        el[s] += 1
        ef[s] = 0.0
        s = (el + 1 == nlam) & (ef < 1e-11)
        el[s] -= 1
        ef[s] = 1.0
        s = (ep == -1) & (eg > 0.99999999999)
        ep[s] += 1
        eg[s] = 0.0
        s = (ep + 1 == nphi) & (eg < 1e-11)
        ep[s] -= 1
        eg[s] = 1.0
        il[edge], fl[edge], ip[edge], fp[edge] = el, ef, ep, eg

    # NaN fails every bound and +-inf fails one, so non-finite lanes are out
    ok = (il >= 0) & (il + 1 < nlam) & (ip >= 0) & (ip + 1 < nphi)
    return ok, il, ip, fl, fp


def nad_intr(t_lam, t_phi, grid: ShiftGrid):
    """Vectorized bilinear lookup; inputs are offsets from grid ll in
    radians. Returns (d_lam, d_phi) with inf outside. src/nad_intr.c:5-62.

    Each corner is one ``take`` from the grid's flat float64 cache
    (``ShiftGrid.flat``) at ``k``, ``k+1``, ``k+nlam`` and ``k+nlam+1``.
    ``mode="clip"`` keeps the discarded lanes of a one-row or one-column
    grid in bounds."""
    ok, il, ip, fl, fp = _locate(t_lam, t_phi, grid)
    nlam = grid.lim[0]
    k = np.where(ok, ip * nlam + il, 0.0).astype(np.int64)
    k10 = k + 1
    k01 = k + nlam
    k11 = k01 + 1

    gl = 1.0 - fl
    gp = 1.0 - fp
    m11 = fl * fp
    m10 = fl * gp
    m01 = gl * fp
    m00 = gl * gp
    out = []
    for f in grid.flat:
        # match the reference's accumulation order (nad_intr.c:50-59)
        v = m00 * f.take(k, mode="clip")
        v += m10 * f.take(k10, mode="clip")
        v += m01 * f.take(k01, mode="clip")
        v += m11 * f.take(k11, mode="clip")
        out.append(v)
    if not ok.all():
        bad = ~ok
        for v in out:
            v[bad] = HUGE
    return out[0], out[1]


def nad_cvt(lam, phi, grid: ShiftGrid, inverse: bool):
    """Vectorized nad_cvt (src/nad_cvt.c:6-68). Returns shifted (lam, phi)
    with inf where the grid doesn't apply / iteration diverged.

    The inverse is the C's fixed point: at most ``MAX_TRY + 1`` passes
    of ``do {...} while (i-- && |dif| > TOL)`` from ``i = MAX_TRY``.  A
    lane still iterating on the last pass leaves the loop with ``i < 0``
    and is inf, even when that pass meets TOL; a lane that steps off the
    grid keeps its first-order approximation.  The loop works on the
    compacted active lanes and writes each lane back when it stops."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    ll_lam, ll_phi = grid.ll
    tb_lam = lam - ll_lam
    tb_phi = phi - ll_phi
    tb_lam = adjlon(tb_lam - PI) + PI

    if grid.is_zero:
        # zero-shift grid (the '@null' world grid, pj_gridlist.c:109-151):
        # the interpolated shift is exactly 0.0 and the inverse fixed
        # point converges on its first pass, so only the containment
        # mask and the reference's exact op chain remain — bit-identical
        # to the full path, without gathers or iteration
        ok = _locate(tb_lam, tb_phi, grid)[0]
        if not inverse:
            return (np.where(ok, lam - 0.0, HUGE),
                    np.where(ok, phi + 0.0, HUGE))
        out_lam = adjlon((tb_lam + 0.0) + ll_lam)
        out_phi = (tb_phi - 0.0) + ll_phi
        return (np.where(ok, out_lam, HUGE),
                np.where(ok, out_phi, HUGE))

    t_lam, t_phi = nad_intr(tb_lam, tb_phi, grid)
    outside = ~np.isfinite(t_lam)

    if not inverse:
        out_lam = np.where(outside, HUGE, lam - t_lam)
        out_phi = np.where(outside, HUGE, phi + t_phi)
        return out_lam, out_phi

    MAX_TRY, TOL = 9, 1e-12
    t_lam = np.where(outside, HUGE, tb_lam + t_lam)
    t_phi = np.where(outside, HUGE, tb_phi - t_phi)
    bad = outside.copy()
    idx = np.flatnonzero(~outside)
    cl, cp, bl, bp = t_lam[idx], t_phi[idx], tb_lam[idx], tb_phi[idx]
    for i in range(MAX_TRY, -1, -1):
        if idx.size == 0:
            break
        dl, dp = nad_intr(cl, cp, grid)
        inner = np.isfinite(dl)
        if not inner.all():
            # grid edge: keep the first-order approximation (nad_cvt.c:29-45)
            idx, (cl, cp), (bl, bp, dl, dp) = settle(
                inner, (t_lam, t_phi), idx, (cl, cp), (bl, bp, dl, dp))
        if i == 0:
            bad[idx] = True  # out of tries: i < 0 in the C
            break
        dif_lam = cl - dl - bl
        dif_phi = cp + dp - bp
        cl = cl - dif_lam
        cp = cp - dif_phi
        go = (np.abs(dif_lam) > TOL) & (np.abs(dif_phi) > TOL)
        if not go.all():
            idx, (cl, cp), (bl, bp) = settle(go, (t_lam, t_phi), idx, (cl, cp), (bl, bp))
    out_lam = adjlon(t_lam + ll_lam)
    out_phi = t_phi + ll_phi
    return np.where(bad, HUGE, out_lam), np.where(bad, HUGE, out_phi)


def _descend(grid: ShiftGrid, lam, phi):
    """Find the finest child subgrid containing each point (scalar-free
    approximation of src/pj_apply_gridshift.c:161-188: per point, descend
    to the first containing child, recursively)."""
    # returns list of (grid, index-array) partitions of the input indices
    idx_all = np.arange(lam.shape[0])
    if not grid.children:
        return [(grid, idx_all)]
    remaining = idx_all
    out = []
    for child in grid.children:
        if remaining.size == 0:
            break
        m = child.contains(lam[remaining], phi[remaining])
        took = remaining[m]
        if took.size:
            for g, sub in _descend(child, lam[took], phi[took]):
                out.append((g, took[sub]))
        remaining = remaining[~m]
    if remaining.size:
        out.append((grid, remaining))
    return out


def apply_gridshift(grids, inverse: bool, lam, phi):
    """Ordered first-match multi-grid apply (pj_apply_gridshift_3,
    src/pj_apply_gridshift.c:116-254). Unmatched points pass through.

    When the first grid has no children and covers every lane (the
    '@null' world grid), the whole batch goes through one nad_cvt call
    with no gather or scatter; lanes that grid cannot shift go on to the
    later grids as in the general loop."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    done = ~np.isfinite(lam)  # error lanes stay untouched
    if grids and not grids[0].children and (grids[0].contains(lam, phi) | done).all():
        ol, op = nad_cvt(lam, phi, grids[0], inverse)
        moved = np.isfinite(ol)  # never true on an error lane
        if moved.all():
            return ol, op
        lam = np.where(moved, ol, lam)
        phi = np.where(moved, op, phi)
        done |= moved
        grids = grids[1:]
    else:
        lam = lam.copy()
        phi = phi.copy()
    for grid in grids:
        todo = np.flatnonzero(~done)
        if todo.size == 0:
            break
        inside = grid.contains(lam[todo], phi[todo])
        cand = todo[inside]
        if cand.size == 0:
            continue
        for g, sub in _descend(grid, lam[cand], phi[cand]):
            ids = cand[sub]
            ol, op = nad_cvt(lam[ids], phi[ids], g, inverse)
            okm = np.isfinite(ol)
            ok_ids = ids[okm]
            lam[ok_ids] = ol[okm]
            phi[ok_ids] = op[okm]
            done[ok_ids] = True
    return lam, phi


# ---------------------------------------------------------------------------
# CTABLE2 binary format read/write (dispatch src/pj_gridinfo.c:893-918,
# reader src/nad_init.c:85-175). Self-contained: fixtures generate their
# own grids; no external data files.
# ---------------------------------------------------------------------------

def write_ctable2(path: str, grid: ShiftGrid):
    """Write a CTABLE2 file with the reference's exact 160-byte header
    layout (src/nad2bin.c:180-192, nad_init.c:214-228): 16-byte magic,
    EIGHTY-byte id at offset 16, ll/del doubles at 96, lim int32s at
    128, zero pad to 160, then float32 (lam,phi) pairs LSB-first."""
    with open(path, "wb") as f:
        f.write(b"CTABLE V2.0     ")
        f.write(grid.id.encode()[:80].ljust(80, b"\0"))
        f.write(struct.pack("<dddd", grid.ll[0], grid.ll[1], grid.delta[0], grid.delta[1]))
        f.write(struct.pack("<ii", grid.lim[0], grid.lim[1]))
        f.write(b"\0" * (160 - 136))
        f.write(np.ascontiguousarray(grid.cvs, dtype="<f4").tobytes())


def read_ctable2(path: str) -> ShiftGrid:
    """Read a CTABLE2 file (layout per src/nad_init.c:198-240: id is 80
    bytes at offset 16, doubles at 96, int32 dims at 128, data at 160).
    The id field may carry whatever bytes the writing process had on
    its stack after the NUL (nad2bin memcpys an uninitialized char[80]),
    so it is truncated at the first NUL before decoding."""
    with open(path, "rb") as f:
        magic = f.read(16)
        if not magic.startswith(b"CTABLE V2"):
            raise ValueError(f"{path}: not a CTABLE2 file")
        gid = f.read(80).split(b"\0", 1)[0].decode(errors="replace").rstrip()
        ll_lam, ll_phi, d_lam, d_phi = struct.unpack("<dddd", f.read(32))
        nlam, nphi = struct.unpack("<ii", f.read(8))
        f.seek(160)
        cvs = np.frombuffer(f.read(nlam * nphi * 2 * 4), dtype="<f4").reshape(nphi, nlam, 2)
        return ShiftGrid(gid, (ll_lam, ll_phi), (d_lam, d_phi), (nlam, nphi), cvs)


def gridlist_from_nadgrids(nadgrids: str, loader=None):
    """Parse a '+nadgrids=' comma list: '@' prefix marks optional grids
    (missing ones are skipped, src/pj_gridlist.c:185-190), 'null' / '@null'
    yields the no-op world grid. ``loader(name)`` resolves other names
    (fixtures register synthetic grids); missing non-optional grids raise."""
    grids = []
    for name in nadgrids.split(","):
        name = name.strip()
        if not name:
            continue
        optional = name.startswith("@")
        if optional:
            name = name[1:]
        if name == "null":
            grids.append(ShiftGrid.null_grid())
            continue
        g = loader(name) if loader is not None else None
        if g is None:
            if optional:
                continue
            raise FileNotFoundError(f"required grid {name!r} not available (-38)")
        if isinstance(g, list):
            grids.extend(g)  # NTv2 top-level subgrids are list siblings
        else:
            grids.append(g)
    return grids


def apply_vgridshift(vgrids, inverse: bool, lam, phi, z):
    """Vertical (geoid) grid shift: first-match bilinear height applied
    to z (+= forward geoid->ellipsoidal, -= inverse), replicating
    pj_apply_vgridshift (src/pj_apply_vgridshift.c:46-211): NON-inflated
    bbox, child descent, -88.8888 nodata.

    Deviation from the reference: a point with no vgrid coverage gets an
    inf z lane (and ok=False) instead of failing the whole call — batch
    engines must not let one point poison the stream. Returns (z, ok).
    """
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).copy()
    ok = np.zeros(lam.shape, dtype=bool)
    err_in = ~np.isfinite(lam)
    # a NaN latitude passes every bbox test: its lane stays uncovered
    live = ~err_in & ~np.isnan(phi)
    NODATA = np.float32(-88.8888)
    for vg in vgrids:
        todo = np.flatnonzero(~ok & live)
        if todo.size == 0:
            break
        inside = vg.contains(lam[todo], phi[todo])
        ids = todo[inside]
        if ids.size == 0:
            continue
        dl, dp = vg.delta
        nl = vg.lim[0]
        gx = (lam[ids] - vg.ll[0]) / dl
        gy = (phi[ids] - vg.ll[1]) / dp
        ix = np.floor(gx)
        iy = np.floor(gy)
        fx = gx - ix
        fy = gy - iy
        ix = np.clip(ix, 0, vg.lim[0] - 2).astype(np.int64)
        iy = np.clip(iy, 0, vg.lim[1] - 2).astype(np.int64)
        v = vg.values
        # accumulation order of pj_apply_vgridshift.c:146-155
        value = (v[iy, ix] * (1.0 - fx) * (1.0 - fy)
                 + v[iy, ix + 1] * fx * (1.0 - fy)
                 + v[iy + 1, ix] * (1.0 - fx) * fy
                 + v[iy + 1, ix + 1] * fx * fy)
        good = value != NODATA
        gids = ids[good]
        if inverse:
            z[gids] = z[gids] - value[good]
        else:
            z[gids] = z[gids] + value[good]
        ok[gids] = True
    z[~ok & ~err_in] = HUGE
    return z, ok
