"""Vectorized point-in-polygon by even-odd ray casting over a packed
polygon set.

Kernel semantics precedented by the reference's ``pnpoly`` crossing test
(src/PJ_healpix.c:103-138): a point is inside iff a ray to +x crosses an
odd number of edges; boundary convention follows from the strict
``>`` / ``<`` comparisons exactly as in the classic algorithm, so an
independent SQL oracle evaluating the same comparisons matches
row-for-row (north rule: exact join rows).

All rings live in one CSR layout -- vertex arrays plus int32 ring
offsets, the shape of an Arrow ``list<list<double>>`` -- next to a
closed bbox per polygon and a dense grid of one-degree lon/lat cells
whose CSR offsets point at the polygons each cell's bbox cover touches.
A probe pairs every point with its cell's polygons, keeps the pairs
inside the closed bbox, and runs the crossing test once over all
remaining pairs, one vectorized pass per edge rank.
"""

from __future__ import annotations

import numpy as np

N_LON = 360  # one-degree cells: lon -180..180 x lat -90..90
N_LAT = 180


def _ring_array(ring) -> np.ndarray:
    """``[(lon, lat), ...]`` -> (n, 2) float64; the closing edge
    last -> first is implicit (pnpoly's j = nvert-1 start)."""
    v = np.asarray(ring, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError(
            f"polygon ring must be n x 2 (lon, lat) with n >= 3, got shape {v.shape}")
    return v


def _cell_col(x):
    # clamping is monotone, so a point inside a bbox lands in one of the
    # bbox's clamped cells even outside -180..180 (or at +-inf)
    return (np.clip(np.floor(x), -180.0, 179.0) + 180.0).astype(np.int64)


def _cell_row(y):
    return (np.clip(np.floor(y), -90.0, 89.0) + 90.0).astype(np.int64)


def _ranks(counts):
    """0 .. counts[i]-1 for every i, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


class PolygonSet:
    """Single-ring polygons ``[(polygon_id, [(lon, lat), ...]), ...]``
    packed for the vectorized even-odd test."""

    def __init__(self, poly_defs):
        self.ids = []
        rings = []
        for pid, ring in poly_defs:
            self.ids.append(str(pid))
            rings.append(_ring_array(ring))
        n = len(rings)
        counts = np.array([len(r) for r in rings], dtype=np.int32)
        self.offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=self.offsets[1:])
        v = np.concatenate(rings) if n else np.empty((0, 2))
        self.vx = np.ascontiguousarray(v[:, 0])
        self.vy = np.ascontiguousarray(v[:, 1])
        # previous vertex of each vertex within its ring (j = i - 1,
        # wrapping to the ring's last vertex)
        prev = np.arange(v.shape[0], dtype=np.int32) - 1
        prev[self.offsets[:-1]] = self.offsets[1:] - 1
        self.jx = self.vx[prev]
        self.jy = self.vy[prev]
        # closed bbox rows x0, y0, x1, y1; a NaN vertex makes them NaN, so
        # the polygon matches nothing
        starts = self.offsets[:-1]
        self.bbox = np.empty((4, n))
        if n:
            self.bbox[0] = np.minimum.reduceat(self.vx, starts)
            self.bbox[1] = np.minimum.reduceat(self.vy, starts)
            self.bbox[2] = np.maximum.reduceat(self.vx, starts)
            self.bbox[3] = np.maximum.reduceat(self.vy, starts)
        self._build_grid()

    def _build_grid(self):
        poly = np.flatnonzero(~np.isnan(self.bbox).any(axis=0))
        x0, y0, x1, y1 = self.bbox[:, poly]
        c0, r0 = _cell_col(x0), _cell_row(y0)
        width = _cell_col(x1) - c0 + 1
        n_cells = width * (_cell_row(y1) - r0 + 1)
        owner = np.repeat(np.arange(poly.size), n_cells)
        k = _ranks(n_cells)
        cell = (r0[owner] + k // width[owner]) * N_LON + c0[owner] + k % width[owner]
        order = np.argsort(cell, kind="stable")  # polygons ascend within a cell
        self.cell_polys = poly[owner[order]].astype(np.int32)
        self.cell_offsets = np.zeros(N_LON * N_LAT + 1, dtype=np.int32)
        np.cumsum(np.bincount(cell, minlength=N_LON * N_LAT),
                  out=self.cell_offsets[1:])

    def join(self, px, py):
        """All-matches PIP join: every (point_index, polygon_index) pair
        with the point inside the polygon (overlapping polygons give one
        pair each), ordered by point then polygon. Returns
        (int64 point indices, int32 polygon indices)."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        x0, y0, x1, y1 = self.bbox
        pt = np.flatnonzero(~(np.isnan(px) | np.isnan(py)))
        cell = _cell_row(py[pt]) * N_LON + _cell_col(px[pt])
        lo = self.cell_offsets[cell]
        n_cand = self.cell_offsets[cell + 1] - lo
        poly = self.cell_polys[np.repeat(lo, n_cand) + _ranks(n_cand)]
        # closed bbox, x first: it drops most pairs before y is gathered
        x = np.repeat(px[pt], n_cand)
        keep = (x >= x0[poly]) & (x <= x1[poly])
        pt, poly, x = np.repeat(pt, n_cand)[keep], poly[keep], x[keep]
        y = py[pt]
        keep = (y >= y0[poly]) & (y <= y1[poly])
        pt, poly = pt[keep], poly[keep]
        inside = self._odd_crossings(x[keep], y[keep], poly)
        return pt[inside], poly[inside]

    def _odd_crossings(self, x, y, poly):
        """pnpoly over (x[k], y[k]) vs polygon poly[k]: for each edge
        (i, j): if ((vy[i] > py) != (vy[j] > py)) and
        (px < (vx[j]-vx[i]) * (py-vy[i]) / (vy[j]-vy[i]) + vx[i]) -> toggle.
        Pairs are sorted by vertex count, longest first, so the pairs
        still holding an edge at rank r are a prefix."""
        nv = self.offsets[poly + 1] - self.offsets[poly]
        order = np.argsort(-nv, kind="stable")
        x, y = x[order], y[order]
        first = self.offsets[poly[order]]
        active = np.cumsum(np.bincount(nv, minlength=1)[::-1])[::-1]
        acc = np.zeros(x.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for r in range(1, active.size):
                m = active[r]
                e = first[:m] + r - 1
                xi, yi, xj, yj = self.vx[e], self.vy[e], self.jx[e], self.jy[e]
                ys = y[:m]
                acc[:m] ^= ((yi > ys) != (yj > ys)) & (
                    x[:m] < (xj - xi) * (ys - yi) / (yj - yi) + xi)
        inside = np.empty_like(acc)
        inside[order] = acc
        return inside
