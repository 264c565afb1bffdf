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
closed bbox per polygon and a two-level grid of lon/lat cells. The
first level is a dense grid of one-degree cells, listing the polygons
whose bbox touches each cell. A cell listing more than ``SPLIT_AT``
polygons (a city) is also split into ``SUB`` x ``SUB`` sub-cells, each
listing the polygons whose bbox, clipped to the cell, touches it -- the
parent-grid / child-subgrid descent of the reference's NTv2 grids
(src/projects.h ``PJ_GRIDINFO``). Both levels share one CSR list: the
sub-cell slots follow the one-degree cells, in the order of the sorted
``split_cells``, and a one-degree list longer than ``SPLIT_AT`` marks its
cell as split. A probe pairs every point with the polygons of the finest
slot holding it, keeps the pairs inside the closed bbox, and runs the
crossing test once over all remaining pairs, one vectorized pass per
edge rank.
"""

from __future__ import annotations

import numpy as np

N_LON = 360  # one-degree cells: lon -180..180 x lat -90..90
N_LAT = 180
N_CELLS = N_LON * N_LAT
SPLIT_AT = 8  # a cell listing more polygons than this is split ...
SUB = 16      # ... into SUB x SUB sub-cells of 1/SUB degree (a power of two)


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


def _sub_index(v, cell_lo):
    # sub-cell column (or row) of v within the cell starting at cell_lo,
    # clamped like _cell_col, so monotone in v: a point inside a bbox
    # lands in one of the bbox's clamped sub-cells. Scaling by SUB, a
    # power of two, adds no rounding
    return np.clip(np.floor((v - cell_lo) * SUB), 0, SUB - 1).astype(np.int64)


def _ranks(counts):
    """0 .. counts[i]-1 for every i, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _cover(c0, c1, r0, r1):
    """Every (i, col, row) with col in c0[i]..c1[i] and row in r0[i]..r1[i],
    ascending in i."""
    width = c1 - c0 + 1
    n = width * (r1 - r0 + 1)
    i = np.repeat(np.arange(n.size), n)
    k = _ranks(n)
    return i, c0[i] + k % width[i], r0[i] + k // width[i]


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
        owner, col, row = _cover(_cell_col(x0), _cell_col(x1),
                                 _cell_row(y0), _cell_row(y1))
        slot = row * N_LON + col
        # a crowded cell keeps its one-degree list, whose length marks it
        # as split, and gets SUB x SUB sub-cell slots after the cells
        crowded = np.bincount(slot, minlength=N_CELLS) > SPLIT_AT
        self.split_cells = np.flatnonzero(crowded).astype(np.int32)
        e = np.flatnonzero(crowded[slot])
        o, cx, cy = owner[e], col[e] - 180.0, row[e] - 90.0
        at, sc, sr = _cover(_sub_index(x0[o], cx), _sub_index(x1[o], cx),
                            _sub_index(y0[o], cy), _sub_index(y1[o], cy))
        first = N_CELLS + np.searchsorted(self.split_cells, slot[e]) * SUB * SUB
        slot = np.concatenate([slot, first[at] + sr * SUB + sc])
        owner = np.concatenate([owner, o[at]])
        order = np.argsort(slot, kind="stable")  # polygons ascend within a slot
        self.cell_polys = poly[owner[order]].astype(np.int32)
        n_slots = N_CELLS + self.split_cells.size * SUB * SUB
        self.cell_offsets = np.zeros(n_slots + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot, minlength=n_slots), out=self.cell_offsets[1:])

    def candidates(self, px, py):
        """Grid candidate pairs before the bbox and crossing tests: every
        (point_index, polygon_index) whose polygon is listed in the
        point's cell, or in its sub-cell if the cell is split, ordered by
        point then polygon."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        pt = np.flatnonzero(~(np.isnan(px) | np.isnan(py)))
        x, y = px[pt], py[pt]
        col, row = _cell_col(x), _cell_row(y)
        slot = row * N_LON + col
        lo = self.cell_offsets[slot]
        n_cand = self.cell_offsets[slot + 1] - lo
        h = np.flatnonzero(n_cand > SPLIT_AT)
        sub = (N_CELLS + np.searchsorted(self.split_cells, slot[h]) * SUB * SUB
               + _sub_index(y[h], row[h] - 90.0) * SUB
               + _sub_index(x[h], col[h] - 180.0))
        lo[h] = self.cell_offsets[sub]
        n_cand[h] = self.cell_offsets[sub + 1] - lo[h]
        return (np.repeat(pt, n_cand),
                self.cell_polys[np.repeat(lo, n_cand) + _ranks(n_cand)])

    def join(self, px, py):
        """All-matches PIP join: every (point_index, polygon_index) pair
        with the point inside the polygon (overlapping polygons give one
        pair each), ordered by point then polygon. Returns
        (int64 point indices, int32 polygon indices)."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        x0, y0, x1, y1 = self.bbox
        pt, poly = self.candidates(px, py)
        # closed bbox, x first: it drops most pairs before y is gathered
        x = px[pt]
        keep = (x >= x0[poly]) & (x <= x1[poly])
        pt, poly, x = pt[keep], poly[keep], x[keep]
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
