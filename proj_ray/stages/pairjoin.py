"""Within-distance spatial self-join (radius pair join) and the
rectangle-overlap join: replicated grid-cell joins with one block
kernel.

Finds every pair of points whose great-circle separation is below a
radius — the all-pairs neighborhood primitive under the spatial joins
the reference's pnpoly/geodesic kernels serve point-wise
(src/PJ_healpix.c:103-138, src/geodesic.c) — as a replicated
grid-bucket join, the standard distributed spatial self-join:

1. each point lands in its HOME cell and replicates ONLY into the
   adjacent cells whose id is SMALLER than its home cell's (~4 of 8 —
   a ~5x fan-out instead of the naive 9x, 44% less shuffle volume);
   a point with a non-finite coordinate pairs with nothing and is not
   replicated at all;
2. ONE shuffle co-locates cells: a sort on the cell id, which keeps
   every cell inside one block (the shuffle ``groupby`` runs), then
   one kernel call per block (``map_batches(batch_size=None)``);
3. within a cell, a cross-cell pair is owned by the SMALLER cell id
   (the home point pairs with the replica whose home is a larger
   neighbor — mutually exclusive directions, so exactly once), and a
   same-cell pair by the pid order; the exact haversine test keeps
   true neighbors and the output canonicalizes to pid_a < pid_b.

The block kernel sorts the block by (cell, replica, pid), so each
cell's home rows come first in pid order and its replicas follow; a
home row's candidates are then exactly the rows after it in its cell.
The (row, candidate) pairs of all cells are expanded through CSR
offsets, as ``kernels.pip.PolygonSet`` does, ``_SLICE`` pairs at a
time, and one vectorised haversine tests each slice.  Each slice's
kept pairs leave as their own pandas frame: pandas blocks cost the
driver's ``to_pandas()`` about 200 MB less than Arrow blocks for the
7.4M pairs of sf0.1.

Cell sizing is a proof obligation, not a tuning knob: with lat capped
at |lat| <= 80 deg (derive.lonlat_numpy's band), a lon gap of one full
cell (>= 2 deg) already implies distance >= 2*R*asin(cos(80 deg) *
sin(1 deg)) ~ 38.6 km > the 30 km radius, and one lat cell (0.5 deg)
implies >= 55.6 km; so the 3x3 neighborhood provably covers the
radius and the join is EXACT, not approximate.

100 TB shape: replication is a bounded ~5x on the point stream; the
shuffle moves (cell, pid, lon, lat) rows only; per-cell work is
quadratic in the CELL population (inherent — the OUTPUT is quadratic
in dense regions), so a deployment sizes cells to the radius exactly
as here and sub-splits any cell whose population exceeds the
per-task budget.  The emitted pair stream is already globally
distinct — each pair appears only in its owning cell, and
duplicate-pid input rows collapse inside that one cell — so there is
NO second shuffle and no driver materialization.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.geodesic import haversine
from .cc import min_labels

# lon cells of 2 deg x lat cells of 0.5 deg; see the sizing proof above
PAIR_DX_DEG = 2.0
PAIR_DY_DEG = 0.5
PAIR_NX = 180           # lon cells wrap modulo this
PAIR_NY = 360
_CELL_MUL = PAIR_NY + 2  # cell id = cx * _CELL_MUL + cy (cy in [0, NY))

# candidate pairs expanded at once; bounds the kernel's transient
# arrays (a few tens of bytes per pair) whatever the block size
_SLICE = 1 << 18


def pair_cells_numpy(lon, lat):
    """Home cell coordinates; the SQL oracle must spell the identical
    IEEE op sequence: floor((lon + 180.0) / 2.0), floor((lat + 90.0) / 0.5)."""
    cx = np.floor((lon + 180.0) / PAIR_DX_DEG).astype(np.int64)
    cy = np.floor((lat + 90.0) / PAIR_DY_DEG).astype(np.int64)
    return cx, cy


def _run_ends(cell: np.ndarray) -> np.ndarray:
    """For each row of a cell-sorted block, the index one past the end
    of its cell's run."""
    ends = np.append(np.flatnonzero(cell[1:] != cell[:-1]) + 1, cell.size)
    return np.repeat(ends, np.diff(ends, prepend=0))


def _candidates(left: np.ndarray, first: np.ndarray, end: np.ndarray):
    """Yield (i, j) index arrays pairing each row ``left[k]`` with the
    rows ``first[k] .. end[k] - 1``, expanded through CSR offsets in
    slices of about ``_SLICE`` pairs (one left row's run may exceed
    it)."""
    counts = end - first
    cum = np.cumsum(counts)
    lo, done = 0, 0
    while lo < left.size:
        hi = max(int(np.searchsorted(cum, done + _SLICE, side="right")),
                 lo + 1)
        c = counts[lo:hi]
        base = np.cumsum(c) - c
        i = np.repeat(left[lo:hi], c)
        j = np.repeat(first[lo:hi] - base, c) + np.arange(i.size)
        yield i, j
        lo, done = hi, int(cum[hi - 1])


def _replicate(t: pa.Table) -> pa.Table:
    pid = t["pid"].to_numpy(zero_copy_only=False)
    lon = t["lon"].to_numpy(zero_copy_only=False)
    lat = t["lat"].to_numpy(zero_copy_only=False)
    ok = np.isfinite(lon) & np.isfinite(lat)
    if not ok.all():
        pid, lon, lat = pid[ok], lon[ok], lat[ok]
    cx, cy = pair_cells_numpy(lon, lat)
    home_cell = cx * _CELL_MUL + cy
    n = pid.size
    outs = {"cell": [home_cell], "pid": [pid], "lon": [lon], "lat": [lat],
            "home": [np.ones(n, dtype=bool)]}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nb = ((cx + dx) % PAIR_NX) * _CELL_MUL + (cy + dy)
            m = nb < home_cell  # replicate only toward smaller-id cells
            if not m.any():
                continue
            outs["cell"].append(nb[m])
            outs["pid"].append(pid[m])
            outs["lon"].append(lon[m])
            outs["lat"].append(lat[m])
            outs["home"].append(np.zeros(int(m.sum()), dtype=bool))
    return pa.table({
        "cell": pa.array(np.concatenate(outs["cell"]), pa.int64()),
        "pid": pa.array(np.concatenate(outs["pid"]), pa.int64()),
        "lon": pa.array(np.concatenate(outs["lon"]), pa.float64()),
        "lat": pa.array(np.concatenate(outs["lat"]), pa.float64()),
        "home": pa.array(np.concatenate(outs["home"]), pa.bool_()),
    })


def _per_block(rows, fn):
    """One shuffle that keeps every cell inside one block, then ``fn``
    once per block.  The shuffle is a sort on the cell, the one
    ``groupby().map_groups`` runs before it calls its function once per
    group.  (``repartition(n, keys=["cell"])`` needs the hash-shuffle
    strategy, whose aggregator actors stall a 1-CPU cluster.)"""
    return rows.sort("cell").map_batches(fn, batch_format="pyarrow",
                                         batch_size=None)


def _replicated(points):
    return points.map_batches(_replicate, batch_format="pyarrow",
                              zero_copy_batch=True)


def _radius_pairs(t: pa.Table, radius_m: float):
    """Yield the kept pairs (pid_i, pid_j, dist_m) of one cell-co-located
    block of replicated rows, one slice at a time, each pair once
    (module docstring, step 3)."""
    cell = t["cell"].to_numpy(zero_copy_only=False)
    pid = t["pid"].to_numpy(zero_copy_only=False)
    home = t["home"].to_numpy(zero_copy_only=False)
    order = np.lexsort((pid, ~home, cell))
    cell, pid, home = cell[order], pid[order], home[order]
    # distinct (cell, pid): duplicate pids carry identical coordinates
    # (pid-derived) and land in the same cells, so collapsing them here
    # makes the pair stream globally distinct
    new = np.ones(cell.size, dtype=bool)
    new[1:] = (cell[1:] != cell[:-1]) | (pid[1:] != pid[:-1])
    order, cell, pid = order[new], cell[new], pid[new]
    lon = t["lon"].to_numpy(zero_copy_only=False)[order]
    lat = t["lat"].to_numpy(zero_copy_only=False)[order]
    left = np.flatnonzero(home[new])
    for i, j in _candidates(left, left + 1, _run_ends(cell)[left]):
        d = haversine(lon[i], lat[i], lon[j], lat[j])
        d = np.floor(d * 1.0e3 + 0.5) / 1.0e3  # mm-rounded, as the oracle
        k = d < radius_m
        yield pid[i[k]], pid[j[k]], d[k]


def radius_pair_join_stage(points, radius_m: float):
    """points: Dataset(pid, lon, lat) -> Dataset(pid_a, pid_b, dist_m),
    globally distinct pairs (see module docstring)."""
    def pairs(t: pa.Table):
        for a, b, d in _radius_pairs(t, radius_m):
            yield pd.DataFrame({"pid_a": np.minimum(a, b),
                                "pid_b": np.maximum(a, b), "dist_m": d})

    return _per_block(_replicated(points), pairs)


def _stars(src, dst):
    """Min-pid stars (component min -> member) with the same connected
    components as the edges src-dst (stages.cc.min_labels)."""
    nodes, labels = min_labels(src, dst)
    m = labels != nodes
    return labels[m], nodes[m]


def radius_spanning_edges_stage(points, radius_m: float):
    """points -> Dataset(src, dst): per block, the connected components
    of the block's radius pairs as min-pid stars.  Every true pair lies
    inside one block, where its endpoints share a component, so the
    union of the stars has the same components as the full pair graph,
    while the edge list stays LINEAR in points (the pair list is
    quadratic in dense regions).  Each slice of pairs contracts to
    stars as it comes, so a block never holds its whole pair list
    (sf0.1 in one process: 0.53M slice-star edges instead of 7.4M
    pairs, 367 MB peak instead of 1.2 GB, and faster)."""
    def stars(t: pa.Table) -> pa.Table:
        ends = [(np.empty(0, np.int64),) * 2]
        ends += [_stars(a, b) for a, b, _ in _radius_pairs(t, radius_m)]
        src, dst = _stars(*(np.concatenate(c) for c in zip(*ends)))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return _per_block(_replicated(points), stars)


# ---------------------------------------------------------------------------
# Rectangle-overlap join (2D interval join) — the replicated grid-cell
# join with the REFERENCE-POINT de-duplication rule (Dittrich & Seeger,
# ICDE 2000): both rectangle sets replicate into every grid cell their
# bbox covers; after the one shuffle, a candidate pair found in a
# cell is emitted only when the INTERSECTION's min corner lies in that
# cell — each overlapping pair has exactly one such cell, so the join
# emits each pair exactly once with NO second dedup shuffle.  All
# bounds here are integer centi-degrees: overlap tests and areas are
# exact int64 arithmetic, bit-identical to the SQL inequality join.
# ---------------------------------------------------------------------------

RECT_CELL = 1000  # grid pitch (centi-units)


def _rect_replicate(side_a: bool):
    def fn(t: pa.Table) -> pa.Table:
        rid = t["rid"].to_numpy(zero_copy_only=False)
        x0 = t["x0"].to_numpy(zero_copy_only=False)
        x1 = t["x1"].to_numpy(zero_copy_only=False)
        y0 = t["y0"].to_numpy(zero_copy_only=False)
        y1 = t["y1"].to_numpy(zero_copy_only=False)
        cx0, cx1 = x0 // RECT_CELL, x1 // RECT_CELL
        cy0, cy1 = y0 // RECT_CELL, y1 // RECT_CELL
        reps = {"cell": [], "rid": [], "x0": [], "x1": [], "y0": [], "y1": []}
        ncx = int((cx1 - cx0).max()) + 1 if rid.size else 0
        ncy = int((cy1 - cy0).max()) + 1 if rid.size else 0
        for dx in range(ncx):
            for dy in range(ncy):
                m = (cx0 + dx <= cx1) & (cy0 + dy <= cy1)
                if not m.any():
                    continue
                reps["cell"].append((cx0[m] + dx) * 1024 + (cy0[m] + dy))
                for c, v in (("rid", rid), ("x0", x0), ("x1", x1),
                             ("y0", y0), ("y1", y1)):
                    reps[c].append(v[m])
        out = {k: np.concatenate(v) if v else np.empty(0, np.int64)
               for k, v in reps.items()}
        cols = {k: pa.array(v, pa.int64()) for k, v in out.items()}
        cols["side_a"] = pa.array(np.full(out["cell"].size, side_a))
        return pa.table(cols)
    return fn


def _overlaps(t: pa.Table):
    """Yield the overlapping (A, B) pairs of one cell-co-located block,
    one slice at a time, each owned by the cell holding its
    intersection's min corner."""
    side_a = t["side_a"].to_numpy(zero_copy_only=False)
    cell = t["cell"].to_numpy(zero_copy_only=False)
    order = np.lexsort((~side_a, cell))  # each cell: A rows, then B rows
    cell, side_a = cell[order], side_a[order]
    rid, x0, x1, y0, y1 = (t[c].to_numpy(zero_copy_only=False)[order]
                           for c in ("rid", "x0", "x1", "y0", "y1"))
    left = np.flatnonzero(side_a)
    # first B row of each A row's cell
    first_b = np.searchsorted(cell * 2 + ~side_a, cell[left] * 2 + 1)
    for i, j in _candidates(left, first_b, _run_ends(cell)[left]):
        ix0 = np.maximum(x0[i], x0[j])
        iy0 = np.maximum(y0[i], y0[j])
        k = ((x0[i] <= x1[j]) & (x0[j] <= x1[i])
             & (y0[i] <= y1[j]) & (y0[j] <= y1[i])
             # reference point: the intersection's min corner is in
             # this cell
             & ((ix0 // RECT_CELL) * 1024 + (iy0 // RECT_CELL) == cell[i]))
        i, j, ix0, iy0 = i[k], j[k], ix0[k], iy0[k]
        area = ((np.minimum(x1[i], x1[j]) - ix0)
                * (np.minimum(y1[i], y1[j]) - iy0))
        yield pd.DataFrame({"rid_a": rid[i], "rid_b": rid[j],
                            "overlap_area": area})


def rect_overlap_join_stage(rects_a, rects_b):
    """rects_*: Dataset(rid, x0, x1, y0, y1) int64 closed intervals ->
    Dataset(rid_a, rid_b, overlap_area), each overlapping pair exactly
    once.  One union + one shuffle; per-cell work is the nA x nB
    candidate set of the block kernel (dense cells are the documented
    sub-split point, exactly as in radius_pair_join)."""
    ra = rects_a.map_batches(_rect_replicate(True), batch_format="pyarrow",
                             zero_copy_batch=True)
    rb = rects_b.map_batches(_rect_replicate(False), batch_format="pyarrow",
                             zero_copy_batch=True)
    return _per_block(ra.union(rb), _overlaps)
