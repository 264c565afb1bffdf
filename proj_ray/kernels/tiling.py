"""Hierarchical tile index (Web-Mercator quadtree, H3/S2-style).

Own construction (precedent: cell geometry of src/PJ_healpix.c); the
north star needs a deterministic, integer-exact cell assignment for
points so tile joins/aggregates match an independent oracle row-for-row.

Scheme: the standard web map tiling. At zoom ``z`` the world
(lon in [-180,180), Mercator-clipped lat) is a 2^z x 2^z grid:

    u = (lon + 180) / 360
    v = (1 - ln(tan(pi/4 + lat_rad/2)) / pi) / 2
    tx = clip(floor(u * 2^z), 0, 2^z - 1)
    ty = clip(floor(v * 2^z), 0, 2^z - 1)
    cell_id = (ty << z) | tx     (fits int64 for z <= 31; we use z <= 23)

Edge convention: half-open cells [edge, next_edge) except the last
row/column which is closed (the clip) — documented so the oracle can
replicate it exactly. All arithmetic is the same IEEE double sequence
in NumPy and ANSI SQL, so assignments match bit-for-bit.

Parent/child relations are pure integer ops (>> 1 per level), giving
cheap multi-resolution aggregation without recomputing from lon/lat.
"""

from __future__ import annotations

import numpy as np

MAX_LAT = 85.05112877980659  # atan(sinh(pi)) — Mercator square limit


def cell_xy(lon_deg, lat_deg, zoom: int):
    """Vectorized (tx, ty) tile coordinates at ``zoom``; -1 for invalid."""
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    n = np.float64(1 << zoom)
    ok = np.isfinite(lon) & np.isfinite(lat) & (np.abs(lat) <= MAX_LAT) \
        & (lon >= -180.0) & (lon <= 180.0)
    lat_r = np.where(ok, lat, 0.0) * (np.pi / 180.0)
    u = (np.where(ok, lon, 0.0) + 180.0) / 360.0
    v = (1.0 - np.log(np.tan(np.pi / 4.0 + lat_r / 2.0)) / np.pi) / 2.0
    tx = np.floor(u * n)
    ty = np.floor(v * n)
    tx = np.clip(tx, 0, n - 1).astype(np.int64)
    ty = np.clip(ty, 0, n - 1).astype(np.int64)
    tx = np.where(ok, tx, -1)
    ty = np.where(ok, ty, -1)
    return tx, ty


def cell_id(lon_deg, lat_deg, zoom: int):
    """Vectorized int64 cell id; -1 for invalid points."""
    tx, ty = cell_xy(lon_deg, lat_deg, zoom)
    cid = (ty.astype(np.int64) << zoom) | tx.astype(np.int64)
    return np.where((tx >= 0) & (ty >= 0), cid, -1)


def parent_cell(cid, zoom: int, parent_zoom: int):
    """Integer-only parent lookup (cells nest exactly)."""
    cid = np.asarray(cid, dtype=np.int64)
    d = zoom - parent_zoom
    tx = cid & ((1 << zoom) - 1)
    ty = cid >> zoom
    return np.where(cid >= 0, ((ty >> d) << parent_zoom) | (tx >> d), -1)
