"""Dated grid catalog: as-of grid selection + linear date mixing.

Replicates ``pj_gc_apply_gridshift`` (src/pj_gridcatalog.c:102-230):
for each point, the first catalog entry (scan order; entries are sorted
by date then priority, src/pj_gc_reader.c) whose region contains the
point and whose date is <= (before) / >= (after) the datum date; the
point is shifted with BOTH grids and mixed linearly by
``(date - d_before) / (d_after - d_before)``. ``date == 0`` means
"just use the after grid" (no mixing).

Vectorized shape: this is an AS-OF JOIN + interpolate — per point the
before/after lookup is a date-partitioned first-match scan; the
reference's per-PJ last-grid caches (src/projects.h:273-279) are
unnecessary once vectorized (SURVEY.md §2.4).

``parse_catalog_date`` replicates pj_gc_parsedate
(src/pj_gc_reader.c:156-173: yyyy-mm-dd -> simplified year fraction
with 31-day months / 372-day year).
"""

from __future__ import annotations

import numpy as np

from .common import HUGE
from .grid import ShiftGrid, nad_cvt


def parse_catalog_date(date_string: str) -> float:
    s = date_string.strip()
    if len(s) == 10 and s[4] == "-" and s[7] == "-":
        year = int(s[:4])
        month = int(s[5:7])
        day = int(s[8:10])
        return year + ((month - 1) * 31 + (day - 1)) / 372.0
    try:
        return float(s)
    except ValueError:
        return 0.0


class CatalogEntry:
    """One dated catalog row: (grid, region bbox radians, date, priority);
    ``grid`` is None when the row's grid file could not be loaded."""

    def __init__(self, grid: ShiftGrid | None, region, date, priority=0):
        self.grid = grid
        self.region = tuple(float(v) for v in region)  # (ll_lam, ll_phi, ur_lam, ur_phi)
        self.date = parse_catalog_date(date) if isinstance(date, str) else float(date)
        self.priority = priority

    def contains(self, lam, phi):
        ll_lam, ll_phi, ur_lam, ur_phi = self.region
        return ~((lam < ll_lam) | (lam > ur_lam) | (phi < ll_phi) | (phi > ur_phi))


class GridCatalog:
    """Sorted catalog (by date, then priority — pj_gc_reader sort)."""

    def __init__(self, entries):
        self.entries = sorted(entries, key=lambda e: (e.date, e.priority))

    def _find(self, after: bool, lam, phi, date):
        """Per-point first matching entry index (scan order), -1 if none."""
        n = lam.shape[0]
        out = np.full(n, -1, dtype=np.int64)
        dates = np.zeros(n)
        todo = np.ones(n, dtype=bool)
        for k, e in enumerate(self.entries):
            if not np.any(todo):
                break
            if after and e.date < date:
                continue
            if (not after) and e.date > date:
                continue
            idx = np.flatnonzero(todo)
            hit = e.contains(lam[idx], phi[idx])
            sel = idx[hit]
            out[sel] = k
            dates[sel] = e.date
            todo[sel] = False
        return out, dates

    def _shift(self, idx, sel, inverse, lam, phi):
        """Each lane of ``sel`` through its entry ``idx``'s grid (HUGE
        where nad_cvt finds no cell), and the mask of the lanes whose
        entry has no grid."""
        out_lam = np.full_like(lam, HUGE)
        out_phi = np.full_like(phi, HUGE)
        missing = np.zeros(lam.shape, dtype=bool)
        for k in np.unique(idx[sel]):
            ids = np.flatnonzero(sel & (idx == k))
            grid = self.entries[k].grid
            if grid is None:
                missing[ids] = True
                continue
            out_lam[ids], out_phi[ids] = nad_cvt(lam[ids], phi[ids], grid, inverse)
        return out_lam, out_phi, missing

    def apply(self, date: float, inverse: bool, lam, phi):
        """Vectorized pj_gc_apply_gridshift. Returns shifted (lam, phi)
        and the mask of the points that failed for a missing grid;
        points with no matching 'after' grid pass through unshifted.
        A point whose matching entry names a grid file that could not
        be loaded comes back HUGE, the reference's -38
        (PJD_ERR_FAILED_TO_LOAD_GRID, src/pj_gridcatalog.c:137-152)."""
        lam = np.asarray(lam, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)

        after_idx, after_dates = self._find(True, lam, phi, date)
        after_lam, after_phi, missing = self._shift(
            after_idx, (after_idx >= 0) & np.isfinite(lam), inverse, lam, phi)
        got_after = np.isfinite(after_lam)

        if date == 0.0:
            sel = got_after
            new_lam, new_phi = after_lam[sel], after_phi[sel]
        else:
            before_idx, before_dates = self._find(False, lam, phi, date)
            before_lam, before_phi, missing_before = self._shift(
                before_idx, (before_idx >= 0) & got_after, inverse, lam, phi)
            missing |= missing_before
            sel = got_after & np.isfinite(before_lam)
            with np.errstate(invalid="ignore", divide="ignore"):
                mix = ((date - before_dates) / (after_dates - before_dates))[sel]
            new_lam = mix * after_lam[sel] + (1.0 - mix) * before_lam[sel]
            new_phi = mix * after_phi[sel] + (1.0 - mix) * before_phi[sel]
        out_lam, out_phi = lam.copy(), phi.copy()
        out_lam[sel], out_phi[sel] = new_lam, new_phi
        out_lam[missing] = HUGE
        out_phi[missing] = HUGE
        return out_lam, out_phi, missing


def _atoi(s: str) -> int:
    """C atoi: parse a leading integer, 0 if none."""
    s = s.strip()
    out = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i == 0 or ch.isdigit():
            out += ch
        else:
            break
    try:
        return int(out)
    except ValueError:
        return 0


def read_catalog_csv(path, grid_loader):
    """Parse a grid catalog .csv (pj_gc_readcatalog, src/pj_gc_reader.c):

    - the first line is a title and is discarded;
    - blank lines and ``#`` comments are skipped;
    - each row is ``gridname,ll_long,ll_lat,ur_long,ur_lat[,priority[,date]]``
      with the corners in dmstor syntax (degrees or DMS);
    - like the C loop (``while readentry == 0``), reading STOPS at the
      first short (<5 token) line.

    ``grid_loader(name)`` maps the gridname token to a loaded ShiftGrid,
    or None when the file is missing; such an entry keeps ``grid=None``
    (the reference loads an entry's grid only when a point selects it)
    and ``GridCatalog.apply`` fails the points that select it.
    Returns a GridCatalog.
    """
    from ..crs import dmstor

    entries = []
    with open(path, "r") as f:
        lines = f.readlines()
    for raw in lines[1:]:  # title line discarded
        s = raw.lstrip()
        if not s.strip() or s[0] == "#":
            continue
        tokens = s.rstrip("\n").split(",")
        if len(tokens) < 5:
            break  # reference aborts the read loop on a short line
        definition = tokens[0]
        region = (dmstor(tokens[1]), dmstor(tokens[2]),
                  dmstor(tokens[3]), dmstor(tokens[4]))
        priority = _atoi(tokens[5]) if len(tokens) > 5 else 0
        date = parse_catalog_date(tokens[6]) if len(tokens) > 6 else 0.0
        grid = grid_loader(definition)
        if isinstance(grid, (list, tuple)):  # multi-subgrid files: top grid
            grid = grid[0]
        entries.append(CatalogEntry(grid, region, date, priority))
    return GridCatalog(entries)
