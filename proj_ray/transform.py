"""The composed CRS->CRS transform: PROJ's fixed 14-step pipeline,
compiled at driver time into a fused vectorized function.

Step order and elision conditions replicate ``pj_transform``
(src/pj_transform.c:87-370) and ``pj_datum_transform``
(src/pj_transform.c:602-720):

 1. source axis normalization            (axis != 'enu')
 2. vertical units -> meters             (vto_meter != 1)
 3. geocentric->geodetic OR inverse-project source
 4. + source prime meridian              (from_greenwich != 0)
 5. source geoid vertical shift          (+geoidgrids)
 6. datum transform (grid shift -> geocentric -> Helmert -> back)
 7. dest geoid vertical shift (inverse)
 8. - dest prime meridian
 9. geodetic->geocentric OR forward-project dest
10. lon_wrap recentering (latlong dest only)
11. vertical units back
12. dest axis denormalization

The compiled callable runs ALL steps inside one ``map_batches`` UDF per
batch — one Ray stage, microsecond steps fused (SURVEY.md §2.3).

Error semantics: per-lane inf (HUGE_VAL) sentinel, never exceptions;
bad points flow through as inf and are surfaced as nulls at the sink
(src/pj_transform.c:70-76 transient errors).
"""

from __future__ import annotations

import errno

import numpy as np

from .crs import CRS, PJD_3PARAM, PJD_7PARAM, PJD_GRIDSHIFT, PJD_UNKNOWN
from .kernels.common import (
    DEG_TO_RAD,
    HUGE,
    PI,
    RAD_TO_DEG,
    SRS_WGS84_ESQUARED,
    SRS_WGS84_SEMIMAJOR,
    TWOPI,
)
from .kernels.geocent import (
    geocentric_to_geodetic,
    geodetic_to_geocentric,
    helmert_from_wgs84,
    helmert_to_wgs84,
)
from .kernels.grid import apply_gridshift, apply_vgridshift, gridlist_from_nadgrids
from .kernels.projections import generic_fwd, generic_inv
from .sources.grids import default_grid_loader, find_lib_file

# axis letter -> (canonical enu slot, sign), src/pj_transform.c:728-825
_AXIS = {"e": (0, 1), "w": (0, -1), "n": (1, 1), "s": (1, -1),
         "u": (2, 1), "d": (2, -1)}


def _adjust_axis(axis, denormalize, x, y, z):
    """Normalize the declared axis order to enu, or (``denormalize``)
    put enu values back into it."""
    ins, outs = (x, y, z), [x, y, z]
    for i, ch in enumerate(axis):
        slot, sign = _AXIS[ch]
        src, dst = (slot, i) if denormalize else (i, slot)
        outs[dst] = ins[src] if sign > 0 else -ins[src]
    return outs[0], outs[1], outs[2]


def _load_catalog(catalog_name, grid_loader):
    """Read a dated grid catalog CSV (+catalog=...), found like a grid
    file; the grid names inside it resolve through ``grid_loader``."""
    from .kernels.gridcatalog import read_catalog_csv

    path = find_lib_file(catalog_name)
    if path is None:
        # the C's pj_gc_readcatalog fails on the raw fopen and
        # leaves the POSITIVE system errno (ENOENT) in pj_errno —
        # pj_strerrno then prints 'no system list, errno: 2'
        raise FileNotFoundError(errno.ENOENT, f"grid catalog {catalog_name!r} (2)")
    return read_catalog_csv(path, grid_loader)


class Transform:
    """Compiled (src, dst) transform. Call with float64 arrays.

    Latlong-CRS coordinates are degrees on both ends (the cs2cs text
    boundary, src/cs2cs.c:138-141); internally everything is radians,
    matching the reference.  No step writes the caller's arrays; a z
    that no step changes comes back as the array passed in.
    """

    def __init__(self, src, dst, grid_loader=None):
        self.src = src if isinstance(src, CRS) else CRS(src)
        self.dst = dst if isinstance(dst, CRS) else CRS(dst)
        # injected loaders (fixtures) stay exclusive; otherwise grids
        # resolve pj_open_lib-style (sources.grids.load_grids)
        loader = grid_loader or default_grid_loader
        # the datum step is elided for unknown or equal datums
        # (pj_datum_transform, src/pj_transform.c:602-720)
        self._skip_datum = (self.src.datum_type == PJD_UNKNOWN
                            or self.dst.datum_type == PJD_UNKNOWN
                            or self.src.same_datum(self.dst))
        # the C loads grids LAZILY at the first transform
        # (pj_apply_gridshift.c / pj_gridlist.c): a same-datum pipeline
        # never loads them at all, and a missing mandatory grid fails
        # PER POINT with errno -38, not at init.  We still load once
        # here (the actor-__init__ model), but (a) skip loading when
        # the datum step is elided and (b) DEFER a load failure into
        # lane_errno — every lane of the failing step goes HUGE and
        # the CLI reports 'pj_transform(): <cause>' per line.
        self.lane_errno = None
        # the last call's lanes whose datum step selected a catalog
        # entry without its grid (each one the C's per-point -38), or
        # None when no catalog step ran
        self.missing_grid = None

        def _lazy(load, *args):
            try:
                return load(*args), False
            except (ValueError, FileNotFoundError, OSError) as exc:
                from .errors import errno_from_exception

                if self.lane_errno is None:
                    code = errno_from_exception(exc)
                    if code is None and isinstance(exc, OSError) \
                            and exc.errno:
                        # a raw open() failure keeps the POSITIVE
                        # system errno (the C's catalog path)
                        code = exc.errno
                    self.lane_errno = code or -38
                return None, True

        # per side (src, dst): the datum step's grid list (a GridCatalog
        # for +catalog), then the geoid step's (+geoidgrids, steps 5/7
        # of pj_transform; never elided)
        self._hgrids, self._vgrids = [None, None], [None, None]
        failed = [False, False]
        for vertical, grids in ((False, self._hgrids), (True, self._vgrids)):
            for side, crs in enumerate((self.src, self.dst)):
                if vertical:
                    if crs.geoidgrids is None:
                        continue
                    load, name = gridlist_from_nadgrids, crs.geoidgrids
                elif self._skip_datum or crs.datum_type != PJD_GRIDSHIFT:
                    continue
                elif crs.catalog_name:
                    load, name = _load_catalog, crs.catalog_name
                else:
                    load, name = gridlist_from_nadgrids, crs.nadgrids
                grids[side], f = _lazy(load, name, loader)
                failed[vertical] |= f
        self._h_fail, self._v_fail = failed

    # -- datum step (src/pj_transform.c:602-720) ------------------------
    def _grid_shift(self, side, inverse, x, y):
        grids = self._hgrids[side]
        if isinstance(grids, list):
            return apply_gridshift(grids, inverse, x, y)
        x, y, missing = grids.apply((self.src, self.dst)[side].datum_date, inverse, x, y)
        if self.missing_grid is not None:
            missing = missing | self.missing_grid
        self.missing_grid = missing
        return x, y

    def _datum_transform(self, x, y, z):
        src, dst = self.src, self.dst
        if self._skip_datum:
            return x, y, z
        if self._h_fail:
            # deferred grid-load failure: every lane errors like the
            # C's per-point pj_transform() -38; z stays untouched (the
            # C aborts the point before any z step runs — cs2cs then
            # prints the ORIGINAL z, cs2cs.c:150-155)
            bad = np.full_like(x, HUGE)
            return bad, bad.copy(), z

        src_a, src_es = src.a_orig, src.es_orig
        dst_a, dst_es = dst.a_orig, dst.es_orig

        if src.datum_type == PJD_GRIDSHIFT:
            x, y = self._grid_shift(0, False, x, y)
            src_a = SRS_WGS84_SEMIMAJOR
            src_es = SRS_WGS84_ESQUARED
        if dst.datum_type == PJD_GRIDSHIFT:
            dst_a = SRS_WGS84_SEMIMAJOR
            dst_es = SRS_WGS84_ESQUARED

        if (src_es != dst_es or src_a != dst_a
                or src.datum_type in (PJD_3PARAM, PJD_7PARAM)
                or dst.datum_type in (PJD_3PARAM, PJD_7PARAM)):
            x, y, z = geodetic_to_geocentric(src_a, src_es, x, y, z)
            if src.datum_type in (PJD_3PARAM, PJD_7PARAM):
                x, y, z = helmert_to_wgs84(
                    src.datum_params, x, y, z, src.datum_type == PJD_7PARAM)
            if dst.datum_type in (PJD_3PARAM, PJD_7PARAM):
                x, y, z = helmert_from_wgs84(
                    dst.datum_params, x, y, z, dst.datum_type == PJD_7PARAM)
            x, y, z = geocentric_to_geodetic(dst_a, dst_es, x, y, z)

        if dst.datum_type == PJD_GRIDSHIFT:
            x, y = self._grid_shift(1, True, x, y)
        return x, y, z

    # -------------------------------------------------------------------
    def __call__(self, x, y, z=None):
        src, dst = self.src, self.dst
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = np.zeros_like(x) if z is None else np.asarray(z, dtype=np.float64)
        self.missing_grid = None

        # NaN/inf lanes come out HUGE (the per-lane error sentinel), so
        # the invalid-value warnings their kernel steps raise say nothing
        with np.errstate(invalid="ignore"):
            if src.is_latlong:
                x = x * DEG_TO_RAD
                y = y * DEG_TO_RAD

            # 1. axis normalization
            if src.axis != "enu":
                x, y, z = _adjust_axis(src.axis, False, x, y, z)
            # 2. vertical units
            if src.vto_meter != 1.0:
                z = z * src.vto_meter
            # 3. to geodetic
            if src.is_geocent:
                if src.to_meter != 1.0:
                    ok = np.isfinite(x)
                    x = np.where(ok, x * src.to_meter, x)
                    y = np.where(ok, y * src.to_meter, y)
                x, y, z = geocentric_to_geodetic(src.a_orig, src.es_orig, x, y, z)
            elif not src.is_latlong:
                x, y = generic_inv(src, x, y)
            # 4. + src prime meridian
            if src.from_greenwich != 0.0:
                x = np.where(np.isfinite(x), x + src.from_greenwich, x)
            # 5. source geoid -> ellipsoidal vertical shift (+geoidgrids)
            if self._v_fail:
                # deferred vgrid failure: x/y poisoned, original z kept
                x = np.full_like(x, HUGE)
                y = np.full_like(y, HUGE)
            if self._vgrids[0]:
                z, _ok = apply_vgridshift(self._vgrids[0], False, x, y, z)
            # 6. datum transform
            x, y, z = self._datum_transform(x, y, z)
            # 7. dst geoid vertical shift (inverse)
            if self._vgrids[1]:
                z, _ok = apply_vgridshift(self._vgrids[1], True, x, y, z)
            # 8. - dst prime meridian
            if dst.from_greenwich != 0.0:
                x = np.where(np.isfinite(x), x - dst.from_greenwich, x)
            # 9. to destination
            if dst.is_geocent:
                x, y, z = geodetic_to_geocentric(dst.a_orig, dst.es_orig, x, y, z)
                if dst.fr_meter != 1.0:
                    ok = np.isfinite(x)
                    x = np.where(ok, x * dst.fr_meter, x)
                    y = np.where(ok, y * dst.fr_meter, y)
            elif not dst.is_latlong:
                x, y = generic_fwd(dst, x, y)
            elif dst.is_long_wrap_set:
                # 10. lon_wrap recentering (src/pj_transform.c:332-344)
                ok = np.isfinite(x)
                c = dst.long_wrap_center
                xv = np.where(ok, x, c)
                xv = xv + TWOPI * np.ceil(np.maximum(0.0, (c - PI - xv)) / TWOPI)
                xv = xv - TWOPI * np.ceil(np.maximum(0.0, (xv - (c + PI))) / TWOPI)
                x = np.where(ok, xv, x)
            # 11. vertical units back
            if dst.vto_meter != 1.0:
                z = z * dst.vfr_meter
            # 12. axis denormalization
            if dst.axis != "enu":
                x, y, z = _adjust_axis(dst.axis, True, x, y, z)

            if dst.is_latlong:
                ok = np.isfinite(x) & np.isfinite(y)
                x = np.where(ok, x * RAD_TO_DEG, HUGE)
                y = np.where(ok, y * RAD_TO_DEG, HUGE)
        return x, y, z


def make_transform(src_def: str, dst_def: str, grid_loader=None) -> Transform:
    """Compile a transform once at driver time; the result is picklable and
    cheap to broadcast into map_batches workers."""
    return Transform(src_def, dst_def, grid_loader=grid_loader)
