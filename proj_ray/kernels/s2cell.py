"""S2-style spherical cell index: 64-bit Hilbert-curve cell ids.

Own construction from the published S2 geometry scheme (the open
s2geometry design docs; reference-adjacent to the cell geometry of
src/PJ_healpix.c, which likewise partitions the sphere into equal-ish
quad cells) — the north star names an "H3/S2 index" alongside the
Web-Mercator quadtree of kernels/tiling.py.  Unlike that quadtree, S2
cells cover the FULL sphere (poles included) and consecutive ids are
spatially adjacent (Hilbert locality), which makes range-partitioning
by cell id a locality-preserving shard key at 100-TB scale.

Scheme (all stages vectorized NumPy over Arrow-backed columns):

1. lon/lat -> unit vector (x, y, z).
2. Cube face 0..5 by largest-|component| (priority x, y, z on ties —
   fixed so the scalar oracle in tools/scalar_ref.py replicates it
   bit-for-bit), with per-face (u, v) in [-1, 1] from the published
   face table.
3. Quadratic u->s reprojection  s = sqrt(1+3u)/2 (u>=0), 1-sqrt(1-3u)/2
   otherwise — the area-equalizing ST transform.
4. i = clamp(floor(2^30 s), 0, 2^30-1)  (level-30 leaf coordinates).
5. Hilbert-curve position via the 4-orientation state machine
   (ij->pos tables + orientation masks), 30 vectorized rounds.
6. 64-bit id: face(3 bits) | position(60 bits) | trailing marker bit.
   A level-L id keeps the leading 2L position bits and sets the
   marker at bit 2*(30-L); parent/child moves are integer-only
   ((id & -lsb) | lsb), so multi-resolution aggregation never
   recomputes from lon/lat — the same cheap coarsening contract as
   kernels/tiling.py, expressible in ANSI-SQL BIGINT arithmetic
   (two's-complement & / | behave identically on the int64 view).

Ids are S2-standard uint64; they are handed to Arrow/DuckDB as the
int64 bit-pattern view (faces 4-5 set bit 63 and read negative — both
sides reinterpret, never compare magnitudes).
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 30
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U3 = np.uint64(3)

# Hilbert state machine (published S2 tables).
# kPosToIJ[orientation][pos] -> ij  (ij = 2*i_bit + j_bit)
POS_TO_IJ = np.array([
    [0, 1, 3, 2],   # canonical order
    [0, 2, 3, 1],   # axes swapped
    [3, 2, 0, 1],   # bits inverted
    [3, 1, 0, 2],   # swapped & inverted
], dtype=np.uint64)
# orientation change applied after visiting child `pos`
SWAP_MASK = 1
INVERT_MASK = 2
POS_TO_ORIENTATION = np.array(
    [SWAP_MASK, 0, 0, INVERT_MASK + SWAP_MASK], dtype=np.uint64)
# inverse tables: IJ_TO_POS[orientation][ij] -> pos
IJ_TO_POS = np.zeros((4, 4), dtype=np.uint64)
for _o in range(4):
    for _p in range(4):
        IJ_TO_POS[_o, POS_TO_IJ[_o, _p]] = _p


def lonlat_to_xyz(lon_deg, lat_deg):
    """Unit sphere vectors (float64)."""
    lon = np.asarray(lon_deg, dtype=np.float64) * (np.pi / 180.0)
    lat = np.asarray(lat_deg, dtype=np.float64) * (np.pi / 180.0)
    cl = np.cos(lat)
    return cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)


def xyz_to_face_uv(x, y, z):
    """Cube face 0..5 and in-face (u, v) in [-1, 1].

    Face priority on |component| ties is x, then y, then z (>=
    comparisons below) — fixed and replicated by the scalar oracle.
    """
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    axis = np.where(ax >= ay, np.where(ax >= az, 0, 2),
                    np.where(ay >= az, 1, 2))
    major = np.choose(axis, [x, y, z])
    face = np.where(major >= 0, axis, axis + 3).astype(np.int64)
    # published per-face (u, v) table, applied to that face's lanes only:
    # each lane divides by its own major component, never by another
    # face's (near-)zero one
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, uv in enumerate((
            lambda x, y, z: (y / x, z / x),      # 0: +x
            lambda x, y, z: (-x / y, z / y),     # 1: +y
            lambda x, y, z: (-x / z, -y / z),    # 2: +z
            lambda x, y, z: (z / x, y / x),      # 3: -x
            lambda x, y, z: (z / y, -x / y),     # 4: -y
            lambda x, y, z: (-y / z, -x / z))):  # 5: -z
        m = face == f
        if m.any():
            u[m], v[m] = uv(x[m], y[m], z[m])
    return face, u, v


def face_uv_to_xyz(face, u, v):
    """Inverse of :func:`xyz_to_face_uv` (unnormalized direction)."""
    face = np.asarray(face)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    one = np.ones_like(u)
    # per-face (x, y, z) in terms of (1, u, v)
    table = (
        (one, u, v),            # 0: +x
        (-u, one, v),           # 1: +y
        (-u, -v, one),          # 2: +z
        (-one, -v, -u),         # 3: -x
        (v, -one, -u),          # 4: -y
        (v, u, -one),           # 5: -z
    )
    x = np.empty_like(u)
    y = np.empty_like(u)
    z = np.empty_like(u)
    for f, (xe, ye, ze) in enumerate(table):
        m = face == f
        if m.any():
            x[m], y[m], z[m] = xe[m], ye[m], ze[m]
    return x, y, z


def uv_to_st(u):
    """Quadratic area-equalizing transform, [-1,1] -> [0,1]."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # np.where evaluates both arms
        return np.where(u >= 0.0, 0.5 * np.sqrt(1.0 + 3.0 * u),
                        1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u))


def st_to_uv(s):
    """Inverse quadratic transform, [0,1] -> [-1,1]."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.5, (1.0 / 3.0) * (4.0 * s * s - 1.0),
                    (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)))


def st_to_ij(s):
    """Level-30 leaf coordinate: clamp(floor(2^30 s), 0, 2^30-1)."""
    n = float(1 << MAX_LEVEL)
    return np.clip(np.floor(np.asarray(s, dtype=np.float64) * n),
                   0.0, n - 1.0).astype(np.uint64)


def hilbert_pos(face, i, j):
    """60-bit Hilbert-curve position of leaf (i, j) on ``face``.

    30 vectorized rounds of the 4-state machine; orientation starts at
    ``face & SWAP_MASK`` (odd faces traverse swapped) so the curve is
    continuous across the face sequence.
    """
    face = np.asarray(face).astype(np.uint64)
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    orient = face & _U1
    pos = np.zeros(i.shape, dtype=np.uint64)
    for k in range(MAX_LEVEL - 1, -1, -1):
        sh = np.uint64(k)
        ij = (((i >> sh) & _U1) << _U1) | ((j >> sh) & _U1)
        child = IJ_TO_POS[orient, ij]
        pos = (pos << _U2) | child
        orient = orient ^ POS_TO_ORIENTATION[child]
    return pos


def hilbert_ij(face, pos):
    """Inverse of :func:`hilbert_pos`: leaf (i, j) of a 60-bit position."""
    face = np.asarray(face).astype(np.uint64)
    pos = np.asarray(pos, dtype=np.uint64)
    orient = face & _U1
    i = np.zeros(pos.shape, dtype=np.uint64)
    j = np.zeros(pos.shape, dtype=np.uint64)
    for k in range(MAX_LEVEL - 1, -1, -1):
        child = (pos >> np.uint64(2 * k)) & _U3
        ij = POS_TO_IJ[orient, child]
        i = (i << _U1) | (ij >> _U1)
        j = (j << _U1) | (ij & _U1)
        orient = orient ^ POS_TO_ORIENTATION[child]
    return i, j


def lsb_for_level(level: int) -> np.uint64:
    return np.uint64(1) << np.uint64(2 * (MAX_LEVEL - level))


def leaf_id(face, i, j):
    """Level-30 cell id: face<<61 | pos<<1 | 1 (uint64)."""
    pos = hilbert_pos(face, i, j)
    return (np.asarray(face).astype(np.uint64) << np.uint64(61)) \
        | (pos << _U1) | _U1


def id_at_level(ids, level: int):
    """Ancestor of leaf/finer ids at ``level`` — integer-only
    (id & -lsb) | lsb, the same arithmetic the SQL oracle runs on the
    int64 view."""
    ids = np.asarray(ids, dtype=np.uint64)
    lsb = lsb_for_level(level)
    neg = (~lsb + _U1)          # two's-complement -lsb in uint64
    return (ids & neg) | lsb


def cell_id_from_lonlat(lon_deg, lat_deg, level: int = MAX_LEVEL):
    """Vectorized lon/lat (degrees) -> S2 cell id at ``level`` (uint64).

    A lane with a non-finite lon or lat gets id 0 (S2's invalid
    ``CellId::None``) at every level.  Such lanes run the math on
    (0, 0) instead, so no NaN reaches the float -> uint64 cast, whose
    result is CPU-defined."""
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    ok = np.isfinite(lon) & np.isfinite(lat)
    x, y, z = lonlat_to_xyz(np.where(ok, lon, 0.0), np.where(ok, lat, 0.0))
    face, u, v = xyz_to_face_uv(x, y, z)
    i = st_to_ij(uv_to_st(u))
    j = st_to_ij(uv_to_st(v))
    ids = leaf_id(face, i, j)
    if level < MAX_LEVEL:
        ids = id_at_level(ids, level)
    # [()] keeps a scalar input's result a numpy scalar
    return np.where(ok, ids, np.uint64(0))[()]


def level_of(ids):
    """Level of each cell id (position of the trailing marker bit)."""
    ids = np.asarray(ids, dtype=np.uint64)
    lsb = ids & (~ids + _U1)
    # marker at bit 2*(30-L): L = 30 - bit/2
    bit = np.zeros(ids.shape, dtype=np.int64)
    v = lsb.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bit += np.where(m, s, 0)
        v = np.where(m, v >> np.uint64(s), v)
    return MAX_LEVEL - bit // 2


def decode_face_ij(ids):
    """(face, i, j) by decoding ALL 30 position rounds of the id.

    The marker bit and the zeros below it are decoded as if they were
    curve children (the published ToFaceIJOrientation semantics): for a
    non-leaf cell the result is NOT a geometric corner of the cell —
    the curve-parity ``delta`` correction in :func:`cell_center_st`
    turns it into the exact center.  Round r's 2-bit child sits at bits
    (60-2r, 59-2r) of the 61-bit position field.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    face = ids >> np.uint64(61)
    orient = face & _U1
    i = np.zeros(ids.shape, dtype=np.uint64)
    j = np.zeros(ids.shape, dtype=np.uint64)
    for r in range(MAX_LEVEL):
        child = (ids >> np.uint64(59 - 2 * r)) & _U3
        ij = POS_TO_IJ[orient, child]
        i = (i << _U1) | (ij >> _U1)
        j = (j << _U1) | (ij & _U1)
        orient = orient ^ POS_TO_ORIENTATION[child]
    return face.astype(np.int64), i, j


def cell_center_st(ids):
    """Exact (face, s, t) center of each cell id (any level).

    Published GetCenterSiTi rule: decode the full 30 rounds (phantom
    marker children included), then
    ``delta = 1`` for a leaf, else ``2`` when ``(i ^ (id >> 2)) & 1``
    (curve-parity test) else ``0``; center si = 2*i + delta on the
    2^31 grid.  Integer-exact, mixed levels fine.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    face, i, j = decode_face_ij(ids)
    is_leaf = (ids & _U1).astype(bool)
    parity = ((i ^ (ids >> _U2)) & _U1).astype(bool)
    delta = np.where(is_leaf, np.uint64(1),
                     np.where(parity, np.uint64(2), np.uint64(0)))
    si = (i << _U1) + delta
    ti = (j << _U1) + delta
    n2 = float(1 << (MAX_LEVEL + 1))
    return face, si.astype(np.float64) / n2, ti.astype(np.float64) / n2


def cell_center_lonlat(ids):
    """Center lon/lat (degrees) of each cell id (any level)."""
    face, s, t = cell_center_st(ids)
    u = st_to_uv(s)
    v = st_to_uv(t)
    x, y, z = face_uv_to_xyz(face, u, v)
    lon = np.degrees(np.arctan2(y, x))
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    return lon, lat


def cell_range(ids):
    """[range_min, range_max] leaf-id interval covered by each cell —
    the locality-preserving shard-key contract: a child's id always
    lies inside its ancestor's interval (pure integer arithmetic, same
    on the SQL int64 view)."""
    ids = np.asarray(ids, dtype=np.uint64)
    lsb = ids & (~ids + _U1)
    return ids - (lsb - _U1), ids + (lsb - _U1)


# ---------------------------------------------------------------------------
# Region covering: level-L cells intersecting a lon/lat bbox.
# Exact-SUPERSET guarantee (never misses an intersecting cell; may
# include extra boundary cells): per face, an analytic (u, v) bounding
# rectangle of the bbox image — u = tan(dlon) and v = tan(lat)/cos(dlon)
# on equatorial faces (monotone per variable, so endpoint+critical-point
# evaluation bounds them), u/v = -cos/sin(lon)/tan(lat) on polar faces —
# then every level-L cell whose (i, j) square intersects the rect.
# The no-miss property is what shard pruning rests on; pinned against
# brute-force membership in tests/test_s2cell.py.
# ---------------------------------------------------------------------------

_POLAR_MIN_LAT = 35.26  # < atan(1/sqrt(2)) deg: every polar-face point
#                         has |lat| >= 35.2643...; the slack keeps the
#                         clip strictly conservative


def _face_rects(lon0, lon1, lat0, lat1):
    """Per-face conservative (u_lo, u_hi, v_lo, v_hi) rectangles of the
    bbox image, clamped to the face square; None when provably empty."""
    d2r = np.pi / 180.0
    rects = {}
    # equatorial faces: center longitudes 0, 90, 180, -90.  In face
    # coordinates, t = tan(dlon) and w = tan(lat)/cos(dlon); the face
    # table (xyz_to_face_uv) orients them as (u, v) = (t, w) on faces
    # 0-1 but (u, v) = (-w, t) on faces 3-4 (x or y negative flips and
    # transposes the axes).
    for face, lon_c in ((0, 0.0), (1, 90.0), (3, 180.0), (4, -90.0)):
        t_lo = t_hi = None
        w_cand = []
        for shift in (-360.0, 0.0, 360.0):
            d0 = lon0 - lon_c + shift
            d1 = lon1 - lon_c + shift
            a = max(d0, -89.9999)
            b = min(d1, 89.9999)
            if a > b:
                continue
            ta, tb = np.tan(a * d2r), np.tan(b * d2r)
            t_lo = ta if t_lo is None else min(t_lo, ta)
            t_hi = tb if t_hi is None else max(t_hi, tb)
            dl_cand = [a, b] + ([0.0] if a <= 0.0 <= b else [])
            for la in (lat0, lat1):
                for dl in dl_cand:
                    w_cand.append(np.tan(la * d2r) / np.cos(dl * d2r))
        if t_lo is None:
            continue
        if face in (0, 1):
            rect = (max(t_lo, -1.0), min(t_hi, 1.0),
                    max(min(w_cand), -1.0), min(max(w_cand), 1.0))
        else:
            rect = (max(-max(w_cand), -1.0), min(-min(w_cand), 1.0),
                    max(t_lo, -1.0), min(t_hi, 1.0))
        if rect[0] <= rect[1] and rect[2] <= rect[3]:
            rects[face] = rect
    # polar faces: u/v are (+-cos, +-sin)(lon) / tan(lat)
    for face, sgn in ((2, 1.0), (5, -1.0)):
        la0 = max(lat0, _POLAR_MIN_LAT) if sgn > 0 else max(-lat1,
                                                            _POLAR_MIN_LAT)
        la1 = min(lat1, 90.0) if sgn > 0 else min(-lat0, 90.0)
        if la0 > la1:
            continue
        # r = 1/tan(|lat|) in [r_lo, r_hi], 0 at the pole
        r_hi = 1.0 / np.tan(la0 * d2r)
        r_lo = 0.0 if la1 >= 90.0 else 1.0 / np.tan(la1 * d2r)
        cos_c = [np.cos(lon0 * d2r), np.cos(lon1 * d2r)]
        sin_c = [np.sin(lon0 * d2r), np.sin(lon1 * d2r)]
        for crit, is_cos in ((0.0, True), (180.0, True), (-180.0, True),
                             (90.0, False), (-90.0, False)):
            if lon0 <= crit <= lon1:
                (cos_c if is_cos else sin_c).append(
                    np.cos(crit * d2r) if is_cos else np.sin(crit * d2r))
        if face == 2:
            # u = -cos(lon)*r, v = -sin(lon)*r
            uc = [-c * r for c in cos_c for r in (r_lo, r_hi)]
            vc = [-s * r for s in sin_c for r in (r_lo, r_hi)]
        else:
            # z < 0: u = -y/z = sin(lon)*r, v = -x/z = cos(lon)*r
            uc = [s * r for s in sin_c for r in (r_lo, r_hi)]
            vc = [c * r for c in cos_c for r in (r_lo, r_hi)]
        rect = (max(min(uc), -1.0), min(max(uc), 1.0),
                max(min(vc), -1.0), min(max(vc), 1.0))
        if rect[0] <= rect[1] and rect[2] <= rect[3]:
            rects[face] = rect
    return rects


def bbox_covering(lon0, lon1, lat0, lat1, level: int):
    """All level-``level`` cell ids whose cell could intersect the
    non-wrapping bbox [lon0, lon1] x [lat0, lat1] (degrees) — an exact
    superset of the truly-intersecting set.  Returns sorted uint64 ids."""
    if lon0 > lon1 or lat0 > lat1:
        return np.array([], dtype=np.uint64)
    shift = np.uint64(MAX_LEVEL - level)
    out = []
    for face, (u0, u1, v0, v1) in _face_rects(lon0, lon1, lat0, lat1).items():
        i0 = int(st_to_ij(uv_to_st(np.float64(u0)))) >> (MAX_LEVEL - level)
        i1 = int(st_to_ij(uv_to_st(np.float64(u1)))) >> (MAX_LEVEL - level)
        j0 = int(st_to_ij(uv_to_st(np.float64(v0)))) >> (MAX_LEVEL - level)
        j1 = int(st_to_ij(uv_to_st(np.float64(v1)))) >> (MAX_LEVEL - level)
        ic, jc = np.meshgrid(np.arange(i0, i1 + 1, dtype=np.uint64),
                             np.arange(j0, j1 + 1, dtype=np.uint64))
        fa = np.full(ic.size, face, dtype=np.uint64)
        ids = leaf_id(fa, ic.ravel() << shift, jc.ravel() << shift)
        out.append(id_at_level(ids, level))
    if not out:
        return np.array([], dtype=np.uint64)
    return np.unique(np.concatenate(out))
