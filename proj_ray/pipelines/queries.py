"""The engine's query registry: every operator from SURVEY.md §2 exposed
as a named Ray Data pipeline plus (where SQL-expressible) a DuckDB
oracle that reproduces the computation independently.

Exactness design (the driver hash-compares values):
- integer results (counts, cents, ids, cells) are exact by construction
- float results either use ONLY IEEE-deterministic ops shared by both
  engines (+,-,*,/,sqrt,sin,cos are bit-identical numpy<->duckdb on this
  platform) and match bit-for-bit at full precision, or — where ln/tan/
  pow/atan (1-3 ulp libm differences) are involved — both sides round
  via the same floor(x*s+0.5)/s expression at a scale that swallows the
  ulp noise.
- engine constants (series coefficients, lam0, es, ...) are computed
  once in Python and pasted into the SQL as repr() literals, so both
  sides run the identical op sequence on identical constants.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import read_table, table_rows
from .flagship import FLAGSHIP_POLYGONS, KEY_COLS
from .derive import (
    DEG_TO_RAD_LIT,
    LAT_MUL,
    LON_MUL,
    PID_SQL,
    lon_band_numpy,
    lon_band_sql,
    lonlat_numpy,
    lonlat_sql,
    pid_numpy,
)

QUERIES: dict = {}


def query(name, sql=None):
    def deco(fn):
        QUERIES[name] = {"fn": fn, "sql": sql}
        return fn

    return deco


# DuckDB SUM(BIGINT) yields HUGEINT, which fetchdf() materializes as
# float64 — while the engine returns int64.  The driver's value hash is
# dtype-sensitive (round-1 lesson: 9 bitwise-correct queries failed on
# exactly this).  Every SUM in an oracle MUST be wrapped in
# CAST(... AS BIGINT); SUM_BIG is the idiom.
def SUM_BIG(e):
    return f"CAST(SUM({e}) AS BIGINT)"


import os as _os

_GOLDEN_DIR = _os.path.abspath(_os.path.join(
    _os.path.dirname(_os.path.abspath(__file__)), "..", "data", "goldens"))


def _golden_sql(fname):
    """Oracle for deterministic non-SQL-expressible queries: a frozen
    golden table.  EVERY golden is generated by an implementation
    independent of the engine path it gates (tools/freeze_goldens.py:
    scalar Karney port, scalar NTv2 reader+apply, brute-force geodesic
    scans, union-find clusters, gift-wrapping hulls); provenance chain
    documented there and proven in tests/test_scalar_ref.py.  Valid for
    the driver's sf=0.01 inputs."""
    return f"SELECT * FROM read_parquet('{_os.path.join(_GOLDEN_DIR, fname)}')"


def _sorted_pdf(obj, by):
    """Small-result finisher: driver-side pandas frame in deterministic
    row order (belt-and-braces vs any row-order-sensitive hashing).
    Only for results bounded by key cardinality (<= ~15k rows)."""
    df = obj.to_pandas() if not isinstance(obj, pd.DataFrame) else obj
    return df.sort_values(by).reset_index(drop=True)


def _typed(ds, **cols):
    """The Dataset ``ds``, or an empty table with ``cols`` (name ->
    pyarrow type) when ``ds`` has no rows: Ray Data keeps no schema for
    a zero-row Dataset (its ``to_pandas()`` has no columns), while the
    oracle's empty result has typed ones."""
    ds = ds.materialize()
    return ds if ds.count() else pa.schema(cols).empty_table()


def _typed_input(ds, sf_dir, table, **cols):
    """``ds``, or an empty table with ``cols`` when the input ``table``
    of ``sf_dir`` has no rows. The count comes from the part files'
    footers, so unlike ``_typed`` nothing runs and no result is held. It
    serves the per-group queries (``polygon_area_geodesic``,
    ``trajectory_length``, ``traj_simplify_dp``), whose shuffle has no
    block function to run on a zero-row input; the per-point queries use
    ``_per_point``. (``polygon_area_geodesic`` can also return zero rows
    on a non-empty input; that result still has no columns.)"""
    return ds if table_rows(sf_dir, table) else pa.schema(cols).empty_table()


# ===========================================================================
# Geospatial: PROJ-kernel transforms with independent SQL oracles.
# Engine constants (series coefficients, lam0, es, ...) are computed once
# here and pasted into the SQL as repr() literals so both sides execute
# the identical IEEE op sequence (see module docstring).
# ===========================================================================

from ..kernels.common import (  # noqa: E402
    FORTPI, HALFPI, RAD_TO_DEG, enfn,
)
from ..transform import make_transform  # noqa: E402

def _R(x):
    """Paste an engine constant as a DOUBLE literal. DuckDB parses bare
    decimal literals as DECIMAL (and its DECIMAL->DOUBLE cast can be
    1 ulp off), but scientific-notation literals are DOUBLE and parse
    to the exact same bits as Python's repr round-trip."""
    r = repr(float(x))
    return r if ("e" in r or "E" in r or "inf" in r or "nan" in r) else r + "e0"

ROUND2_SQL = "floor(({e}) * 100.0 + 0.5) / 100.0"


def _r2(x):
    return np.floor(x * 100.0 + 0.5) / 100.0


def _points(pid) -> pa.Table:
    """(pid, lon, lat) of the derived points ``pid``."""
    lon, lat = lonlat_numpy(pid)
    return pa.table({"pid": pid, "lon": lon, "lat": lat})


def _pids(t: pa.Table):
    """The int64 derived point ids of a table of lineitem keys."""
    return pid_numpy(t["l_orderkey"].to_numpy(zero_copy_only=False),
                     t["l_linenumber"].to_numpy(zero_copy_only=False))


def _points_ds(sf_dir, fn=_points):
    """``fn`` over each lineitem block's int64 ``pid`` array (the derived
    point ids), as a Dataset; by default the (pid, lon, lat) point
    stream."""
    ds = read_table(sf_dir, "lineitem", columns=KEY_COLS)

    def block(t: pa.Table) -> pa.Table:
        return fn(_pids(t))

    return ds.map_batches(block, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def _per_point(sf_dir, fn):
    """A per-point query: ``fn`` maps a block's int64 ``pid`` array to its
    output table. Returns ``_points_ds(sf_dir, fn)``, or, when lineitem's
    parquet footers count no row, ``fn`` of no pids: Ray Data keeps no
    schema for a zero-row Dataset, so the empty answer's columns and
    types come from the same code as a non-empty one's."""
    if table_rows(sf_dir, "lineitem"):
        return _points_ds(sf_dir, fn)
    return fn(np.empty(0, np.int64))


_LON_SQL, _LAT_SQL = lonlat_sql(PID_SQL)
_POINTS_CTE = f"""
points AS (
  SELECT {PID_SQL} AS pid, {_LON_SQL} AS lon, {_LAT_SQL} AS lat FROM lineitem
)"""


# -- Web Mercator forward ---------------------------------------------------

@query(
    "points_webmerc",
    sql=f"""
    WITH {_POINTS_CTE}
    SELECT pid,
           {ROUND2_SQL.format(e=f"6378137.0 * (lon * {DEG_TO_RAD_LIT})")} AS xm,
           {ROUND2_SQL.format(e=f"6378137.0 * ln(tan({_R(FORTPI)} + 0.5 * (lat * {DEG_TO_RAD_LIT})))")} AS ym
    FROM points
    """,
)
def points_webmerc(sf_dir):
    """WGS84 lon/lat -> EPSG:3857 through the full fused transform
    pipeline (incl. the @null nadgrids datum branch of epsg:3857)."""
    t = make_transform("+init=epsg:4326", "+init=epsg:3857")

    def fn(pid):
        xm, ym, _ = t(*lonlat_numpy(pid))
        return pa.table({"pid": pid, "xm": _r2(xm), "ym": _r2(ym)})

    return _per_point(sf_dir, fn)


# -- UTM (tmerc series) forward --------------------------------------------

def _utm_sql():
    """Emit the exact Snyder-series SQL mirroring kernels.projections
    _tmerc_setup_common, with engine-computed constants pasted in."""
    from ..crs import CRS

    P = CRS("+proj=utm +zone=33 +datum=WGS84")
    en = enfn(P.es)
    ml0 = 0.0  # phi0 = 0
    esp = P.es / (1.0 - P.es)
    FC = (1.0, 0.5, 0.16666666666666666666, 0.08333333333333333333, 0.05,
          0.03333333333333333333, 0.02380952380952380952, 0.01785714285714285714)
    lon_sql = lon_band_sql(PID_SQL, 1200, 600)  # lon in [12, 18)
    return f"""
    WITH pts AS (
      SELECT {PID_SQL} AS pid,
             ({lon_sql}) * {DEG_TO_RAD_LIT} - {_R(P.lam0)} AS lam,
             ({_LAT_SQL}) * {DEG_TO_RAD_LIT} AS phi
      FROM lineitem
    ), trig AS (
      SELECT pid, lam, phi, sin(phi) AS sinphi, cos(phi) AS cosphi FROM pts
    ), t1 AS (
      SELECT *,
        CASE WHEN abs(cosphi) > 1e-10 THEN (sinphi/cosphi)*(sinphi/cosphi) ELSE 0.0 END AS t,
        (cosphi * lam) * (cosphi * lam) AS als,
        (cosphi * lam) / sqrt(1.0 - {_R(P.es)} * sinphi * sinphi) AS al,
        {_R(esp)} * cosphi * cosphi AS n
      FROM trig
    )
    SELECT pid,
      {_R(P.a)} * ({_R(P.k0)} * al * ({_R(FC[0])} +
        {_R(FC[2])} * als * (1.0 - t + n +
        {_R(FC[4])} * als * (5.0 + t * (t - 18.0) + n * (14.0 - 58.0 * t)
        + {_R(FC[6])} * als * (61.0 + t * (t * (179.0 - t) - 479.0)))))) + 500000.0 AS xm,
      {_R(P.a)} * ({_R(P.k0)} * (({_R(en[0])} * phi - (cosphi * sinphi) *
          ({_R(en[1])} + (sinphi*sinphi)*({_R(en[2])}
           + (sinphi*sinphi)*({_R(en[3])} + (sinphi*sinphi)*{_R(en[4])})))) - {_R(ml0)} +
        sinphi * al * lam * {_R(FC[1])} * (1.0 +
        {_R(FC[3])} * als * (5.0 - t + n * (9.0 + 4.0 * n) +
        {_R(FC[5])} * als * (61.0 + t * (t - 58.0) + n * (270.0 - 330.0 * t)
        + {_R(FC[7])} * als * (1385.0 + t * (t * (543.0 - t) - 3111.0))))))) + 0.0 AS ym
    FROM t1
    """


@query("points_utm", sql=_utm_sql())
def points_utm(sf_dir):
    """Derived points in the zone-33 band -> UTM 33N. The tmerc series
    uses only +,-,*,/,sqrt,sin,cos => bit-identical to the SQL oracle at
    FULL precision (no rounding)."""
    t = make_transform("+proj=latlong +datum=WGS84",
                       "+proj=utm +zone=33 +datum=WGS84")

    def fn(pid):
        xm, ym, _ = t(lon_band_numpy(pid, 1200, 600), lonlat_numpy(pid)[1])
        return pa.table({"pid": pid, "xm": xm, "ym": ym})

    return _per_point(sf_dir, fn)


# -- Lambert Conformal Conic forward ----------------------------------------

_LCC_DEF = ("+proj=lcc +lat_1=44 +lat_2=49 +lat_0=46.5 +lon_0=3 "
            "+x_0=700000 +y_0=6600000 +datum=WGS84")


def _lcc_sql():
    from ..crs import CRS
    from ..kernels.common import msfn, tsfn

    P = CRS(_LCC_DEF)
    phi1 = P.param_r("lat_1")
    phi2_ = P.param_r("lat_2")
    sinphi = np.sin(phi1)
    m1 = float(msfn(sinphi, np.cos(phi1), P.es))
    ml1 = float(tsfn(np.float64(phi1), sinphi, P.e))
    sinphi2 = np.sin(phi2_)
    n = float(np.log(m1 / float(msfn(sinphi2, np.cos(phi2_), P.es)))
              / np.log(ml1 / float(tsfn(np.float64(phi2_), sinphi2, P.e))))
    c = rho0 = m1 * ml1 ** (-n) / n
    rho0 = rho0 * float(tsfn(np.float64(P.phi0), np.sin(P.phi0), P.e)) ** n
    lon_sql = lon_band_sql(PID_SQL, -500, 1500)  # lon in [-5, 10)
    # tsfn(phi) = tan(.5*(HALFPI - phi)) / ((1-e*sin)/(1+e*sin))^(e/2)
    tsfn_sql = (f"tan(0.5 * ({_R(HALFPI)} - phi)) / "
                f"pow((1.0 - {_R(P.e)} * sin(phi)) / (1.0 + {_R(P.e)} * sin(phi)), {_R(0.5 * P.e)})")
    return f"""
    WITH pts AS (
      SELECT {PID_SQL} AS pid,
             ({lon_sql}) * {DEG_TO_RAD_LIT} - {_R(P.lam0)} AS lam,
             ({_LAT_SQL}) * {DEG_TO_RAD_LIT} AS phi
      FROM lineitem
    ), rho_t AS (
      SELECT pid, lam, {_R(c)} * pow({tsfn_sql}, {_R(n)}) AS rho FROM pts
    )
    SELECT pid,
      {ROUND2_SQL.format(e=f"{_R(P.a)} * ({_R(P.k0)} * (rho * sin(lam * {_R(n)}))) + 700000.0")} AS xm,
      {ROUND2_SQL.format(e=f"{_R(P.a)} * ({_R(P.k0)} * ({_R(rho0)} - rho * cos(lam * {_R(n)}))) + 6600000.0")} AS ym
    FROM rho_t
    """


@query("points_lcc", sql=_lcc_sql())
def points_lcc(sf_dir):
    """European-band points -> LCC 2SP (tan/pow in tsfn => cm rounding
    swallows the <=3-ulp libm differences)."""
    t = make_transform("+proj=latlong +datum=WGS84", _LCC_DEF)

    def fn(pid):
        xm, ym, _ = t(lon_band_numpy(pid, -500, 1500), lonlat_numpy(pid)[1])
        return pa.table({"pid": pid, "xm": _r2(xm), "ym": _r2(ym)})

    return _per_point(sf_dir, fn)


# -- geocentric XYZ ---------------------------------------------------------

def _geocent_sql():
    from ..crs import CRS

    P = CRS("+proj=geocent +datum=WGS84")
    return f"""
    WITH {_POINTS_CTE}
    SELECT pid,
      ({_R(P.a)} / sqrt(1.0 - {_R(P.es)} * (sin(lat * {DEG_TO_RAD_LIT}) * sin(lat * {DEG_TO_RAD_LIT}))) + 100.0)
        * cos(lat * {DEG_TO_RAD_LIT}) * cos(lon * {DEG_TO_RAD_LIT}) AS gx,
      ({_R(P.a)} / sqrt(1.0 - {_R(P.es)} * (sin(lat * {DEG_TO_RAD_LIT}) * sin(lat * {DEG_TO_RAD_LIT}))) + 100.0)
        * cos(lat * {DEG_TO_RAD_LIT}) * sin(lon * {DEG_TO_RAD_LIT}) AS gy,
      (({_R(P.a)} / sqrt(1.0 - {_R(P.es)} * (sin(lat * {DEG_TO_RAD_LIT}) * sin(lat * {DEG_TO_RAD_LIT}))))
        * {_R(1.0 - P.es)} + 100.0) * sin(lat * {DEG_TO_RAD_LIT}) AS gz
    FROM points
    """


@query("points_geocent", sql=_geocent_sql())
def points_geocent(sf_dir):
    """lon/lat/h=100 -> geocentric XYZ; sin/cos/sqrt only => FULL
    precision bitwise match (src/geocent.c:148-205 closed form)."""
    t = make_transform("+proj=latlong +datum=WGS84", "+proj=geocent +datum=WGS84")

    def fn(pid):
        X, Y, Z = t(*lonlat_numpy(pid), np.full(pid.shape, 100.0))
        return pa.table({"pid": pid, "gx": X, "gy": Y, "gz": Z})

    return _per_point(sf_dir, fn)


# ===========================================================================
# Geospatial part 2: Helmert, inverse webmerc, tiling, PIP join, kNN,
# haversine, synthetic grid shift, pm/axis/units, geoparse extraction
# ===========================================================================

from ..kernels.tiling import cell_id as _cell_id, cell_xy as _cell_xy  # noqa: E402
from ..kernels.tiling import parent_cell as _parent  # noqa: E402
from ..kernels.geodesic import MEAN_RADIUS, haversine as _haversine  # noqa: E402
from ..stages.geoparse import GeoparseStage, synth_pages_batch  # noqa: E402
from ..stages.knn_stage import knn_topk  # noqa: E402
from ..stages.pip_stage import PIPJoinActor  # noqa: E402


# -- 7-param Helmert on geocentric XYZ (linear => bitwise exact) -----------

def _helmert_sql():
    from ..crs import CRS

    dp = CRS("+proj=latlong +datum=potsdam").datum_params  # pre-scaled (rad, 1+ppm)
    X = f"(CAST(({PID_SQL}) * 31 % 2000000 - 1000000 AS DOUBLE) + 6378137.0e0)"
    Y = f"CAST(({PID_SQL}) * 37 % 2000000 - 1000000 AS DOUBLE)"
    Z = f"CAST(({PID_SQL}) * 41 % 2000000 - 1000000 AS DOUBLE)"
    return f"""
    WITH xyz AS (SELECT {PID_SQL} AS pid, {X} AS X, {Y} AS Y, {Z} AS Z FROM lineitem)
    SELECT pid,
      {_R(dp[6])} * (X - {_R(dp[5])} * Y + {_R(dp[4])} * Z) + {_R(dp[0])} AS hx,
      {_R(dp[6])} * ({_R(dp[5])} * X + Y - {_R(dp[3])} * Z) + {_R(dp[1])} AS hy,
      {_R(dp[6])} * (-{_R(dp[4])} * X + {_R(dp[3])} * Y + Z) + {_R(dp[2])} AS hz
    FROM xyz
    """


@query("helmert7_xyz", sql=_helmert_sql())
def helmert7_xyz(sf_dir):
    """Position-vector 7-param Helmert toward WGS84 on derived XYZ
    (src/pj_transform.c:502-543). Linear => full-precision bitwise."""
    from ..crs import CRS
    from ..kernels.geocent import helmert_to_wgs84

    dp = CRS("+proj=latlong +datum=potsdam").datum_params

    def fn(pid):
        X = (pid * 31 % 2000000 - 1000000).astype(np.float64) + 6378137.0
        Y = (pid * 37 % 2000000 - 1000000).astype(np.float64)
        Z = (pid * 41 % 2000000 - 1000000).astype(np.float64)
        hx, hy, hz = helmert_to_wgs84(dp, X, Y, Z, seven=True)
        return pa.table({"pid": pid, "hx": hx, "hy": hy, "hz": hz})

    return _per_point(sf_dir, fn)


# -- inverse Web Mercator ---------------------------------------------------

ROUND6_SQL = "floor(({e}) * 1.0e6 + 0.5) / 1.0e6"


def _r6(x):
    return np.floor(x * 1.0e6 + 0.5) / 1.0e6


def _webmerc_inv_sql():
    ra = 1.0 / 6378137.0
    XM = f"CAST((({PID_SQL}) * {LON_MUL}) % 36000 - 18000 AS DOUBLE) * 1.0e3"
    YM = f"CAST((({PID_SQL}) * {LAT_MUL}) % 16000 - 8000 AS DOUBLE) * 1.0e3"
    return f"""
    WITH m AS (SELECT {PID_SQL} AS pid, {XM} AS xm, {YM} AS ym FROM lineitem)
    SELECT pid,
      {ROUND6_SQL.format(e=f"(xm * {_R(ra)}) * {_R(RAD_TO_DEG)}")} AS lon,
      {ROUND6_SQL.format(e=f"({_R(HALFPI)} - 2.0 * atan(exp(-(ym * {_R(ra)})))) * {_R(RAD_TO_DEG)}")} AS lat
    FROM m
    """


@query("webmerc_inverse", sql=_webmerc_inv_sql())
def webmerc_inverse(sf_dir):
    """EPSG:3857 meters -> WGS84 degrees through the fused inverse
    pipeline (incl. the epsg:3857 @null-grid datum branch)."""
    t = make_transform("+init=epsg:3857", "+init=epsg:4326")

    def fn(pid):
        xm = (pid * LON_MUL % 36000 - 18000).astype(np.float64) * 1.0e3
        ym = (pid * LAT_MUL % 16000 - 8000).astype(np.float64) * 1.0e3
        lon, lat, _ = t(xm, ym)
        return pa.table({"pid": pid, "lon": _r6(lon), "lat": _r6(lat)})

    return _per_point(sf_dir, fn)


# -- tile assignment + per-tile aggregate ----------------------------------

_TILE_ZOOM = 12


def _tile_sql_exprs(zoom):
    n = float(1 << zoom)
    pi = float(np.pi)
    u = "((lon + 180.0) / 360.0)"
    latr = f"(lat * {_R(pi / 180.0)})"
    v = f"((1.0 - ln(tan({_R(pi / 4.0)} + {latr} / 2.0)) / {_R(pi)}) / 2.0)"
    tx = f"CAST(least(greatest(floor({u} * {_R(n)}), 0.0), {_R(n - 1)}) AS BIGINT)"
    ty = f"CAST(least(greatest(floor({v} * {_R(n)}), 0.0), {_R(n - 1)}) AS BIGINT)"
    return tx, ty


def _tile_assign_sql():
    tx, ty = _tile_sql_exprs(_TILE_ZOOM)
    return f"""
    WITH {_POINTS_CTE}
    SELECT pid, {tx} AS tile_x, {ty} AS tile_y,
           {ty} * {1 << _TILE_ZOOM} + {tx} AS cell_id
    FROM points
    """


@query("tile_assign", sql=_tile_assign_sql())
def tile_assign(sf_dir):
    """Integer-exact web-mercator quadtree cells at zoom 12 (documented
    half-open edge convention; see kernels.tiling)."""
    def fn(pid):
        lon, lat = lonlat_numpy(pid)
        tx, ty = _cell_xy(lon, lat, _TILE_ZOOM)
        return pa.table({"pid": pid, "tile_x": tx, "tile_y": ty,
                         "cell_id": _cell_id(lon, lat, _TILE_ZOOM)})

    return _per_point(sf_dir, fn)


def _tile_agg_sql():
    tx, ty = _tile_sql_exprs(_TILE_ZOOM)
    d = _TILE_ZOOM - 4
    return f"""
    WITH {_POINTS_CTE},
    cells AS (
      SELECT pid, ({ty} // {1 << d}) * {1 << 4} + ({tx} // {1 << d}) AS parent_cell,
             ((pid) * {LON_MUL}) % 36000 - 18000 AS lon_centi
      FROM points
    )
    SELECT parent_cell, COUNT(*) AS n_points, CAST(SUM(lon_centi) AS BIGINT) AS sum_lon_centi,
           MIN(pid) AS min_pid
    FROM cells GROUP BY parent_cell
    """


@query("tile_agg", sql=_tile_agg_sql())
def tile_agg(sf_dir):
    """Per-tile aggregate at zoom 4 (stages.agg.group_agg: dense cells
    pre-reduced per block, <= 256 zoom-4 parent cells per block)."""
    from ..stages.agg import group_agg

    def cols(pid):
        cid = _cell_id(*lonlat_numpy(pid), _TILE_ZOOM)
        return pa.table({"parent_cell": _parent(cid, _TILE_ZOOM, 4),
                         "lon_centi": pid * LON_MUL % 36000 - 18000,
                         "pid": pid})

    out = group_agg(_points_ds(sf_dir, cols),
                    ["parent_cell"], {"n_points": ("pid", "count"),
                                      "sum_lon_centi": ("lon_centi", "sum"),
                                      "min_pid": ("pid", "min")})
    return _sorted_pdf(out.astype(np.int64), ["parent_cell"])


# -- S2 spherical cell index (Hilbert-curve ids) -----------------------------
#
# The north-star's "H3/S2 index" leg.  The engine assigns standard
# uint64 S2 cell ids (kernels/s2cell.py: face cube + quadratic ST +
# 30-round Hilbert state machine) and coarsens with pure int64 bit
# arithmetic; the oracle re-derives the SAME ids in ANSI SQL — the
# Hilbert machine as a 30-step recursive CTE, the parent move as
# two's-complement BIGINT ops — so the gate covers the whole chain.
# Trig determinism: numpy's and DuckDB's cos/sin agree bit-for-bit on
# the full centidegree domain the synthetic points live on (verified
# in tests/test_s2cell.py), and every later step is IEEE arithmetic
# written with the identical op order on both sides.

_S2_LEVEL = 7
_S2_LSB = 1 << (2 * (30 - _S2_LEVEL))

_S2_XYZ_CTE = f"""
s2xyz AS (
  SELECT pid,
         cos(lat * (pi()/180.0)) * cos(lon * (pi()/180.0)) AS x,
         cos(lat * (pi()/180.0)) * sin(lon * (pi()/180.0)) AS y,
         sin(lat * (pi()/180.0)) AS z
  FROM points
),
s2axis AS (
  SELECT pid, x, y, z,
         CASE WHEN abs(x) >= abs(y)
              THEN CASE WHEN abs(x) >= abs(z) THEN 0 ELSE 2 END
              ELSE CASE WHEN abs(y) >= abs(z) THEN 1 ELSE 2 END
         END AS axis
  FROM s2xyz
),
s2fuv AS (
  SELECT pid,
         CASE WHEN (CASE axis WHEN 0 THEN x WHEN 1 THEN y ELSE z END) >= 0
              THEN axis ELSE axis + 3 END AS face,
         x, y, z
  FROM s2axis
),
s2uv AS (
  SELECT pid, face,
         CASE face WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                   WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
         CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                   WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
  FROM s2fuv
)"""

_S2_ST = ("CASE WHEN {c} >= 0.0 THEN 0.5 * sqrt(1.0 + 3.0 * ({c})) "
          "ELSE 1.0 - 0.5 * sqrt(1.0 - 3.0 * ({c})) END")
_S2_IJ = ("CAST(least(greatest(floor(({s}) * 1073741824.0), 0.0), "
          "1073741823.0) AS BIGINT)")

# flattened IJ_TO_POS / POS_TO_IJ lookup rows (kernels/s2cell.py tables)
_S2_IJ2POS = "[0,1,3,2, 0,3,1,2, 2,3,1,0, 2,1,3,0]"
_S2_POS2IJ = "[0,1,3,2, 0,2,3,1, 3,2,0,1, 3,1,0,2]"
_S2_ORIENT = "CASE {c} WHEN 0 THEN 1 WHEN 3 THEN 3 ELSE 0 END"


def _s2_leaf_cte():
    """points -> (pid, leaf_id int64-view) via the 30-round Hilbert CTE."""
    st_u = _S2_ST.format(c="u")
    st_v = _S2_ST.format(c="v")
    return f"""
{_S2_XYZ_CTE},
s2ij AS (
  SELECT pid, face, {_S2_IJ.format(s=st_u)} AS i, {_S2_IJ.format(s=st_v)} AS j
  FROM s2uv
),
s2h AS (
  SELECT pid, face, i, j, face % 2 AS orient, CAST(0 AS BIGINT) AS pos,
         29 AS k
  FROM s2ij
  UNION ALL
  SELECT pid, face, i, j,
         xor(orient, {_S2_ORIENT.format(c="child")}), pos * 4 + child, k - 1
  FROM (SELECT s2h.*,
               list_extract({_S2_IJ2POS},
                 orient * 4 + (((i >> k) & 1) * 2 + ((j >> k) & 1)) + 1
               ) AS child
        FROM s2h WHERE k >= 0)
),
s2leaf AS (
  SELECT pid,
         CAST(CASE WHEN h >= 9223372036854775808
                   THEN h - 18446744073709551616 ELSE h END AS BIGINT)
           AS leaf_id
  FROM (SELECT pid,
               CAST(face AS HUGEINT) * 2305843009213693952
                 + CAST(pos AS HUGEINT) * 2 + 1 AS h
        FROM s2h WHERE k = -1)
),
s2cells AS (
  SELECT pid, (leaf_id & -{_S2_LSB}) | {_S2_LSB} AS cell_id FROM s2leaf
)"""


def _s2_cell_agg_sql():
    return f"""
    WITH RECURSIVE {_POINTS_CTE},
    {_s2_leaf_cte()}
    SELECT cell_id, COUNT(*) AS n_points, MIN(pid) AS min_pid,
           {SUM_BIG("pid")} AS sum_pid
    FROM s2cells GROUP BY cell_id
    """


def _s2_cells(pid) -> pa.Table:
    """(pid, cell_id): the level-7 S2 cell of each derived point, as
    the int64 view of its uint64 id."""
    from ..kernels.s2cell import cell_id_from_lonlat

    ids = cell_id_from_lonlat(*lonlat_numpy(pid), _S2_LEVEL).view(np.int64)
    return pa.table({"pid": pid, "cell_id": ids})


@query("s2_cell_agg", sql=_s2_cell_agg_sql())
def s2_cell_agg(sf_dir):
    """Per-S2-cell aggregate at level 7: Hilbert leaf ids assigned per
    block (``_s2_cells``), coarsened with integer-only parent
    arithmetic, then aggregated per cell (stages.agg.group_agg).  Cell
    ids are the locality-preserving shard key at 100-TB scale:
    range-partitioning by id keeps spatial neighbours in the same
    partition (Hilbert adjacency pinned in tests/test_s2cell.py)."""
    from ..stages.agg import group_agg

    out = group_agg(_points_ds(sf_dir, _s2_cells), ["cell_id"],
                    {"n_points": ("pid", "count"), "min_pid": ("pid", "min"),
                     "sum_pid": ("pid", "sum")})
    return _sorted_pdf(out.astype(np.int64), ["cell_id"])


def _s2_center_sql():
    n2 = float(1 << 31)
    uv_tpl = ("CASE WHEN {c} >= 0.5 THEN (1.0/3.0) * (4.0 * {c} * {c} - 1.0) "
              "ELSE (1.0/3.0) * (1.0 - 4.0 * (1.0 - {c}) * (1.0 - {c})) END")
    uv_s = uv_tpl.format(c="s")
    uv_t = uv_tpl.format(c="t")
    return f"""
    WITH RECURSIVE {_POINTS_CTE},
    {_s2_leaf_cte()},
    dcell AS (SELECT DISTINCT cell_id FROM s2cells),
    dface AS (
      SELECT cell_id,
             CASE WHEN cell_id < 0 THEN (cell_id >> 61) + 8
                  ELSE cell_id >> 61 END AS face
      FROM dcell
    ),
    ddec AS (
      SELECT cell_id, face, CAST(0 AS BIGINT) AS i, CAST(0 AS BIGINT) AS j,
             face % 2 AS orient, 0 AS r
      FROM dface
      UNION ALL
      SELECT cell_id, face, i * 2 + (q >> 1), j * 2 + (q & 1),
             xor(orient, {_S2_ORIENT.format(c="child")}), r + 1
      FROM (SELECT ddec.*,
                   ((cell_id >> (59 - 2 * r)) & 3) AS child,
                   list_extract({_S2_POS2IJ},
                     orient * 4 + ((cell_id >> (59 - 2 * r)) & 3) + 1) AS q
            FROM ddec WHERE r < 30)
    ),
    dst AS (
      SELECT cell_id, face,
             (2 * i + CASE WHEN (xor(i, cell_id >> 2) & 1) = 1
                           THEN 2 ELSE 0 END) / {_R(n2)} AS s,
             (2 * j + CASE WHEN (xor(i, cell_id >> 2) & 1) = 1
                           THEN 2 ELSE 0 END) / {_R(n2)} AS t
      FROM ddec WHERE r = 30
    ),
    duv AS (
      SELECT cell_id, face, {uv_s} AS u, {uv_t} AS v FROM dst
    ),
    dxyz AS (
      SELECT cell_id,
        CASE face WHEN 0 THEN 1.0 WHEN 1 THEN -u WHEN 2 THEN -u
                  WHEN 3 THEN -1.0 WHEN 4 THEN v ELSE v END AS x,
        CASE face WHEN 0 THEN u WHEN 1 THEN 1.0 WHEN 2 THEN -v
                  WHEN 3 THEN -v WHEN 4 THEN -1.0 ELSE u END AS y,
        CASE face WHEN 0 THEN v WHEN 1 THEN v WHEN 2 THEN 1.0
                  WHEN 3 THEN -u WHEN 4 THEN -u ELSE -1.0 END AS z
      FROM duv
    )
    SELECT cell_id,
      {ROUND6_SQL.format(e="degrees(atan2(y, x))")} AS lon,
      {ROUND6_SQL.format(e="degrees(atan2(z, sqrt(x*x + y*y)))")} AS lat
    FROM dxyz
    """


@query("s2_cell_center", sql=_s2_center_sql())
def s2_cell_center(sf_dir):
    """Distinct level-7 S2 cells -> exact cell-center lon/lat via the
    published GetCenterSiTi decode (full-depth phantom-child decode +
    curve-parity delta; kernels/s2cell.py:cell_center_st).  Distinct
    set built with stages.agg.group_agg; the decode itself is
    integer-exact so both sides round the final trig to 1e-6 deg
    (ROUND6 idiom, as webmerc_inverse)."""
    from ..stages.agg import group_agg
    from ..kernels.s2cell import cell_center_lonlat

    out = group_agg(_points_ds(sf_dir, _s2_cells), ["cell_id"],
                    {"n": ("cell_id", "count")})
    ids = out["cell_id"].to_numpy(dtype=np.int64)
    lon, lat = cell_center_lonlat(ids.view(np.uint64))
    return _sorted_pdf(pd.DataFrame({
        "cell_id": ids, "lon": _r6(lon), "lat": _r6(lat)}), ["cell_id"])


# bbox spanning equatorial faces 0-1 AND polar face 2 plus the face-0/1
# edge at lon=45 — exercises all three rect families of bbox_covering
_S2_BBOX = (-20.0, 55.0, 8.0, 62.0)
_S2_SHARD_LEVEL = 3


@functools.cache
def _process_root() -> str:
    """A temporary directory for this process's files (the S2 shard
    index, the compiled synthetic grids), made on first use and removed
    when the interpreter exits."""
    import atexit
    import shutil
    import tempfile

    d = tempfile.mkdtemp(prefix="proj_ray_tmp_")
    atexit.register(shutil.rmtree, d, True)
    return d


def _s2_index_dir(sf_dir):
    """The Hilbert shard index over ``sf_dir``'s derived point stream,
    which every shard-pruned query reads (s2_shard_bbox, knn_s2_pruned,
    knn_s2_geodesic, radius_geodesic): one ``s2_shard_write_resumable``
    unit per lineitem part file (its (pid, lon, lat) points), in a
    directory per ``sf_dir`` under the process's temporary root.  The
    first call in a process builds it; a later call runs the writer
    again and the manifest skips every unit.  The content is
    deterministic (same points, same shard assignment), so reuse
    cannot change any query's rows."""
    import pyarrow.parquet as pq

    from ..sources import part_units
    from ..stages.s2_stage import s2_shard_write_resumable
    from ..state import config_hash

    d = _os.path.join(_process_root(), config_hash(_os.path.abspath(sf_dir)))
    s2_shard_write_resumable(
        part_units(sf_dir, "lineitem"),
        lambda path: _points(_pids(pq.read_table(path, columns=KEY_COLS))),
        d, _S2_SHARD_LEVEL)
    return d


@query(
    "s2_shard_bbox",
    sql=f"""
    WITH {_POINTS_CTE}
    SELECT pid, lon, lat FROM points
    WHERE lon >= {_R(_S2_BBOX[0])} AND lon <= {_R(_S2_BBOX[1])}
      AND lat >= {_R(_S2_BBOX[2])} AND lat <= {_R(_S2_BBOX[3])}
    """)
def s2_shard_bbox(sf_dir):
    """Hilbert-range-sharded spatial read END-TO-END (I/O-layer
    pruning by cell partition): write the points as
    one parquet partition per level-3 S2 cell (s2_shard_write_resumable
    — the resumable locality-preserving 100-TB layout), then answer a bbox
    query by reading ONLY the shards bbox_covering selects (exact
    superset, so no row can be missed) and applying the exact lon/lat
    filter.  The oracle is a plain full-scan SQL bbox filter — the
    pruned read must produce the identical row set, which gates the
    covering's no-miss property end-to-end.  A covering that touches
    no written shard (or an empty point table) gives no rows."""
    from ..stages.s2_stage import s2_shard_boxes_read

    lon0, lon1, lat0, lat1 = _S2_BBOX
    ds = s2_shard_boxes_read(_s2_index_dir(sf_dir), [_S2_BBOX],
                             _S2_SHARD_LEVEL)
    if ds is None:
        return pd.DataFrame({"pid": np.empty(0, np.int64),
                             "lon": np.empty(0, np.float64),
                             "lat": np.empty(0, np.float64)})

    def fil(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        m = ((lon >= lon0) & (lon <= lon1)
             & (lat >= lat0) & (lat <= lat1))
        return t.filter(pa.array(m)).select(["pid", "lon", "lat"])

    out = ds.map_batches(fil, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True)
    return _sorted_pdf(out, ["pid"])


# -- raster -> vector (polygonize) -------------------------------------------
#
# The inverse of the rasterize direction tile_agg covers: threshold a
# per-cell count raster and vectorize the mask into 4-connected regions
# (GDAL-polygonize shape; the north-star's "raster<->vector" leg).

_RCELL = 500               # centi-degrees: 5-degree cells
_RNROW = 16000 // _RCELL   # 32 rows  (lat in [-80, 80))
_RNCOL = 36000 // _RCELL   # 72 cols  (lon in [-180, 180))
_RFRAC = 0.3               # mask = top 30% of cells by count

# the oracles' twin of _raster_cells: point counts (r, c, n) per
# occupied 5-degree cell
_RCELLS_CTE = f"""cells AS (
      SELECT CAST(floor(((({PID_SQL}) * {LAT_MUL}) % 16000) / {_RCELL}.0) AS BIGINT) AS r,
             CAST(floor(((({PID_SQL}) * {LON_MUL}) % 36000) / {_RCELL}.0) AS BIGINT) AS c,
             COUNT(*) AS n
      FROM lineitem GROUP BY 1, 2
    )"""


def _raster_cells(sf_dir) -> pd.DataFrame:
    """Point counts (r, c, n) of the occupied 5-degree raster cells:
    a bincount per block, then ``stages.agg.combine_partials``. The
    partials and the combine are bounded by the raster size (72x32
    here), never the corpus."""
    from ..stages.agg import combine_partials

    ds = read_table(sf_dir, "lineitem", columns=KEY_COLS)
    partials = ds.map_batches(_cell_count_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return combine_partials(partials, ["r", "c"], {"n": "sum"})


def _cell_count_partial(t: pa.Table) -> pa.Table:
    """Per-batch point counts (r, c, n) of the occupied 5-degree raster
    cells."""
    pid = _pids(t)
    r = (pid * LAT_MUL % 16000) // _RCELL
    c = (pid * LON_MUL % 36000) // _RCELL
    cnt = np.bincount(r * _RNCOL + c, minlength=_RNROW * _RNCOL)
    nz = np.flatnonzero(cnt)
    return pa.table({"r": pa.array(nz // _RNCOL, pa.int64()),
                     "c": pa.array(nz % _RNCOL, pa.int64()),
                     "n": pa.array(cnt[nz], pa.int64())})


def _polygonize_sql():
    from ..stages.raster import ID_MUL

    return f"""
    WITH RECURSIVE {_RCELLS_CTE},
    ranked AS (
      SELECT r, c, n,
             row_number() OVER (ORDER BY n DESC, r, c) AS rk,
             COUNT(*) OVER () AS ncells
      FROM cells
    ),
    active AS (
      SELECT r, c, n, r * {ID_MUL} + c AS id FROM ranked
      WHERE rk <= CAST(floor({_RFRAC} * ncells) AS BIGINT)
    ),
    edges AS (
      SELECT a.id AS u, b.id AS v
      FROM active a JOIN active b ON abs(a.r - b.r) + abs(a.c - b.c) = 1
    ),
    -- min-label reachability: label lab spreads along edges while it
    -- beats the receiving node's own id; MIN over the closure is the
    -- component representative (rows bounded by sum |comp|^2 / 2)
    labels(id, lab) AS (
      SELECT id, id FROM active
      UNION
      SELECT e.v, l.lab FROM labels l JOIN edges e ON e.u = l.id AND l.lab < e.v
    ),
    comp AS (SELECT id, MIN(lab) AS component FROM labels GROUP BY id)
    SELECT cmp.component AS component,
           CAST(COUNT(*) AS BIGINT) AS n_cells,
           CAST(SUM(a.n) AS BIGINT) AS total_points,
           MIN(a.r) AS row_min, MAX(a.r) AS row_max,
           MIN(a.c) AS col_min, MAX(a.c) AS col_max
    FROM active a JOIN comp cmp ON cmp.id = a.id
    GROUP BY 1 ORDER BY 1
    """


def _ring_edges_sql():
    """The polygon set's ring edges as SQL ``VALUES`` rows
    ``(polygon_id, xi, yi, xj, yj)``: each vertex with the one before
    it, the first with the last, as pnpoly walks a ring."""
    rows = []
    for pid_, ring in FLAGSHIP_POLYGONS:
        jj = len(ring) - 1
        for i in range(len(ring)):
            xi, yi = ring[i]
            xj, yj = ring[jj]
            rows.append(f"('{pid_}', {_R(xi)}, {_R(yi)}, {_R(xj)}, {_R(yj)})")
            jj = i
    return ",\n      ".join(rows)


def _zonal_sql():
    edges = _ring_edges_sql()
    return f"""
    WITH {_RCELLS_CTE},
    centers AS (
      SELECT r, c, n,
             (c * {_RCELL} + {_RCELL // 2} - 18000) / 1.0e2 AS px,
             (r * {_RCELL} + {_RCELL // 2} - 8000) / 1.0e2 AS py
      FROM cells
    ),
    pedges(polygon_id, xi, yi, xj, yj) AS (VALUES
      {edges}
    ),
    crossings AS (
      SELECT ct.r, ct.c, ct.n, e.polygon_id
      FROM centers ct JOIN pedges e
        ON ((e.yi > ct.py) != (e.yj > ct.py))
       AND ct.px < (e.xj - e.xi) * (ct.py - e.yi) / (e.yj - e.yi) + e.xi
    ),
    inside AS (
      SELECT r, c, n, polygon_id FROM crossings
      GROUP BY r, c, n, polygon_id HAVING COUNT(*) % 2 = 1
    )
    SELECT polygon_id,
           CAST(COUNT(*) AS BIGINT) AS n_cells,
           CAST(SUM(n) AS BIGINT) AS total_points,
           MIN(n) AS min_cell_points, MAX(n) AS max_cell_points
    FROM inside GROUP BY polygon_id ORDER BY polygon_id
    """


@query("zonal_stats", sql=_zonal_sql())
def zonal_stats(sf_dir):
    """Vector -> raster zonal statistics (the gdal_rasterize +
    zonal-stats shape): burn the AOI polygon set onto the 5-degree cell
    raster by even-odd pnpoly on cell CENTERS, then aggregate the
    occupied-cell point counts per zone.

    Scale shape: the per-cell counts come from _raster_cells; zone
    burn-in is pnpoly over the bounded cell-center table against the
    broadcast polygon set (kernels.pip.PolygonSet, identical comparisons
    to the SQL crossing test, so the match is exact)."""
    from ..kernels.pip import PolygonSet

    cells = _raster_cells(sf_dir)
    px = (cells["c"].to_numpy(np.int64) * _RCELL + _RCELL // 2 - 18000) / 100.0
    py = (cells["r"].to_numpy(np.int64) * _RCELL + _RCELL // 2 - 8000) / 100.0
    n = cells["n"].to_numpy(np.int64)
    zones = PolygonSet(FLAGSHIP_POLYGONS)
    pt, poly = zones.join(px, py)
    ids = np.array(zones.ids, dtype=object)
    return (pd.DataFrame({"polygon_id": ids[poly], "n": n[pt]})
            .groupby("polygon_id", as_index=False)
            .agg(n_cells=("n", "size"), total_points=("n", "sum"),
                 min_cell_points=("n", "min"), max_cell_points=("n", "max")))


@query("raster_polygonize", sql=_polygonize_sql())
def raster_polygonize(sf_dir):
    """Raster -> vector: rasterize points to 5-degree cells (per-batch
    bincount partials, raster-bounded), keep the top-30%-by-count mask
    (deterministic rank threshold), and vectorize the mask into
    4-connected regions via min-label CC (stages.raster.polygonize).

    Scale shape: the cell counts come from _raster_cells, bounded by
    the RASTER size (72x32 here), never the corpus; the combine runs
    distributed for fine rasters.  The threshold + CC here run driver-side
    over that raster-bounded cell table (16M cells at zoom 12 is still
    driver-tractable; the CC kernel is a few numpy passes per
    halving of the component count)."""
    from ..stages.raster import polygonize

    cells = _raster_cells(sf_dir)
    return polygonize(cells, _RFRAC)


# -- point-in-polygon join --------------------------------------------------

def _pip_sql():
    edges = _ring_edges_sql()
    return f"""
    WITH {_POINTS_CTE},
    dpoints AS (SELECT DISTINCT pid, lon, lat FROM points),
    edges(polygon_id, xi, yi, xj, yj) AS (VALUES
      {edges}
    ),
    crossings AS (
      SELECT p.pid, e.polygon_id
      FROM dpoints p JOIN edges e
        ON ((e.yi > p.lat) != (e.yj > p.lat))
       AND p.lon < (e.xj - e.xi) * (p.lat - e.yi) / (e.yj - e.yi) + e.xi
    ),
    inside AS (
      SELECT pid, polygon_id FROM crossings
      GROUP BY pid, polygon_id HAVING COUNT(*) % 2 = 1
    )
    -- join back so multiplicity matches the per-input-row engine output
    -- (pid = orderkey*10+linenumber is not unique in the synthetic data)
    SELECT p.pid, i.polygon_id FROM points p JOIN inside i USING (pid)
    """


@query("pip_join", sql=_pip_sql())
def pip_join(sf_dir):
    """Broadcast PIP join: the packed polygon set goes into the object
    store once per operator; even-odd ray casting per point (pnpoly
    semantics, src/PJ_healpix.c:103-138). Exact rows (north rule)."""
    join = PIPJoinActor(poly_defs=FLAGSHIP_POLYGONS, id_cols=("pid",))
    return _per_point(sf_dir, lambda pid: join(_points(pid)))


# -- kNN --------------------------------------------------------------------

_KNN_QUERIES = [(0, -100.0, 40.0), (1, 10.0, 50.0), (2, 140.0, -30.0), (3, 0.0, 0.0)]


def _knn_sql():
    vals = ", ".join(f"({q}, {_R(x)}, {_R(y)})" for q, x, y in _KNN_QUERIES)
    return f"""
    WITH {_POINTS_CTE},
    qs(qid, qx, qy) AS (VALUES {vals}),
    d AS (
      SELECT q.qid, p.pid AS id,
             (p.lon - q.qx) * (p.lon - q.qx) + (p.lat - q.qy) * (p.lat - q.qy) AS d2
      FROM points p CROSS JOIN qs q
    ),
    r AS (SELECT *, row_number() OVER (PARTITION BY qid ORDER BY d2, id) AS rank FROM d)
    SELECT qid, id, rank, d2 FROM r WHERE rank <= 5
    """


@query("knn_points", sql=_knn_sql())
def knn_points(sf_dir):
    """Broadcast kNN: per-batch partial top-k then tiny final reduce —
    no shuffle of the point stream. Deterministic (d2, id) tie-break."""
    return _qid_int32(knn_topk(_points_ds(sf_dir), _KNN_QUERIES, k=5))


def _qid_int32(t: pa.Table) -> pa.Table:
    """``t`` with ``qid`` as int32, the type of the oracle's VALUES list."""
    return t.set_column(t.schema.get_field_index("qid"), "qid",
                        t["qid"].cast(pa.int32()))


def knn_s2_certified(index_dir, queries, k, shard_level, r0=3.0,
                     metric="planar"):
    """EXACT kNN over a Hilbert-sharded layout with a radius-doubling
    certificate: read only the shards covering the box [qx±r, qy±r],
    top-k the candidates (same float ops as knn_topk), and accept when
    the k-th distance is <= a lower bound on the distance of ANY unread
    point.  Otherwise double r.  Per metric:

    - ``planar``: any unread point has |dlon| > r or |dlat| > r, hence
      d2 > r² >= d_k² — accept when d_k² <= r².
    - ``geodesic``: unread points lie outside the (clamped) box, so
      their Karney distance is >= ``geodesic_box_lb`` (provable
      meridian-arc / b-sphere-projection bound; see its docstring) —
      accept when s_k (+0.5 mm rounding guard) <= that bound.

    At 10^12 rows this is the kNN scale path: O(neighbourhood shards)
    read per query instead of a corpus scan."""
    from ..stages.knn_stage import geodesic_box_lb
    from ..stages.s2_stage import s2_shard_boxes_read

    tables = []
    for qid, qx, qy in queries:
        r = float(r0)
        while True:
            lon0, lon1 = max(qx - r, -180.0), min(qx + r, 180.0)
            lat0, lat1 = max(qy - r, -90.0), min(qy + r, 90.0)
            ds = s2_shard_boxes_read(
                index_dir, [(lon0, lon1, lat0, lat1)], shard_level)
            got = None
            if ds is not None:
                got = knn_topk(ds, [(qid, qx, qy)], k=k, metric=metric)
                if metric == "planar":
                    d2 = got["d2"].to_numpy(zero_copy_only=False)
                    ok = len(got) >= k and float(d2.max()) <= r * r
                else:
                    mm = got["s12_mm"].to_numpy(zero_copy_only=False)
                    worst = float(mm.max()) / 1e3 + 1e-3  # mm-round guard
                    ok = (len(got) >= k
                          and worst <= geodesic_box_lb(qx, qy, lon0, lon1,
                                                       lat0, lat1))
                if ok:
                    tables.append(got)
                    break
            if r > 360.0:  # whole domain read: unconditionally exact
                if got is not None:
                    tables.append(got)
                break
            r *= 2.0
    if not tables:  # the index holds no point
        d = (("d2", pa.float64()) if metric == "planar"
             else ("s12_mm", pa.int64()))
        return pa.schema([("qid", pa.int64()), ("id", pa.int64()),
                          ("rank", pa.int64()), d]).empty_table()
    return pa.concat_tables(tables)


@query("knn_s2_pruned", sql=_knn_sql())
def knn_s2_pruned(sf_dir):
    """The same kNN answered from the Hilbert-range shard layout with
    the radius-doubling certificate (knn_s2_certified).  The oracle is
    the identical full-scan SQL as knn_points — the pruned read must
    return the exact rows, which driver-gates the certificate logic and
    the covering's no-miss property together."""
    return _qid_int32(knn_s2_certified(_s2_index_dir(sf_dir), _KNN_QUERIES,
                                       k=5, shard_level=_S2_SHARD_LEVEL))


@query("knn_geodesic", sql=_golden_sql("knn_geodesic_sf001.parquet"))
def knn_geodesic(sf_dir):
    """kNN under the TRUE ellipsoidal metric (Karney order-6 inverse,
    the reference's geod_inverse, src/geodesic.c:944) — the north
    star's "refine with Karney geodesic distance" leg, made exact: the
    per-batch partial top-k ranks by the geodesic distance itself, so
    there is no planar-prefilter recall gap.  One linear pass,
    embarrassingly parallel, bounded associative candidate reduce.
    Golden: per-point scalar Karney port (tools/scalar_ref.py) +
    plain Python sort over the full corpus."""
    pts = _points_ds(sf_dir)
    return knn_topk(pts, _KNN_QUERIES, k=5, metric="geodesic")


@query("knn_s2_geodesic", sql=_golden_sql("knn_geodesic_sf001.parquet"))
def knn_s2_geodesic(sf_dir):
    """The same geodesic kNN answered from the Hilbert-range shard
    layout: radius-doubling pruned reads accepted only when the k-th
    Karney distance is below ``geodesic_box_lb`` — a PROVABLE lower
    bound (meridian-arc + b-sphere-projection, see knn_stage) on the
    distance of any unread point, so the pruned answer is certified
    identical to the full scan.  Gated against the same scalar golden
    as knn_geodesic: pruning must not change rows.  This is the kNN
    100-TB path: O(neighbourhood shards) read per query."""
    return knn_s2_certified(_s2_index_dir(sf_dir), _KNN_QUERIES, k=5,
                            shard_level=_S2_SHARD_LEVEL,
                            metric="geodesic")


_RADIUS_M = 300000.0


def _radius_hits(t: pa.Table, qid, qx, qy, radius_m) -> pa.Table:
    """(qid, id, s12_mm) of the points of ``t`` within ``radius_m``
    Karney metres of site (qx, qy). A point with a non-finite lon or lat
    is never a hit, as in ``knn_topk``."""
    from ..kernels.geodesic import geod_inverse

    lon = t["lon"].to_numpy(zero_copy_only=False)
    lat = t["lat"].to_numpy(zero_copy_only=False)
    pid = t["pid"].to_numpy(zero_copy_only=False)
    ok = np.isfinite(lon) & np.isfinite(lat)
    if not ok.all():
        lon, lat, pid = lon[ok], lat[ok], pid[ok]
    s12, _, _, _ = geod_inverse(lon, lat, np.full(lon.size, qx),
                                np.full(lon.size, qy))
    m = s12 <= radius_m
    return pa.table({
        "qid": pa.array(np.full(int(m.sum()), qid, dtype=np.int64)),
        "id": pa.array(pid[m].astype(np.int64)),
        "s12_mm": pa.array(np.floor(s12[m] * 1e3 + 0.5).astype(np.int64)),
    })


def radius_search_geodesic(index_dir, queries, radius_m, shard_level):
    """Geodesic radius search (spatial range join): all points within
    ``radius_m`` Karney metres of each query site, answered from the
    Hilbert-range shard layout with ONE pruned read per site.

    ``geodesic_radius_box`` gives a PROVABLE exact-superset lon/lat box
    (meridian-arc latitude bound; b-sphere meridian-angle longitude
    bound with an explicit polar/antipodal guard — see its docstring),
    so unlike the kNN certificate no radius-doubling loop is needed:
    candidates outside the box cannot be within R.  Anti-meridian wrap
    produces two disjoint lon intervals whose shard sets are unioned
    before the read (no duplicate candidates).  The exact filter runs
    the vectorized Karney inverse per batch.  Result size is bounded by
    point density x R^2, not corpus size; at 10^12 rows each site reads
    O(R^2 / shard area) shards."""
    from ..stages.knn_stage import geodesic_radius_box
    from ..stages.s2_stage import s2_shard_boxes_read

    schema = pa.schema([("qid", pa.int64()), ("id", pa.int64()),
                        ("s12_mm", pa.int64())])
    tables = []
    for qid, qx, qy in queries:
        dlat, dlon = geodesic_radius_box(qx, qy, radius_m)
        lat0, lat1 = max(qy - dlat, -90.0), min(qy + dlat, 90.0)
        if dlon is None:
            boxes = [(-180.0, 180.0, lat0, lat1)]
        else:
            boxes = [(max(qx - dlon, -180.0), min(qx + dlon, 180.0),
                      lat0, lat1)]
            if qx - dlon < -180.0:
                boxes.append((qx - dlon + 360.0, 180.0, lat0, lat1))
            if qx + dlon > 180.0:
                boxes.append((-180.0, qx + dlon - 360.0, lat0, lat1))
        ds = s2_shard_boxes_read(index_dir, boxes, shard_level)
        if ds is None:
            continue
        hits = ds.map_batches(_radius_hits, fn_kwargs=dict(
                                  qid=qid, qx=qx, qy=qy, radius_m=radius_m),
                              batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
        chunks = list(hits.iter_batches(batch_size=1 << 20,
                                        batch_format="pyarrow"))
        if chunks:
            tables.append(pa.concat_tables(chunks))
    return pa.concat_tables(tables) if tables else schema.empty_table()


@query("radius_geodesic", sql=_golden_sql("radius_geodesic_sf001.parquet"))
def radius_geodesic(sf_dir):
    """Spatial range join under the true ellipsoidal metric: every
    point within 300 km (Karney distance) of each probe site, via the
    exact-superset pruned read (radius_search_geodesic).  Golden:
    per-point scalar Karney port over the full corpus + plain filter."""
    return radius_search_geodesic(_s2_index_dir(sf_dir), _KNN_QUERIES,
                                  _RADIUS_M, shard_level=_S2_SHARD_LEVEL)


# -- haversine distances ----------------------------------------------------

def _haversine_sql():
    return f"""
    WITH {_POINTS_CTE}
    SELECT pid,
      floor((2.0 * {_R(MEAN_RADIUS)} * asin(sqrt(least(
        sin((lat * {_R(np.pi / 180.0)} - 0.0) * 0.5) * sin((lat * {_R(np.pi / 180.0)} - 0.0) * 0.5)
        + cos(0.0) * cos(lat * {_R(np.pi / 180.0)})
          * (sin((lon * {_R(np.pi / 180.0)} - 0.0) * 0.5) * sin((lon * {_R(np.pi / 180.0)} - 0.0) * 0.5)),
        1.0)))) * 1.0e3 + 0.5) / 1.0e3 AS dist_m
    FROM points
    """


@query("haversine_dist", sql=_haversine_sql())
def haversine_dist(sf_dir):
    """Great-circle distance to (0,0) (mm-rounded; the SQL-expressible
    spherical variant of the Karney geod_inverse kernel)."""
    def fn(pid):
        lon, lat = lonlat_numpy(pid)
        d = _haversine(lon, lat, np.zeros_like(lon), np.zeros_like(lat))
        return pa.table({"pid": pid, "dist_m": np.floor(d * 1.0e3 + 0.5) / 1.0e3})

    return _per_point(sf_dir, fn)


# -- within-distance spatial self-join ---------------------------------------

_PAIR_RADIUS_M = 30000.0


def _hav_sql(lon1, lat1, lon2, lat2):
    """Haversine metres from (lon1, lat1) to (lon2, lat2), SQL columns
    in degrees: the identical IEEE op sequence as
    kernels.geodesic.haversine with those arguments."""
    d2r = _R(np.pi / 180.0)
    return (f"2.0 * {_R(MEAN_RADIUS)} * asin(sqrt(least("
            f"sin(({lat2} * {d2r} - {lat1} * {d2r}) * 0.5)"
            f" * sin(({lat2} * {d2r} - {lat1} * {d2r}) * 0.5)"
            f" + cos({lat1} * {d2r}) * cos({lat2} * {d2r})"
            f" * sin(({lon2} * {d2r} - {lon1} * {d2r}) * 0.5)"
            f" * sin(({lon2} * {d2r} - {lon1} * {d2r}) * 0.5), 1.0)))")


def _pair_join_sql():
    from ..stages.pairjoin import PAIR_DX_DEG, PAIR_DY_DEG, PAIR_NX

    # arg1 = the smaller-pid endpoint (symmetric bit-exactly anyway:
    # sin(-x) = -sin(x) squares away, cos products commute)
    hav = _hav_sql("a.lon", "a.lat", "b.lon", "b.lat")
    return f"""
    WITH {_POINTS_CTE},
    dpoints AS (SELECT DISTINCT pid, lon, lat FROM points),
    cells AS (
      SELECT pid, lon, lat,
             CAST(floor((lon + 180.0) / {_R(PAIR_DX_DEG)}) AS BIGINT) AS cx,
             CAST(floor((lat + 90.0) / {_R(PAIR_DY_DEG)}) AS BIGINT) AS cy
      FROM dpoints),
    offs(dx, dy) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),
                            (1,-1),(1,0),(1,1)),
    cand AS (
      SELECT a.pid AS pid_a, b.pid AS pid_b,
             floor(({hav}) * 1.0e3 + 0.5) / 1.0e3 AS dist_m
      FROM cells a JOIN offs o ON TRUE
      JOIN cells b ON b.cx = (a.cx + o.dx + {PAIR_NX}) % {PAIR_NX}
                  AND b.cy = a.cy + o.dy
      WHERE a.pid < b.pid
    )
    SELECT pid_a, pid_b, dist_m FROM cand WHERE dist_m < {_R(_PAIR_RADIUS_M)}
    """


@query("radius_pair_join", sql=_pair_join_sql())
def radius_pair_join(sf_dir):
    """All point pairs within 30 km great-circle distance — the
    replicated grid-bucket spatial self-join (stages.pairjoin): each
    point replicates into the neighbor cells with a smaller id (~5x),
    ONE shuffle co-locates each cell in one block, and one vectorised
    kernel per block runs the exact haversine; a cross-cell pair is
    owned by its smaller cell id, a same-cell pair by the pid order.
    The 3x3 cell cover is PROVED exact for the radius (see the stage
    docstring), so rows equal the unindexed quadratic join's. The pair
    stream is globally distinct straight out of the single shuffle —
    duplicate-pid input rows (synthetic lineitem) collapse inside the
    one cell that owns their pair, mirroring the oracle's DISTINCT
    points — so the query is Dataset-to-Dataset with no second shuffle
    and no driver materialization."""
    from ..stages.pairjoin import radius_pair_join_stage

    pts = _points_ds(sf_dir)
    return _typed(radius_pair_join_stage(pts, radius_m=_PAIR_RADIUS_M),
                  pid_a=pa.int64(), pid_b=pa.int64(), dist_m=pa.float64())


# -- geodesic polygon area ----------------------------------------------------

from ..kernels.geodesic import WGS84_A as _GEOD_WGS84_A  # noqa: E402
from ..kernels.geodesic import WGS84_F as _GEOD_WGS84_F  # noqa: E402


@query("polygon_area_geodesic",
       sql=_golden_sql("polygon_area_geodesic_sf001.parquet"))
def polygon_area_geodesic(sf_dir):
    """Ellipsoidal polygon perimeter + area per order ring — the
    reference's geod_polygon_init/addpoint/compute surface
    (src/geodesic.c:1609-1745, the C port of Karney's planimeter):
    each order's distinct linenumber vertices form a closed ring; the
    per-edge S12 area integrals (GEOD_AREA, the C4 series —
    kernels.karney.geod_inverse_karney(with_area=True)) accumulate
    with the crossings-parity pole correction and reduce into
    (-area0/2, area0/2] (sign convention: counter-clockwise positive).
    Orders with < 3 distinct vertices are skipped (not a polygon).
    Shape: one key-hash shuffle (stages.agg.bucket_map), all geodesic
    math vectorized per bucket.  Golden: per-edge scalar Karney port +
    fsum (tools/scalar_ref.polygon_area_scalar), bitwise-identical."""
    from ..kernels.karney import geod_polygon_area_many
    from ..stages.agg import bucket_map

    ds = read_table(sf_dir, "lineitem", columns=KEY_COLS)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # ALL rings in the bucket go through ONE vectorized Karney call
        # (geod_polygon_area_many, bit-identical to the ring-at-a-time
        # kernel); only the per-ring fsum reductions loop in Python
        g = g.drop_duplicates(["l_orderkey", "l_linenumber"])
        g = g.sort_values(["l_orderkey", "l_linenumber"], kind="mergesort")
        ok_arr = g["l_orderkey"].to_numpy().astype(np.int64)
        ln = g["l_linenumber"].to_numpy()
        pid = pid_numpy(ok_arr, ln)
        lon, lat = lonlat_numpy(pid)
        bounds = np.concatenate(
            [[0], np.flatnonzero(ok_arr[1:] != ok_arr[:-1]) + 1,
             [len(ok_arr)]])
        sizes = np.diff(bounds)
        keep = sizes >= 3  # < 3 distinct vertices: not a polygon
        # drop short rings BEFORE the batched kernel call
        row_keep = np.repeat(keep, sizes)
        ok_arr, lon, lat = ok_arr[row_keep], lon[row_keep], lat[row_keep]
        kb = np.concatenate([[0], np.cumsum(sizes[keep])])
        if not len(ok_arr):
            return pd.DataFrame({
                "l_orderkey": pd.Series(dtype=np.int64),
                "n_vertices": pd.Series(dtype=np.int64),
                "perimeter_m": pd.Series(dtype=np.float64),
                "area_m2": pd.Series(dtype=np.float64)})
        per, ar, nv = geod_polygon_area_many(lon, lat, kb,
                                             _GEOD_WGS84_A, _GEOD_WGS84_F)
        return pd.DataFrame({
            "l_orderkey": ok_arr[kb[:-1]],
            "n_vertices": nv.astype(np.int64),
            "perimeter_m": per,
            "area_m2": ar,
        })

    return _typed_input(bucket_map(ds, ["l_orderkey"], per_bucket),
                        sf_dir, "lineitem",
                        l_orderkey=pa.int64(), n_vertices=pa.int64(),
                        perimeter_m=pa.float64(), area_m2=pa.float64())


# -- rectangle overlap join ---------------------------------------------------

# integer centi-degree rectangle derivations (pure int64 arithmetic,
# spelled identically in SQL — the whole join is float-free)
_RECT_A = ("(o_orderkey * 104729) % 30000", "(o_orderkey * 7919) % 14000",
           "20 + (o_orderkey * 48271) % 200", "20 + (o_orderkey * 16807) % 150")
_RECT_B = ("(p_partkey * 65537) % 30000", "(p_partkey * 30011) % 14000",
           "30 + (p_partkey * 48271) % 250", "30 + (p_partkey * 7919) % 175")


def _rect_sql():
    acx, acy, aw, ah = _RECT_A
    bcx, bcy, bw, bh = _RECT_B
    return f"""
    WITH arect AS (
      SELECT o_orderkey AS rid_a,
             ({acx}) - ({aw}) AS x0, ({acx}) + ({aw}) AS x1,
             ({acy}) - ({ah}) AS y0, ({acy}) + ({ah}) AS y1
      FROM orders
    ),
    brect AS (
      SELECT p_partkey AS rid_b,
             ({bcx}) - ({bw}) AS x0, ({bcx}) + ({bw}) AS x1,
             ({bcy}) - ({bh}) AS y0, ({bcy}) + ({bh}) AS y1
      FROM part
    )
    SELECT a.rid_a, b.rid_b,
           CAST((least(a.x1, b.x1) - greatest(a.x0, b.x0))
              * (least(a.y1, b.y1) - greatest(a.y0, b.y0)) AS BIGINT)
             AS overlap_area
    FROM arect a JOIN brect b
      ON a.x0 <= b.x1 AND b.x0 <= a.x1 AND a.y0 <= b.y1 AND b.y0 <= a.y1
    """


def _rect_batch(key_col, cx_mul, cx_mod, cy_mul, cy_mod, w0, w_mul, w_mod,
                h0, h_mul, h_mod):
    def fn(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = (k * cx_mul) % cx_mod
        cy = (k * cy_mul) % cy_mod
        w = w0 + (k * w_mul) % w_mod
        h = h0 + (k * h_mul) % h_mod
        return pa.table({"rid": pa.array(k, pa.int64()),
                         "x0": pa.array(cx - w, pa.int64()),
                         "x1": pa.array(cx + w, pa.int64()),
                         "y0": pa.array(cy - h, pa.int64()),
                         "y1": pa.array(cy + h, pa.int64())})
    return fn


@query("rect_overlap_join", sql=_rect_sql())
def rect_overlap_join(sf_dir):
    """Rectangle-overlap join (2D interval join) between two derived
    rectangle sets, as the replicated grid-cell join with the
    REFERENCE-POINT exactly-once rule (stages.pairjoin.
    rect_overlap_join_stage): a pair is emitted only in the cell
    holding its intersection's min corner — one shuffle, no dedup
    pass.  Bounds, tests and areas are all int64 (closed intervals;
    touching edges count with area 0), so the SQL inequality-join twin
    matches bit-for-bit with zero float hazard."""
    from ..stages.pairjoin import rect_overlap_join_stage

    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])
    part = read_table(sf_dir, "part", columns=["p_partkey"])
    ra = orders.map_batches(
        _rect_batch("o_orderkey", 104729, 30000, 7919, 14000,
                    20, 48271, 200, 20, 16807, 150),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    rb = part.map_batches(
        _rect_batch("p_partkey", 65537, 30000, 30011, 14000,
                    30, 48271, 250, 30, 7919, 175),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    return _typed(rect_overlap_join_stage(ra, rb), rid_a=pa.int64(),
                  rid_b=pa.int64(), overlap_area=pa.int64())


# -- trajectory length -------------------------------------------------------

def _traj_sql():
    hav = _hav_sql("plon", "plat", "lon", "lat")
    return f"""
    WITH v AS (
      SELECT DISTINCT l_orderkey, l_linenumber,
             {_LON_SQL} AS lon, {_LAT_SQL} AS lat
      FROM lineitem
    ),
    seg AS (
      SELECT l_orderkey, lon, lat,
             lag(lon) OVER w AS plon, lag(lat) OVER w AS plat
      FROM v WINDOW w AS (PARTITION BY l_orderkey ORDER BY l_linenumber)
    ),
    tot AS (
      SELECT l_orderkey,
             COUNT(*) AS n_vertices,
             COUNT(plon) AS n_segments,
             CAST(coalesce(SUM(CASE WHEN plon IS NULL THEN NULL ELSE
               CAST(floor(({hav}) * 1.0e3 + 0.5) AS BIGINT) END), 0)
               AS BIGINT) AS total_mm
      FROM seg GROUP BY l_orderkey
    )
    SELECT l_orderkey, CAST(n_vertices AS BIGINT) AS n_vertices,
           CAST(n_segments AS BIGINT) AS n_segments, total_mm
    FROM tot
    """


@query("trajectory_length", sql=_traj_sql())
def trajectory_length(sf_dir):
    """Per-order polyline (trajectory) great-circle length: vertices
    are the order's DISTINCT linenumber points in linenumber order,
    segments join consecutive vertices, and each segment's haversine
    length is mm-rounded to an INTEGER millimeter count before the sum
    — int64 addition is exact and order-free, so the engine's in-group
    vector sum and SQL's window-lag sum agree bit-for-bit (a float-sum
    twin would be association-order-sensitive).

    Shape: COARSE key-hash shuffle — orders are hashed onto the
    ``stages.agg.bucket_map`` buckets and the per-bucket function
    vectorizes across ALL its orders at once (one lexsort,
    cumsum-differenced per-order segment sums), so Python is invoked
    #buckets times, not #orders times (the per-order map_groups variant
    paid ~0.6 ms of pandas slicing per order — 9.8 s at sf0.01; this
    runs in ~1 s).  The bucket count scales with the cluster,
    independent of key count; no global sort."""
    from ..stages.agg import bucket_map

    ds = read_table(sf_dir, "lineitem", columns=KEY_COLS)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ok = g["l_orderkey"].to_numpy().astype(np.int64)
        ln = g["l_linenumber"].to_numpy().astype(np.int64)
        order = np.lexsort((ln, ok))
        ok, ln = ok[order], ln[order]
        keep = np.concatenate(
            [[True], (ok[1:] != ok[:-1]) | (ln[1:] != ln[:-1])])
        ok, ln = ok[keep], ln[keep]                    # distinct vertices
        pid = pid_numpy(ok, ln)
        lon, lat = lonlat_numpy(pid)
        same = ok[1:] == ok[:-1]                       # true segments
        d = _haversine(lon[:-1], lat[:-1], lon[1:], lat[1:])
        seg_mm = np.where(same,
                          np.floor(d * 1.0e3 + 0.5).astype(np.int64), 0)
        starts = np.flatnonzero(np.concatenate([[True], ~same]))
        ends = np.concatenate([starts[1:], [ok.size]])
        pre = np.concatenate([[0], np.cumsum(seg_mm)])
        return pd.DataFrame({
            "l_orderkey": ok[starts],
            "n_vertices": (ends - starts).astype(np.int64),
            "n_segments": (ends - starts - 1).astype(np.int64),
            "total_mm": pre[ends - 1] - pre[starts],
        })

    return _typed_input(bucket_map(ds, ["l_orderkey"], per_bucket),
                        sf_dir, "lineitem",
                        l_orderkey=pa.int64(), n_vertices=pa.int64(),
                        n_segments=pa.int64(), total_mm=pa.int64())


@query("spatial_clusters", sql=_golden_sql("spatial_clusters_sf001.parquet"))
def spatial_clusters(sf_dir):
    """Spatial density clustering: connected components of the 30 km
    great-circle neighbor graph — single-linkage radius clustering
    (DBSCAN with eps=30 km, minPts=2; Ester et al. 1996), composed
    from the pair join and the CC kernel (_cluster_labels).
    Output: (pid, cluster) per input ROW, cluster = min pid of the
    component; singletons, and points with a non-finite coordinate,
    keep their own id.  Golden: brute-force O(n^2) scalar edge scan +
    pure-Python union-find
    (tools/freeze_goldens.freeze_spatial_clusters_golden)."""
    return _typed(_cluster_labels(_points_ds(sf_dir)), pid=pa.int64(),
                  cluster=pa.int64())


def _cluster_labels(pts):
    """(pid, cluster) per row of ``pts``: the replicated grid-bucket
    pair join contracts each block's 30 km pairs to min-pid stars
    (stages.pairjoin.radius_spanning_edges_stage), so the edge list is
    LINEAR in points (the raw pair list is quadratic in dense regions —
    7.4M pairs at sf0.1 vs <=0.46M star edges); attach_clusters runs
    the CC kernel once over the stars on the driver and labels every
    row."""
    from ..stages.cc import attach_clusters
    from ..stages.pairjoin import radius_spanning_edges_stage

    return attach_clusters(pts, radius_spanning_edges_stage(
        pts, _PAIR_RADIUS_M))


# ===========================================================================
# Geospatial part 3: synthetic datum-shift grid, prime meridian,
# axis/units handling, geoparse extraction
# ===========================================================================

# Synthetic CTABLE grid (FIXTURES.md §3): node values are small-int
# multiples of 2^-30 => exactly representable in BOTH float32 (engine
# storage) and float64 (SQL), so bilinear results match bit-for-bit.
_GRID_D2R = float(np.pi / 180.0)
_GRID_SPEC = dict(
    ll=(-30.0 * _GRID_D2R, 30.0 * _GRID_D2R),
    delta=(0.5 * _GRID_D2R, 0.5 * _GRID_D2R),
    lim=(121, 81),
)
_GRID_AMP = 2.0 ** -30


# closed-form float32 node values per synthetic grid: (mul_i, mul_j,
# modulus, offset) for the lam and phi planes.  Small-int x 2^-30
# products are exact in float32, so an SQL oracle recomputes the nodes
# bit-identically in DOUBLE.
_GRID_FORMULAS = {
    "synthA": ((7, 13, 101, 50), (11, 17, 89, 44)),
    "synthB": ((5, 19, 97, 48), (3, 23, 83, 41)),
    "synthC": ((9, 29, 73, 36), (13, 31, 79, 39)),
}


def _grid_cvs(name="synthA"):
    (al, bl, ml, ol), (ap, bp, mp, op_) = _GRID_FORMULAS[name]
    nlam, nphi = _GRID_SPEC["lim"]
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    cvs[..., 0] = ((ii * al + jj * bl) % ml - ol) * _GRID_AMP
    cvs[..., 1] = ((ii * ap + jj * bp) % mp - op_) * _GRID_AMP
    return cvs


def _grid_loader(name):
    from ..kernels.grid import ShiftGrid

    if name in _GRID_FORMULAS:
        return ShiftGrid(name, _GRID_SPEC["ll"], _GRID_SPEC["delta"],
                         _GRID_SPEC["lim"], _grid_cvs(name))
    return None


def _bilinear_sql(v):
    """Bilinear interpolation (nad_intr) of the SQL node expression ``v``
    over the four corners of cell (il, ip) at fractions (fl, fp)."""
    f00 = v.format(i="il", j="ip")
    f10 = v.format(i="il + 1", j="ip")
    f01 = v.format(i="il", j="ip + 1")
    f11 = v.format(i="il + 1", j="ip + 1")
    return (f"((1.0 - fl) * (1.0 - fp)) * ({f00}) + (fl * (1.0 - fp)) * ({f10}) "
            f"+ ((1.0 - fl) * fp) * ({f01}) + (fl * fp) * ({f11})")


def _grid_cells_cte(ll, delta):
    """The grid-shift twins' ``pts``/``tb``/``idx`` CTE: each band
    point's (lam, phi) radians (``_band_lonlat``), then its cell (il,
    ip) and in-cell fractions (fl, fp) on a grid with lower-left corner
    ``ll`` and spacing ``delta`` (radians), as nad_intr computes them."""
    from ..kernels.common import PI

    (ll_lam, ll_phi), (dl, dp) = ll, delta
    lon_sql = lon_band_sql(PID_SQL, -2900, 5800)       # lon in [-29, 29)
    lat_sql = f"(3100 + (({PID_SQL}) * {LAT_MUL}) % 3800) / 1.0e2"
    return f"""
    WITH pts AS (
      SELECT {PID_SQL} AS pid,
             ({lon_sql}) * {DEG_TO_RAD_LIT} AS lam,
             ({lat_sql}) * {DEG_TO_RAD_LIT} AS phi
      FROM lineitem
    ), tb AS (
      SELECT pid, lam, phi,
             ((lam - {_R(ll_lam)}) - {_R(PI)}) + {_R(PI)} AS tbl,
             phi - {_R(ll_phi)} AS tbp
      FROM pts
    ), idx AS (
      SELECT pid, lam, phi,
             CAST(floor(tbl / {_R(dl)}) AS BIGINT) AS il,
             CAST(floor(tbp / {_R(dp)}) AS BIGINT) AS ip,
             tbl / {_R(dl)} - floor(tbl / {_R(dl)}) AS fl,
             tbp / {_R(dp)} - floor(tbp / {_R(dp)}) AS fp
      FROM tb
    )"""


def _gridshift_sql():
    vlam = "CAST((({i}) * 7 + ({j}) * 13) % 101 - 50 AS DOUBLE) * {amp}".replace("{amp}", _R(_GRID_AMP))
    vphi = "CAST((({i}) * 11 + ({j}) * 17) % 89 - 44 AS DOUBLE) * {amp}".replace("{amp}", _R(_GRID_AMP))

    return f"""{_grid_cells_cte(_GRID_SPEC["ll"], _GRID_SPEC["delta"])}
    SELECT pid,
      (lam - ({_bilinear_sql(vlam)})) * {_R(RAD_TO_DEG)} AS lon_shifted,
      (phi + ({_bilinear_sql(vphi)})) * {_R(RAD_TO_DEG)} AS lat_shifted
    FROM idx
    """


def _band_lonlat(pid):
    """(lon, lat) of the derived points in the synthetic grids' coverage:
    lon in [-29, 29), lat in [31, 69)."""
    return lon_band_numpy(pid, -2900, 5800), (3100 + pid * LAT_MUL % 3800) / 1.0e2


def _shifted(sf_dir, t, lonlat):
    """(pid, lon_shifted, lat_shifted) per point: ``lonlat(pid)`` through
    the compiled transform ``t``."""
    def fn(pid):
        x, y, _ = t(*lonlat(pid))
        return pa.table({"pid": pid, "lon_shifted": x, "lat_shifted": y})

    return _per_point(sf_dir, fn)


@query("grid_shift_fwd", sql=_gridshift_sql())
def grid_shift_fwd(sf_dir):
    """Forward datum grid shift through a synthetic CTABLE: ordered
    first-match apply + bilinear interpolation (src/nad_intr.c:5-62,
    src/nad_cvt.c:59-67). Full-precision bitwise vs the SQL bilinear."""
    t = make_transform("+proj=latlong +nadgrids=synthA +ellps=WGS84",
                       "+proj=latlong +datum=WGS84", grid_loader=_grid_loader)
    return _shifted(sf_dir, t, _band_lonlat)


# --- dated grid catalog: as-of selection + linear date mixing -------------

_CATALOG_CSV_TEXT = (
    "synthetic dated catalog (title line discarded by pj_gc_readcatalog)\n"
    "synthA,-30,30,30,70,0,2000.0\n"   # before grid: full region
    "synthB,-30,30,0,70,0,2010.0\n"    # after, lon <= 0 only
    "synthC,-30,30,30,70,0,2012.0\n"   # after, full region
)
_CATALOG_DATE = 2004.0


def _catalog_sql():
    from ..crs import dmstor

    def node(name, plane):
        a, b, m, o = _GRID_FORMULAS[name][plane]
        return (f"CAST((({{i}}) * {a} + ({{j}}) * {b}) % {m} - {o} AS DOUBLE)"
                f" * {_R(_GRID_AMP)}")

    # the engine's per-point mix ratios, computed with the identical
    # double arithmetic (date - d_before) / (d_after - d_before)
    mix_b = _R((_CATALOG_DATE - 2000.0) / (2010.0 - 2000.0))
    mix_c = _R((_CATALOG_DATE - 2000.0) / (2012.0 - 2000.0))
    # region test against the dmstor-parsed CSV corners (radians);
    # only synthB's ur_long=0 is binding for the point band
    ur_b = _R(dmstor("0"))

    def mixed(plane, sign):
        synth_a = _bilinear_sql(node('synthA', plane))
        before = f"(lam {sign} ({synth_a}))" if plane == 0 \
            else f"(phi {sign} ({synth_a}))"
        base = "lam" if plane == 0 else "phi"
        out = []
        for mx, g in ((mix_b, "synthB"), (mix_c, "synthC")):
            after = f"({base} {sign} ({_bilinear_sql(node(g, plane))}))"
            out.append(f"{mx} * {after} + (1.0 - {mx}) * {before}")
        return out  # [in-region-B expr, else expr]

    lam_b, lam_c = mixed(0, "-")
    phi_b, phi_c = mixed(1, "+")
    return f"""{_grid_cells_cte(_GRID_SPEC["ll"], _GRID_SPEC["delta"])}
    SELECT pid,
      (CASE WHEN lam <= {ur_b} THEN {lam_b} ELSE {lam_c} END) * {_R(RAD_TO_DEG)} AS lon_shifted,
      (CASE WHEN lam <= {ur_b} THEN {phi_b} ELSE {phi_c} END) * {_R(RAD_TO_DEG)} AS lat_shifted
    FROM idx
    """


@query("catalog_datum_mix", sql=_catalog_sql())
def catalog_datum_mix(sf_dir):
    """Dated grid catalog (+catalog=<csv> +date=, the as-of join + date
    interpolation of pj_gc_apply_gridshift, src/pj_gridcatalog.c:102-230
    / pj_gc_reader.c): per point, the first catalog entry in
    (date, priority) order whose region contains the point and whose
    date brackets the datum date on each side; the point is shifted
    through BOTH grids and mixed linearly by the date ratio.  The
    synthetic catalog makes the after-selection region-dependent
    (synthB covers lon <= 0 at date 2010, synthC everything at 2012),
    so points mix with DIFFERENT ratios by location — driver-gating the
    per-point as-of scan, the dmstor-parsed region containment and the
    mixing arithmetic, full-precision bitwise vs the SQL twin.  The
    catalog CSV is config-plane data (like init files): tiny,
    deterministic, written into the calling process's temporary root;
    grids load once per transform instance via the injected loader."""
    csv_path = _os.path.join(_process_root(), "catalog.csv")
    with open(csv_path, "w") as f:
        f.write(_CATALOG_CSV_TEXT)
    t = make_transform(
        f"+proj=latlong +catalog={csv_path} +date={_CATALOG_DATE} +ellps=WGS84",
        "+proj=latlong +datum=WGS84", grid_loader=_grid_loader)
    return _shifted(sf_dir, t, _band_lonlat)


# --- nad2bin-compiled grid: closed-form .lla -> CTABLE2 -> shift ----------

_LLA_LIM = (121, 81)
_LLA_SCALE = 20000  # micro-arc-seconds per closed-form unit (~0.1 asec)
_LLA_USEC_LIT = "4.848136811095359935899141023e-12"  # src/nad2bin.c:8


def _lla_synth_text():
    """Deterministic ASCII ``.lla`` table whose accumulated node values
    have the closed form f_lam = ((i*7+j*13)%101-50)*20000 uas,
    f_phi = ((i*11+j*17)%89-44)*20000 uas — the delta encoding
    reconstructs them exactly in int64, so an SQL oracle can recompute
    the compiled float32 nodes."""
    nlam, nphi = _LLA_LIM
    ii = np.arange(nlam)
    lines = ["nad2bin-compiled synthetic grid (closed-form nodes)",
             f"   {nlam}   {nphi}   1   -30.00000   0.50000"
             "   30.00000   0.50000"]
    for j in range(nphi):
        fl = ((ii * 7 + j * 13) % 101 - 50) * _LLA_SCALE
        fp = ((ii * 11 + j * 17) % 89 - 44) * _LLA_SCALE
        d = np.empty(2 * nlam, dtype=np.int64)
        d[0::2] = np.diff(fl, prepend=0)  # first pair absolute, rest deltas
        d[1::2] = np.diff(fp, prepend=0)
        lines.append(f"{j}: " + " ".join(map(str, d.tolist())))
    return "\n".join(lines) + "\n"


def _lla_gridshift_sql():
    from ..kernels.common import DEG_TO_RAD as _D2R

    # identical doubles to parse_lla's float(token) * DEG_TO_RAD
    ll = (-30.0 * _D2R, 30.0 * _D2R)
    delta = (0.5 * _D2R, 0.5 * _D2R)
    # the compiled node: int closed form -> double -> *U_SEC_TO_RAD ->
    # float32 (CTABLE2 storage) -> widened back to double by nad_intr
    vlam = ("CAST(CAST(CAST(((({i}) * 7 + ({j}) * 13) % 101 - 50)"
            f" * {_LLA_SCALE} AS DOUBLE) * {_LLA_USEC_LIT} AS REAL)"
            " AS DOUBLE)")
    vphi = ("CAST(CAST(CAST(((({i}) * 11 + ({j}) * 17) % 89 - 44)"
            f" * {_LLA_SCALE} AS DOUBLE) * {_LLA_USEC_LIT} AS REAL)"
            " AS DOUBLE)")

    return f"""{_grid_cells_cte(ll, delta)}
    SELECT pid,
      (lam - ({_bilinear_sql(vlam)})) * {_R(RAD_TO_DEG)} AS lon_shifted,
      (phi + ({_bilinear_sql(vphi)})) * {_R(RAD_TO_DEG)} AS lat_shifted
    FROM idx
    """


@query("grid_shift_lla_compiled", sql=_lla_gridshift_sql())
def grid_shift_lla_compiled(sf_dir):
    """The full grid-COMPILE pipeline: deterministic ASCII .lla text ->
    nad2bin_convert to a CTABLE2 file (byte-identical to the reference
    nad2bin tool, src/nad2bin.c:100-216) -> read_ctable2
    (src/nad_init.c:198-240) -> distributed +nadgrids forward shift
    (src/nad_cvt.c:59-67). Node values have a closed form, so the
    oracle recompiles the float32 nodes in SQL (CAST .. AS REAL) and
    matches bit-for-bit at full precision."""
    from ..kernels.grid import read_ctable2
    from ..sources.grids import nad2bin_convert

    path = _os.path.join(_process_root(), "synthB.ct2")
    nad2bin_convert(_lla_synth_text(), path, "ctable2")
    grid = read_ctable2(path)

    t = make_transform("+proj=latlong +nadgrids=synthB +ellps=WGS84",
                       "+proj=latlong +datum=WGS84",
                       grid_loader=lambda name: grid if name == "synthB" else None)
    return _shifted(sf_dir, t, _band_lonlat)


# --- vertical geoid shift through a GTX file ------------------------------

_VGTX_LIM = (121, 81)  # same coverage as the synthA horizontal grid


def _vgtx_values():
    """Geoid heights in meters: small-int multiples of 2^-4 => exact in
    BOTH float32 (GTX storage) and float64 (SQL), so the bilinear
    matches bit-for-bit.  Range ±3 m, never equal to the -88.8888
    nodata sentinel."""
    nlam, nphi = _VGTX_LIM
    jj, ii = np.meshgrid(np.arange(nphi), np.arange(nlam), indexing="ij")
    return (((ii * 5 + jj * 3) % 97 - 48) * 2.0 ** -4).astype(np.float32)


def _vgtx_sql():
    from ..kernels.common import DEG_TO_RAD as _D2R

    # the GTX header stores ll/delta in DEGREES (big-endian doubles);
    # mirror write_gtx's /DEG_TO_RAD then read_gtx's *DEG_TO_RAD exactly
    ll_lam = ((-30.0 * _D2R) / _D2R) * _D2R
    ll_phi = ((30.0 * _D2R) / _D2R) * _D2R
    dl = ((0.5 * _D2R) / _D2R) * _D2R
    dp = dl
    lon_sql = lon_band_sql(PID_SQL, -2900, 5800)       # lon in [-29, 29)
    lat_sql = f"(3100 + (({PID_SQL}) * {LAT_MUL}) % 3800) / 1.0e2"
    v = "(CAST((({i}) * 5 + ({j}) * 3) % 97 - 48 AS DOUBLE) * 0.0625)"
    v00 = v.format(i="il", j="ip")
    v10 = v.format(i="il + 1", j="ip")
    v01 = v.format(i="il", j="ip + 1")
    v11 = v.format(i="il + 1", j="ip + 1")
    # apply_vgridshift's exact term and accumulation order
    # (src/pj_apply_vgridshift.c:146-155)
    bil = (f"{v00} * (1.0 - fx) * (1.0 - fy) + {v10} * fx * (1.0 - fy)"
           f" + {v01} * (1.0 - fx) * fy + {v11} * fx * fy")
    return f"""
    WITH pts AS (
      SELECT {PID_SQL} AS pid,
             ({lon_sql}) * {DEG_TO_RAD_LIT} AS lam,
             ({lat_sql}) * {DEG_TO_RAD_LIT} AS phi,
             CAST(({PID_SQL}) % 1000 AS DOUBLE) / 10.0 AS z
      FROM lineitem
    ), idx AS (
      SELECT pid, z,
             CAST(floor((lam - {_R(ll_lam)}) / {_R(dl)}) AS BIGINT) AS il,
             CAST(floor((phi - {_R(ll_phi)}) / {_R(dp)}) AS BIGINT) AS ip,
             (lam - {_R(ll_lam)}) / {_R(dl)}
               - floor((lam - {_R(ll_lam)}) / {_R(dl)}) AS fx,
             (phi - {_R(ll_phi)}) / {_R(dp)}
               - floor((phi - {_R(ll_phi)}) / {_R(dp)}) AS fy
      FROM pts
    )
    SELECT pid, z + ({bil}) AS z_ellips
    FROM idx
    """


@query("vertical_shift_gtx", sql=_vgtx_sql())
def vertical_shift_gtx(sf_dir):
    """Vertical geoid->ellipsoidal shift (+geoidgrids, pj_transform
    step 5) through a REAL GTX file round-trip: synthetic exact-in-f32
    heights written with write_gtx and re-read with read_gtx
    (src/pj_gridinfo.c:711-815), then the distributed z apply
    (src/pj_apply_vgridshift.c:46-211). Bitwise vs the SQL bilinear."""
    from ..kernels.common import DEG_TO_RAD as _D2R
    from ..sources.grids import VShiftGrid, read_gtx, write_gtx

    path = _os.path.join(_process_root(), "synthV.gtx")
    write_gtx(path, VShiftGrid(
        "synthV", (-30.0 * _D2R, 30.0 * _D2R), (0.5 * _D2R, 0.5 * _D2R),
        _VGTX_LIM, _vgtx_values()))
    vgrid = read_gtx(path)

    t = make_transform("+proj=latlong +datum=WGS84 +geoidgrids=synthV",
                       "+proj=latlong +datum=WGS84",
                       grid_loader=lambda name: vgrid if name == "synthV" else None)

    def fn(pid):
        z = (pid % 1000).astype(np.float64) / 10.0
        return pa.table({"pid": pid, "z_ellips": t(*_band_lonlat(pid), z)[2]})

    return _per_point(sf_dir, fn)


_NTF_GRID = "/root/reference/nad/ntf_r93.gsb"


def _require_ntf_grid():
    """Refuse up front when the real grid is absent: the transform
    loads it lazily and would otherwise fail every point, returning a
    full row count of inf lanes instead of an error."""
    if not _os.path.isfile(_NTF_GRID):
        raise FileNotFoundError(
            f"{_NTF_GRID} is missing: grid_shift_real* shift through the "
            "real ntf_r93.gsb NTv2 grid")


def _ntf_lonlat(pid):
    """(lon, lat) of the derived points inside the ntf_r93 coverage
    (France): lon in [-4.0, 7.99], lat in [42.5, 50.99]."""
    return (pid * LON_MUL % 1200 - 400) / 1.0e2, (4250 + pid * LAT_MUL % 850) / 1.0e2


@query("grid_shift_real", sql=_golden_sql("grid_shift_real_sf001.parquet"))
def grid_shift_real(sf_dir):
    """Datum grid shift through the reference's REAL ntf_r93.gsb NTv2
    file (France NTF->RGF93): derived points inside the grid's
    coverage, shifted via the full NTv2 reader + subgrid selection +
    bilinear path (pj_gridinfo.c:424-621, pj_apply_gridshift.c:131-254).
    Needs ntf_r93.gsb at _NTF_GRID and raises FileNotFoundError without
    it.  Oracle = frozen golden (tools/freeze_goldens.py), held in the
    repo, so it is registered whether or not the grid is present; the
    same machinery is independently golden-tested against td_out.dist
    in tests/test_grid_golden.py."""
    _require_ntf_grid()
    t = make_transform(f"+proj=latlong +ellps=WGS84 +nadgrids={_NTF_GRID}",
                       "+proj=latlong +datum=WGS84")
    return _shifted(sf_dir, t, _ntf_lonlat)


@query("grid_shift_real_inv",
       sql=_golden_sql("grid_shift_real_inv_sf001.parquet"))
def grid_shift_real_inv(sf_dir):
    """INVERSE datum grid shift through the real ntf_r93.gsb NTv2 file
    (RGF93->NTF direction): exercises the masked fixed-point nad_cvt
    inverse (src/nad_cvt.c:17-56 — MAX_TRY 9, TOL 1e-12 rad,
    first-order fallback at grid edges) on real data, the path
    grid_shift_real's forward query does not touch.  Needs ntf_r93.gsb
    at _NTF_GRID and raises FileNotFoundError without it.  Oracle =
    golden frozen from the INDEPENDENT per-point scalar NTv2
    implementation (tools/scalar_ref.py, validated bitwise vs the
    engine in tests/test_scalar_ref.py), registered whether or not the
    grid is present; fwd∘inv round-trip asserted there at reference
    tolerance."""
    _require_ntf_grid()
    t = make_transform("+proj=latlong +datum=WGS84",
                       f"+proj=latlong +ellps=WGS84 +nadgrids={_NTF_GRID}")
    return _shifted(sf_dir, t, _ntf_lonlat)


# -- prime meridian ---------------------------------------------------------

def _pm_sql():
    from ..crs import CRS

    pm = CRS("+proj=latlong +datum=WGS84 +pm=paris").from_greenwich
    return f"""
    WITH {_POINTS_CTE}
    SELECT pid,
      ((lon * {DEG_TO_RAD_LIT}) - {_R(pm)}) * {_R(RAD_TO_DEG)} AS lon_paris,
      (lat * {DEG_TO_RAD_LIT}) * {_R(RAD_TO_DEG)} AS lat_out
    FROM points
    """


@query("pm_shift_paris", sql=_pm_sql())
def pm_shift_paris(sf_dir):
    """Prime-meridian handling (pj_datums.c:66-81 registry + the
    from_greenwich step, src/pj_transform.c:253-260). Bitwise exact."""
    t = make_transform("+proj=latlong +datum=WGS84",
                       "+proj=latlong +datum=WGS84 +pm=paris")

    def fn(pid):
        x, y, _ = t(*lonlat_numpy(pid))
        return pa.table({"pid": pid, "lon_paris": x, "lat_out": y})

    return _per_point(sf_dir, fn)


# -- axis orientation + unit conversion -------------------------------------

def _axis_units_sql():
    from ..crs import CRS

    P = CRS("+proj=merc +datum=WGS84 +units=km +axis=wsu")
    fr = 1.0 / 1000.0
    # ellipsoidal merc (es != 0): y = -k0 * ln(tsfn(phi)) (PJ_merc.c e_forward)
    phi = f"(lat * {DEG_TO_RAD_LIT})"
    tsfn = (f"tan(0.5 * ({_R(HALFPI)} - {phi})) / "
            f"pow((1.0 - {_R(P.e)} * sin({phi})) / (1.0 + {_R(P.e)} * sin({phi})), {_R(0.5 * P.e)})")
    y = f"-ln({tsfn})"
    return f"""
    WITH {_POINTS_CTE}
    SELECT pid,
      {ROUND6_SQL.format(e=f"-((6378137.0e0 * (lon * {DEG_TO_RAD_LIT}) + 0.0) * {_R(fr)})")} AS xw_km,
      {ROUND6_SQL.format(e=f"-((6378137.0e0 * ({y}) + 0.0) * {_R(fr)})")} AS ys_km,
      lat AS lat_in
    FROM points
    """


@query("axis_units_km", sql=_axis_units_sql())
def axis_units_km(sf_dir):
    """+axis=wsu (denormalization, src/pj_transform.c:728-825) combined
    with +units=km (fr_meter scaling, src/pj_init.c:556-571)."""
    t = make_transform("+proj=latlong +datum=WGS84",
                       "+proj=merc +datum=WGS84 +units=km +axis=wsu")

    def fn(pid):
        lon, lat = lonlat_numpy(pid)
        x, y, _ = t(lon, lat)
        return pa.table({"pid": pid, "xw_km": _r6(x), "ys_km": _r6(y),
                         "lat_in": lat})

    return _per_point(sf_dir, fn)


# -- geoparse extraction ----------------------------------------------------

def _geoparse_sql():
    lon_sql, lat_sql = lonlat_sql("doc_id")
    return f"""
    WITH pages AS (
      SELECT doc_id AS pid,
             'https://site' || (doc_id % 1000) || '.example/page/' || doc_id AS url,
             text || ' Coordinates: (' || printf('%.2f', {lat_sql}) || ', '
                  || printf('%.2f', {lon_sql}) || ')' AS t
      FROM documents
    )
    SELECT pid, url,
           CAST(regexp_extract(t, '\\((-?\\d+\\.\\d\\d), (-?\\d+\\.\\d\\d)\\)', 1) AS DOUBLE) AS lat,
           CAST(regexp_extract(t, '\\((-?\\d+\\.\\d\\d), (-?\\d+\\.\\d\\d)\\)', 2) AS DOUBLE) AS lon
    FROM pages
    """


@query("geoparse_extract", sql=_geoparse_sql())
def geoparse_extract(sf_dir):
    """Page synthesis (printf-exact text construction) + coordinate
    extraction (``GeoparseStage``: each page's first ``COORD_RE``
    match); text passthrough is byte-identical per url by design.  On a
    zero-row ``documents`` table the block function runs on its zero-row
    input, as ``_per_point`` does for lineitem."""
    parse = GeoparseStage(keep=("pid", "url"))
    cols = ["doc_id", "text"]

    def fn(t: pa.Table) -> pa.Table:
        return parse(synth_pages_batch(
            pa.table({"pid": pc.cast(t["doc_id"], pa.int64()), "text": t["text"]}),
            "pid", text_col="text"))

    if table_rows(sf_dir, "documents"):
        return read_table(sf_dir, "documents", columns=cols).map_batches(
            fn, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    import pyarrow.parquet as pq

    return fn(pq.read_table(_os.path.join(sf_dir, "documents.parquet"),
                            columns=cols))


# ===========================================================================
# Geodesic line expansion (flat_map: 1 row -> n rows)
# ===========================================================================

from ..kernels.geodesic import slerp_line  # noqa: E402

_GEOD_N = 5


def _geod_line_sql():
    pi = float(np.pi)
    d2r = pi / 180.0
    lon2_sql = f"(((pid) * {LAT_MUL}) % 36000 - 18000) / 1.0e2"
    lat2_sql = f"(((pid) * {LON_MUL}) % 16000 - 8000) / 1.0e2"
    v = {}
    for p, lo, la in (("1", "lon", "lat"), ("2", "lon2", "lat2")):
        v[f"x{p}"] = f"cos({la} * {_R(d2r)}) * cos({lo} * {_R(d2r)})"
        v[f"y{p}"] = f"cos({la} * {_R(d2r)}) * sin({lo} * {_R(d2r)})"
        v[f"z{p}"] = f"sin({la} * {_R(d2r)})"
    return f"""
    WITH {_POINTS_CTE},
    pts AS (
      SELECT pid, lon, lat, {lon2_sql} AS lon2, {lat2_sql} AS lat2 FROM points
    ),
    vec AS (
      SELECT pid, {v['x1']} AS x1, {v['y1']} AS y1, {v['z1']} AS z1,
                  {v['x2']} AS x2, {v['y2']} AS y2, {v['z2']} AS z2
      FROM pts
    ),
    om AS (
      SELECT *, acos(least(greatest(x1*x2 + y1*y2 + z1*z2, -1.0), 1.0)) AS omega,
             sin(acos(least(greatest(x1*x2 + y1*y2 + z1*z2, -1.0), 1.0))) AS sino
      FROM vec
    ),
    expanded AS (
      SELECT o.*, k.k,
        CASE WHEN sino != 0.0 THEN sin((1.0 - k.k * {_R(1.0 / (_GEOD_N - 1))}) * omega) / sino
             ELSE 1.0 - k.k * {_R(1.0 / (_GEOD_N - 1))} END AS a,
        CASE WHEN sino != 0.0 THEN sin(k.k * {_R(1.0 / (_GEOD_N - 1))} * omega) / sino
             ELSE k.k * {_R(1.0 / (_GEOD_N - 1))} END AS b
      FROM om o CROSS JOIN (VALUES (0.0e0), (1.0e0), (2.0e0), (3.0e0), (4.0e0)) k(k)
    )
    SELECT pid, CAST(k AS BIGINT) AS k,
      {ROUND6_SQL.format(e=f"atan2(a*y1 + b*y2, a*x1 + b*x2) * {_R(57.29577951308232)}")} AS lon_i,
      {ROUND6_SQL.format(e=f"atan2(a*z1 + b*z2, sqrt((a*x1 + b*x2)*(a*x1 + b*x2) + (a*y1 + b*y2)*(a*y1 + b*y2))) * {_R(57.29577951308232)}")} AS lat_i
    FROM expanded
    """


@query("geod_line_interp", sql=_geod_line_sql())
def geod_line_interp(sf_dir):
    """geod -l line mode as a flat_map-shaped stage: each point pair
    expands to 5 great-circle samples (spherical slerp variant;
    the ellipsoidal Karney path is covered by geod_inverse_ellipsoidal)."""
    def fn(pid):
        lon, lat = lonlat_numpy(pid)
        lon2 = (pid * LAT_MUL % 36000 - 18000) / 1.0e2
        lat2 = (pid * LON_MUL % 16000 - 8000) / 1.0e2
        lons, lats = slerp_line(lon, lat, lon2, lat2, _GEOD_N)
        return pa.table({
            "pid": np.repeat(pid, _GEOD_N),
            "k": np.tile(np.arange(_GEOD_N, dtype=np.int64), pid.size),
            "lon_i": _r6(lons.reshape(-1)),
            "lat_i": _r6(lats.reshape(-1)),
        })

    return _per_point(sf_dir, fn)


@query("geod_inverse_ellipsoidal", sql=_golden_sql("geod_inverse_sf001.parquet"))
def geod_inverse_ellipsoidal(sf_dir):
    """Ellipsoidal geodesic inverse (Karney order-6 series, the
    reference's geod_inverse, src/geodesic.c:944): distance + azimuths
    per derived pair; exact everywhere incl. near-antipodal."""
    return _per_point(sf_dir, lambda pid: _geod_inverse_rows(_points(pid)))


def _geod_inverse_rows(t: pa.Table) -> pa.Table:
    """(pid, s12_mm, azi1_udeg, converged) from each point to its derived
    partner. A point with a non-finite lon or lat keeps its row, with
    ``converged`` false and null ``s12_mm`` and ``azi1_udeg``: the kernel
    flags such a lane converged, with a meaningless (for a NaN longitude,
    finite) answer."""
    from ..kernels.geodesic import geod_inverse

    pid = t["pid"].to_numpy(zero_copy_only=False)
    lon = t["lon"].to_numpy(zero_copy_only=False)
    lat = t["lat"].to_numpy(zero_copy_only=False)
    lon2 = (pid * LAT_MUL % 36000 - 18000) / 1.0e2
    lat2 = (pid * LON_MUL % 16000 - 8000) / 1.0e2
    fin = np.isfinite(lon) & np.isfinite(lat)
    s12_mm = np.zeros(pid.size, np.int64)
    azi1_udeg = np.zeros(pid.size, np.int64)
    ok = np.zeros(pid.size, bool)
    s12, azi1, _, ok[fin] = geod_inverse(lon[fin], lat[fin], lon2[fin], lat2[fin])
    s12_mm[fin] = np.floor(s12 * 1e3 + 0.5)
    azi1_udeg[fin] = np.floor(azi1 * 1e6 + 0.5)
    null = None if fin.all() else ~fin
    return pa.table({
        "pid": pa.array(pid, pa.int64()),
        "s12_mm": pa.array(s12_mm, mask=null),
        "azi1_udeg": pa.array(azi1_udeg, mask=null),
        "converged": pa.array(ok),
    })


# ===========================================================================
# Relational part 2: the hot-cell aggregate and per-user simplification
# ===========================================================================

def _salted_sql():
    tx, ty = _tile_sql_exprs(2)
    return f"""
    WITH {_POINTS_CTE}
    SELECT {ty} * 4 + {tx} AS cell,
           COUNT(*) AS n_points,
           CAST(SUM(pid) AS BIGINT) AS sum_pid
    FROM points GROUP BY cell
    """


@query("salted_cell_agg", sql=_salted_sql())
def salted_cell_agg(sf_dir):
    """Skew demo: zoom-2 cells are few and hot (megacity-cell shape).
    stages.agg.group_agg pre-reduces each block to at most one row per
    cell, so a hot cell moves one partial row per block however many
    of the block's rows it holds; the oracle's unsalted GROUP BY gives
    the same totals."""
    from ..stages.agg import group_agg

    def add_cell(pid):
        return pa.table({"cell": _cell_id(*lonlat_numpy(pid), 2), "pid": pid})

    out = group_agg(_points_ds(sf_dir, add_cell), ["cell"],
                    {"n_points": ("pid", "count"), "sum_pid": ("pid", "sum")})
    return _sorted_pdf(out.astype(np.int64), ["cell"])


_DP_TOL_DEG = 60.0  # Douglas-Peucker tolerance (degrees; drops ~1/3)


@query("traj_simplify_dp", sql=_golden_sql("traj_simplify_sf001.parquet"))
def traj_simplify_dp(sf_dir):
    """Per-user polyline simplification (Douglas-Peucker): each user's
    event trace (points in (event-time, event_id) order, lon/lat derived
    from event_id exactly as the other spatial queries derive geometry)
    is reduced to the vertices whose perpendicular deviation from the
    running chord exceeds the tolerance — the standard map-generalization
    operator for trajectory compression before tiling.

    Shape: one key-hash shuffle (stages.agg.bucket_map), then an in-group
    stack-based DP where every split evaluates ALL candidate deviations
    vectorized (squared-distance compare — no sqrt, no division ordering
    hazards; num^2/den and the argmax tie-break to the FIRST maximum are
    bit-reproduced by the scalar golden).  Output is one bounded row per
    user (counts + kept-index/id checksums pinning the exact selection),
    so the result never grows with trace length.

    Oracle: frozen golden from an independent per-point pure-Python
    scalar DP (tools/freeze_goldens.py:freeze_traj_simplify_golden)."""
    from ..stages.agg import bucket_map

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    tol2 = _DP_TOL_DEG * _DP_TOL_DEG

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy().astype(np.int64)
        tu = g["ts"].astype("int64").to_numpy()
        order = np.lexsort((eid, tu))
        eid = eid[order]
        lon, lat = lonlat_numpy(eid)
        n = eid.size
        keep = np.zeros(n, bool)
        keep[0] = keep[n - 1] = True
        stack = [(0, n - 1)]
        while stack:
            i, j = stack.pop()
            if j - i < 2:
                continue
            x1, y1, x2, y2 = lon[i], lat[i], lon[j], lat[j]
            xs, ys = lon[i + 1:j], lat[i + 1:j]
            dx, dy = x2 - x1, y2 - y1
            den = dx * dx + dy * dy
            if den == 0.0:
                d2 = (xs - x1) * (xs - x1) + (ys - y1) * (ys - y1)
            else:
                num = dx * (y1 - ys) - (x1 - xs) * dy
                d2 = (num * num) / den
            m = int(np.argmax(d2))
            if d2[m] > tol2:
                k = i + 1 + m
                keep[k] = True
                stack.append((i, k))
                stack.append((k, j))
        kept = np.flatnonzero(keep)
        return pd.DataFrame({
            "user_id": [np.int64(g["user_id"].iloc[0])],
            "n_points": [np.int64(n)],
            "n_kept": [np.int64(kept.size)],
            "kept_idx_sum": [np.int64(kept.sum())],
            "kept_eid_sum": [np.int64(eid[kept].sum())],
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("user_id", group_keys=False, sort=False)
                [list(g.columns)].apply(per_user).reset_index(drop=True))

    return _typed_input(bucket_map(ds, ["user_id"], per_bucket),
                        sf_dir, "events",
                        user_id=pa.int64(), n_points=pa.int64(), n_kept=pa.int64(),
                        kept_idx_sum=pa.int64(), kept_eid_sum=pa.int64())


# -- focal raster stats ----------------------------------------------------


@query(
    "raster_focal_mean",
    sql=f"""
    WITH {_RCELLS_CTE}
    SELECT a.r, a.c, CAST(a.n AS BIGINT) AS n,
           CAST(SUM(b.n) AS BIGINT) AS focal_sum,
           CAST(COUNT(*) AS BIGINT) AS focal_cnt
    FROM cells a JOIN cells b
      ON b.r BETWEEN a.r - 1 AND a.r + 1
     AND b.c BETWEEN a.c - 1 AND a.c + 1
    GROUP BY a.r, a.c, a.n
    ORDER BY a.r, a.c
    """,
)
def raster_focal_mean(sf_dir):
    """Raster focal (moving-window) statistics — the GDAL/map-algebra
    3x3 stencil (focal sum + occupied-neighbor count per occupied
    cell), the raster sibling of zonal_stats (reference-adjacent to the
    regular lat/lon raster model of src/nad_init.c).

    Scale shape: the corpus-proportional work ends at the per-batch
    bincount rasterization (_raster_cells); the stencil then
    runs over the RASTER (72x32 here), vectorized as nine shifted-array
    adds over the padded grid.  A corpus-scale raster (zoom 14+) would
    shard the grid into row bands and exchange one-row halos — the
    stencil itself stays a per-band vectorized kernel; no wraparound at
    the antimeridian (cells are pure indices here, matching the SQL
    twin's BETWEEN neighborhood).  Only occupied cells are emitted, so
    the result and the oracle's inner self-join agree exactly."""
    cells = _raster_cells(sf_dir)
    grid = np.zeros((_RNROW, _RNCOL), np.int64)
    grid[cells["r"].to_numpy(np.int64), cells["c"].to_numpy(np.int64)] = \
        cells["n"].to_numpy(np.int64)
    occ = grid > 0
    pg = np.pad(grid, 1)
    po = np.pad(occ.astype(np.int64), 1)
    fs = np.zeros_like(grid)
    fc = np.zeros_like(grid)
    for dr in (0, 1, 2):          # 9 shifted adds — offsets, not cells
        for dc in (0, 1, 2):
            fs += pg[dr:dr + _RNROW, dc:dc + _RNCOL]
            fc += po[dr:dr + _RNROW, dc:dc + _RNCOL]
    r, c = np.nonzero(occ)
    out = pd.DataFrame({"r": r.astype(np.int64), "c": c.astype(np.int64),
                        "n": grid[r, c], "focal_sum": fs[r, c],
                        "focal_cnt": fc[r, c]})
    return out.sort_values(["r", "c"]).reset_index(drop=True)


# warp target grid: 32 x 64 Web-Mercator cells over lon [-180, 180),
# lat (-80, 80); Y bounds / steps are engine-computed constants pasted
# into the SQL as repr literals (the module's exactness idiom)
_WARP_NR, _WARP_NC = 32, 64
_WARP_R = 6378137.0
_WARP_Y80 = _WARP_R * float(np.log(np.tan(np.pi / 4 + np.radians(80.0) / 2)))
_WARP_STEPY = 2.0 * _WARP_Y80 / _WARP_NR
_WARP_DEGSC = 180.0 / float(np.pi)


def _warp_sql():
    Y80, SY = repr(_WARP_Y80), repr(_WARP_STEPY)
    R, PI, DG = repr(_WARP_R), repr(float(np.pi)), repr(_WARP_DEGSC)
    return f"""
    WITH {_RCELLS_CTE},
    tgt AS (
      SELECT a.range AS tr, b.range AS tc
      FROM range({_WARP_NR}) a, range({_WARP_NC}) b
    ),
    m AS (
      SELECT tr, tc,
        CAST(floor((floor(((2*atan(exp((-{Y80} + (tr+0.5)*{SY}) / {R}))
                            - {PI}/2) * {DG}) * 1e9 + 0.5)/1e9 + 80) / 5.0)
             AS BIGINT) AS sr,
        CAST(floor(((-180 + (tc+0.5)*5.625) + 180) / 5.0) AS BIGINT) AS sc
      FROM tgt
    )
    SELECT m.tr, m.tc, m.sr, m.sc, CAST(c.n AS BIGINT) AS n
    FROM m JOIN cells c ON c.r = m.sr AND c.c = m.sc
    ORDER BY m.tr, m.tc
    """


@query("raster_warp", sql=_warp_sql())
def raster_warp(sf_dir):
    """Raster -> raster reprojection resample (the gdalwarp shape,
    nearest-neighbor): the 5-degree lat/lon point-count raster is
    resampled onto a 32x64 WEB-MERCATOR-aligned target grid — each
    target cell samples the source cell under its center, through the
    spherical-Mercator inverse (PJ_merc.c's s_inverse shape:
    lat = 2*atan(exp(y/R)) - pi/2).

    Exactness: the x axis is linear in lon (exact binary arithmetic,
    provably never on a cell edge); the y axis runs atan/exp (1-3 ulp
    libm skew numpy<->DuckDB), so the sampled latitude is rounded via
    the shared floor(x*1e9+0.5)/1e9 idiom before the cell floor, and
    the Mercator bounds/steps are engine-computed constants pasted as
    repr literals.

    Scale shape: the corpus-proportional work ends at the per-batch
    bincount rasterization (_raster_cells); the target mapping is
    computed vectorized over the BOUNDED target grid and gathers
    source values through one hash merge.  Only target cells whose
    source cell is occupied are emitted (inner-join semantics, exactly
    the SQL twin)."""
    cells = _raster_cells(sf_dir)

    tr, tc = np.divmod(np.arange(_WARP_NR * _WARP_NC, dtype=np.int64),
                       _WARP_NC)
    ym = -_WARP_Y80 + (tr + 0.5) * _WARP_STEPY
    lat = (2.0 * np.arctan(np.exp(ym / _WARP_R))
           - float(np.pi) / 2) * _WARP_DEGSC
    lat_r = np.floor(lat * 1e9 + 0.5) / 1e9
    sr = np.floor((lat_r + 80.0) / 5.0).astype(np.int64)
    lon = -180.0 + (tc + 0.5) * 5.625
    sc = np.floor((lon + 180.0) / 5.0).astype(np.int64)
    tgt = pd.DataFrame({"tr": tr, "tc": tc, "sr": sr, "sc": sc})
    out = tgt.merge(cells.rename(columns={"r": "sr", "c": "sc"}),
                    on=["sr", "sc"], how="inner")
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["tr", "tc"]).reset_index(drop=True)


# -- Hex-grid spatial index (the H3-style hexagonal leg) --------------------
#
# Flat-top hexagons of size _HEX_S degrees on the equirectangular
# plane: axial coords (q, r) via the standard basis, then cube
# rounding.  Every op on both sides is +,-,*,/ and sqrt on identical
# literals — the IEEE-deterministic set (file header) — and floor(x+.5)
# replaces round() so halfway ties break identically, which makes the
# int cell ids exact value-hash matches.

_HEX_S = 1.5

_HEX_CELL_SQL = f"""
    hexqr AS (
      SELECT pid, lon_centi,
             ((2.0/3.0) * lon) / {_HEX_S} AS q,
             ((-1.0/3.0) * lon + (sqrt(3.0)/3.0) * lat) / {_HEX_S} AS r
      FROM points
    ),
    hexcube AS (
      SELECT pid, lon_centi, q, r,
             floor(q + 0.5) AS rx, floor((-q - r) + 0.5) AS ry,
             floor(r + 0.5) AS rz
      FROM hexqr
    ),
    hexfix AS (
      SELECT pid, lon_centi,
             CASE WHEN abs(rx - q) > abs(ry - (-q - r))
                       AND abs(rx - q) > abs(rz - r)
                  THEN -ry - rz ELSE rx END AS hq,
             CASE WHEN NOT (abs(rx - q) > abs(ry - (-q - r))
                            AND abs(rx - q) > abs(rz - r))
                       AND abs(rz - r) > abs(ry - (-q - r))
                  THEN -rx - ry ELSE rz END AS hr
      FROM hexcube
    )"""


def _hex_cell_agg_sql():
    return f"""
    WITH {_POINTS_CTE.replace('lat FROM lineitem',
        'lat, ((l_orderkey * 10 + l_linenumber) * ' + str(LON_MUL)
        + ') % 36000 - 18000 AS lon_centi FROM lineitem')},
    {_HEX_CELL_SQL}
    SELECT CAST(hq AS BIGINT) AS hex_q, CAST(hr AS BIGINT) AS hex_r,
           COUNT(*) AS n_points,
           CAST(SUM(lon_centi) AS BIGINT) AS sum_lon_centi,
           MIN(pid) AS min_pid
    FROM hexfix GROUP BY hq, hr
    """


@query("hex_cell_agg", sql=_hex_cell_agg_sql())
def hex_cell_agg(sf_dir):
    """Hexagonal spatial index + aggregate — the H3-style hex leg next
    to the S2 (s2_cell_agg) and slippy-tile (tile_agg) indexes: assign
    each point to a flat-top hex cell (axial coords + vectorized cube
    rounding, pure numpy) and aggregate per cell (stages.agg.group_agg).
    Hexes are the standard choice for density/kNN-ish spatial joins
    (uniform neighbor distance); the cell id is 2 int64s, so the
    combine moves 40 bytes/partial-row and is cell-cardinality-bounded."""
    from ..stages.agg import group_agg

    def cells(pid):
        lon, lat = lonlat_numpy(pid)
        q = ((2.0 / 3.0) * lon) / _HEX_S
        r = ((-1.0 / 3.0) * lon + (np.sqrt(3.0) / 3.0) * lat) / _HEX_S
        y = -q - r
        rx, ry, rz = (np.floor(q + 0.5), np.floor(y + 0.5),
                      np.floor(r + 0.5))
        dx, dy, dz = np.abs(rx - q), np.abs(ry - y), np.abs(rz - r)
        fix_x = (dx > dy) & (dx > dz)
        fix_z = ~fix_x & (dz > dy)
        hq = np.where(fix_x, -ry - rz, rx).astype(np.int64)
        hr = np.where(fix_z, -rx - ry, rz).astype(np.int64)
        return pa.table({"hex_q": hq, "hex_r": hr, "pid": pid,
                         "lon_centi": (pid * LON_MUL) % 36000 - 18000})

    out = group_agg(_points_ds(sf_dir, cells),
                    ["hex_q", "hex_r"], {"n_points": ("pid", "count"),
                                         "sum_lon_centi": ("lon_centi", "sum"),
                                         "min_pid": ("pid", "min")})
    return _sorted_pdf(out.astype(np.int64), ["hex_q", "hex_r"])


# -- Per-cluster convex hull ------------------------------------------------


@query("cluster_convex_hull", sql=_golden_sql("cluster_hull_sf001.parquet"))
def cluster_convex_hull(sf_dir):
    """Convex hull per spatial cluster — the footprint-polygon step a
    geo pipeline runs after density clustering (cluster extents for
    map display, coverage area, downstream PIP).  Chains the shipped
    stack: 30 km radius clusters (_cluster_labels) -> one bucket
    shuffle of the (pid, cluster) labels (stages.agg.bucket_map) ->
    per-cluster Andrew monotone chain (`kernels/hull.py`), emitting CCW
    vertices (ord 0 = smallest (lon, lat)) for clusters with >= 3
    distinct coordinates.

    Scale: each bucket runs a vectorized coordinate dedup (np.unique)
    + O(m log m) chain per cluster, so a pid's repeated rows cost no
    pre-pass; cluster sizes are bounded by the radius graph's density,
    and the chain is the per-group sequential core every hull has.
    Coordinates recompute from pid inside the hull stage (no join).
    Golden: Jarvis gift-wrapping march — a DIFFERENT hull algorithm —
    over the independently-frozen spatial-clusters labels
    (tools/freeze_goldens.freeze_cluster_hull_golden); both sides use
    the same double-precision cross-product expression, so the
    lattice-aligned (0.01-degree) collinear cases classify
    identically."""
    from ..kernels.hull import convex_hull_ccw
    from ..stages.agg import bucket_map

    def hulls(g: pd.DataFrame) -> pd.DataFrame:
        out_c, out_o, out_x, out_y = [], [], [], []
        for cl, grp in g.groupby("cluster"):
            pid = grp["pid"].to_numpy(np.int64)
            lon, lat = lonlat_numpy(pid)
            if len(np.unique(np.stack([lon, lat], axis=1), axis=0)) < 3:
                continue  # contract: >= 3 DISTINCT coords get a hull
            h = convex_hull_ccw(lon, lat)
            # an all-collinear cluster legitimately yields the
            # 2-vertex extent segment — emit it (golden does too)
            out_c.extend([int(cl)] * len(h))
            out_o.extend(range(len(h)))
            out_x.extend(h[:, 0].tolist())
            out_y.extend(h[:, 1].tolist())
        return pd.DataFrame({"cluster": np.array(out_c, np.int64),
                             "ord": np.array(out_o, np.int64),
                             "lon": np.array(out_x, np.float64),
                             "lat": np.array(out_y, np.float64)})

    out = bucket_map(_cluster_labels(_points_ds(sf_dir)), ["cluster"],
                     hulls).to_pandas()
    if len(out) == 0:  # no hullable cluster at this SF: keep the schema
        out = pd.DataFrame({"cluster": np.empty(0, np.int64),
                            "ord": np.empty(0, np.int64),
                            "lon": np.empty(0, np.float64),
                            "lat": np.empty(0, np.float64)})
    return _sorted_pdf(out, ["cluster", "ord"])


# -- Per-cluster diameter (hull-reduced farthest pair) -----------------------


@query("cluster_diameter",
       sql=_golden_sql("cluster_diameter_sf001.parquet"))
def cluster_diameter(sf_dir):
    """Max planar extent per spatial cluster, computed over HULL
    VERTICES ONLY: the farthest pair of a point set under Euclidean
    distance are extreme points, so after the monotone chain the
    pairwise max is O(h^2) on a handful of vertices instead of O(m^2)
    over members — the reduction that makes cluster extents cheap at
    scale (and the claim the golden checks: it brute-forces ALL
    distinct member pairs per cluster, engine must agree exactly).
    Same pipeline and >= 3-distinct-coords contract as
    cluster_convex_hull; d2_deg is the identical IEEE double
    dx*dx + dy*dy on both sides."""
    from ..kernels.hull import convex_hull_ccw
    from ..stages.agg import bucket_map

    def diam(g: pd.DataFrame) -> pd.DataFrame:
        out_c, out_n, out_d = [], [], []
        for cl, grp in g.groupby("cluster"):
            pid = grp["pid"].to_numpy(np.int64)
            lon, lat = lonlat_numpy(pid)
            P = np.unique(np.stack([lon, lat], axis=1), axis=0)
            if len(P) < 3:
                continue
            h = convex_hull_ccw(P[:, 0], P[:, 1])
            dx = h[:, None, 0] - h[None, :, 0]
            dy = h[:, None, 1] - h[None, :, 1]
            out_c.append(int(cl))
            out_n.append(len(P))
            out_d.append(float((dx * dx + dy * dy).max()))
        return pd.DataFrame({"cluster": np.array(out_c, np.int64),
                             "n_distinct": np.array(out_n, np.int64),
                             "d2_deg": np.array(out_d, np.float64)})

    out = bucket_map(_cluster_labels(_points_ds(sf_dir)), ["cluster"],
                     diam).to_pandas()
    if len(out) == 0:
        out = pd.DataFrame({"cluster": np.empty(0, np.int64),
                            "n_distinct": np.empty(0, np.int64),
                            "d2_deg": np.empty(0, np.float64)})
    return _sorted_pdf(out, ["cluster"])


# -- Geohash encode + prefix aggregation -------------------------------------

_GH_ALPHA = "0123456789bcdefghjkmnpqrstuvwxyz"
_GH_BITS = 15   # per axis -> 30-bit cell, 6 base32 chars

_GH_Z_SQL = " + ".join(
    [f"(((gx >> {j}) & 1) << {2 * j + 1})" for j in range(_GH_BITS)]
    + [f"(((gy >> {j}) & 1) << {2 * j})" for j in range(_GH_BITS)])
_GH4_SQL = " || ".join(
    f"substr('{_GH_ALPHA}', CAST((cell >> {15 - 5 * i}) & 31 AS INT)"
    " + 1, 1)" for i in range(4))


@query(
    "geohash_cell_agg",
    sql=f"""
    WITH {_POINTS_CTE},
    gb AS (
      SELECT pid,
             LEAST(CAST(FLOOR((lon + 180.0) / 360.0 * 32768.0) AS BIGINT),
                   32767) AS gx,
             LEAST(CAST(FLOOR((lat + 90.0) / 180.0 * 32768.0) AS BIGINT),
                   32767) AS gy
      FROM points
    ),
    gz AS (SELECT pid, {_GH_Z_SQL} AS z FROM gb),
    agg AS (
      SELECT z >> 10 AS cell, COUNT(*) AS n_points,
             MIN(pid) AS min_pid
      FROM gz GROUP BY z >> 10
    )
    SELECT {_GH4_SQL} AS gh4,
           CAST(n_points AS BIGINT) AS n_points, min_pid
    FROM agg ORDER BY gh4
    """)
def geohash_cell_agg(sf_dir):
    """Geohash tiling — the base32 Z-order cell scheme every geo stack
    speaks (alongside the shipped S2 / hex / slippy tilings): 15 bits
    per axis bit-interleaved lon-first into a 30-bit cell, rendered as
    base32, aggregated per 4-char prefix (20-bit cell, ~20 x 20 km).

    The encode is pure vectorized bit arithmetic in ONE map_batches
    (floor-quantize both axes, interleave via shifted masks); the
    per-cell rollup is a mergeable (count, min) through
    stages.agg.group_agg keyed on the 20-bit INT cell — strings render
    only on the final bounded frame (and identically in SQL via substr
    on the same alphabet), so the combine carries ints, never text.  Both
    engines share the exact quantize expression
    floor((lon+180)/360*32768) with the same clamp, so cell ids are
    bitwise-identical."""
    from ..stages.agg import group_agg

    jj = np.arange(_GH_BITS, dtype=np.int64)

    def enc(pid):
        lon, lat = lonlat_numpy(pid)
        gx = np.minimum(np.floor((lon + 180.0) / 360.0 * 32768.0)
                        .astype(np.int64), 32767)
        gy = np.minimum(np.floor((lat + 90.0) / 180.0 * 32768.0)
                        .astype(np.int64), 32767)
        z = (((gx[:, None] >> jj) & 1) << (2 * jj + 1)).sum(axis=1) \
            + (((gy[:, None] >> jj) & 1) << (2 * jj)).sum(axis=1)
        return pa.table({"cell": z >> 10, "pid": pid})

    agg = group_agg(_points_ds(sf_dir, enc), ["cell"],
                    {"n_points": ("pid", "count"), "min_pid": ("pid", "min")})
    cell = agg["cell"].to_numpy(np.int64)
    chars = np.frombuffer(_GH_ALPHA.encode(), np.uint8)
    gh = np.empty((len(cell), 4), np.uint8)
    for i in range(4):
        gh[:, i] = chars[(cell >> (15 - 5 * i)) & 31]
    out = pd.DataFrame({
        "gh4": np.array([g.tobytes().decode() for g in gh], dtype=object),
        "n_points": agg["n_points"].to_numpy(np.int64),
        "min_pid": agg["min_pid"].to_numpy(np.int64),
    })
    return _sorted_pdf(out, ["gh4"])


# -- Tile pyramid: multi-zoom rollup from child aggregates -------------------

_PYR_ZMAX = 12
_PYR_ZMIN = 8


def _tile_pyramid_sql():
    tx, ty = _tile_sql_exprs(_PYR_ZMAX)
    return f"""
    WITH {_POINTS_CTE},
    c AS (SELECT {tx} AS tx, {ty} AS ty FROM points),
    lv AS (SELECT unnest(generate_series({_PYR_ZMIN}, {_PYR_ZMAX})) AS z)
    SELECT z, tx >> ({_PYR_ZMAX} - z) AS tx, ty >> ({_PYR_ZMAX} - z) AS ty,
           COUNT(*) AS n_points
    FROM c CROSS JOIN lv GROUP BY 1, 2, 3 ORDER BY z, tx, ty
    """


@query("tile_pyramid_counts", sql=_tile_pyramid_sql())
def tile_pyramid_counts(sf_dir):
    """Tile-pyramid aggregation (the map-rendering shape: every zoom
    level's density layer, z8..z12): ONE streaming pass aggregates
    points at the finest zoom, then each coarser level rolls up from
    its CHILDREN's aggregates by integer halving — the raw points are
    never re-read per level, which is the whole point of a pyramid
    (the naive per-level re-scan does zmax-zmin full passes).

    Scale: the z12 frame is GRID-bounded (<= 4^12 ~ 16.7M cells
    regardless of corpus size; count-mergeable via stages.agg.group_agg),
    and every rollup shrinks it 4x, so the driver-side halving loop is
    corpus-independent.  The SQL twin groups the raw points at every
    level independently, so the gate checks that parents exactly equal
    the sum of their children under the documented half-open edge
    convention (kernels/tiling.py)."""
    from ..stages.agg import group_agg

    def cells(pid):
        return pa.table({"cell_id": _cell_id(*lonlat_numpy(pid), _PYR_ZMAX)})

    agg = group_agg(_points_ds(sf_dir, cells), ["cell_id"],
                    {"n_points": ("cell_id", "count")})
    cid = agg["cell_id"].to_numpy(np.int64)
    tx = cid & ((1 << _PYR_ZMAX) - 1)
    ty = cid >> _PYR_ZMAX
    n = agg["n_points"].to_numpy(np.int64)
    frames = []
    for z in range(_PYR_ZMAX, _PYR_ZMIN - 1, -1):
        frames.append(pd.DataFrame({"z": np.full(len(tx), z, np.int64),
                                    "tx": tx, "ty": ty, "n_points": n}))
        if z > _PYR_ZMIN:
            df = (pd.DataFrame({"tx": tx >> 1, "ty": ty >> 1,
                                "n_points": n})
                  .groupby(["tx", "ty"], as_index=False)["n_points"].sum())
            tx = df["tx"].to_numpy(np.int64)
            ty = df["ty"].to_numpy(np.int64)
            n = df["n_points"].to_numpy(np.int64)
    out = pd.concat(frames, ignore_index=True)
    return _sorted_pdf(out, ["z", "tx", "ty"])
