"""The flagship job against an independent DuckDB twin on sf0.001: the
per-(z4 cell, polygon) aggregate, the point stream and the page
fan-out; the aggregate's dtypes on zero keys; and the page text against
``synth_pages_batch`` and printf."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from proj_ray.pipelines.derive import lonlat_sql
from proj_ray.pipelines.flagship import (FLAGSHIP_POLYGONS, flagship_pipeline,
                                         flagship_points)
from proj_ray.pipelines.queries import _R

SF = "/root/testdata/sf0.001"
ZOOM, AGG_ZOOM = 12, 4
AGG_COLS = ["parent_cell", "polygon_id", "n_points", "min_pid"]


def _twin(con, mult: int) -> None:
    """Creates table ``joined(pid, tx, ty, polygon_id)``: one row per
    (page, containing polygon). pid is not unique, so the even-odd test
    runs over distinct points and joins back to every page row."""
    lon_sql, lat_sql = lonlat_sql("pid")
    edges = []
    for poly_id, ring in FLAGSHIP_POLYGONS:  # queries._pip_sql's edges
        jj = len(ring) - 1
        for i in range(len(ring)):
            (xi, yi), (xj, yj) = ring[i], ring[jj]
            edges.append(f"('{poly_id}', {_R(xi)}, {_R(yi)}, {_R(xj)}, {_R(yj)})")
            jj = i
    n = _R(1 << ZOOM)
    con.register("lineitem", pq.read_table(f"{SF}/lineitem.parquet",
                                           columns=["l_orderkey", "l_linenumber"]))
    con.execute(f"""
        CREATE TEMP TABLE joined AS
        WITH pages AS (
          SELECT (l_orderkey * 10 + l_linenumber) * {mult} + r.k AS pid
          FROM lineitem CROSS JOIN range({mult}) AS r(k)
        ),
        pts AS (SELECT DISTINCT pid, {lon_sql} AS lon, {lat_sql} AS lat FROM pages),
        edges(polygon_id, xi, yi, xj, yj) AS (VALUES {", ".join(edges)}),
        inside AS (
          SELECT p.pid, e.polygon_id FROM pts p JOIN edges e
            ON ((e.yi > p.lat) != (e.yj > p.lat))
           AND p.lon < (e.xj - e.xi) * (p.lat - e.yi) / (e.yj - e.yi) + e.xi
          GROUP BY p.pid, e.polygon_id HAVING COUNT(*) % 2 = 1
        ),
        cells AS (
          SELECT pid,
            CAST(least(greatest(floor(((lon + 180.0e0) / 360.0e0) * {n}), 0.0e0),
                       {n} - 1.0e0) AS BIGINT) AS tx,
            CAST(least(greatest(floor(((1.0e0 - ln(tan({_R(np.pi / 4.0)}
                   + (lat * {_R(np.pi / 180.0)}) / 2.0e0)) / {_R(np.pi)}) / 2.0e0)
                   * {n}), 0.0e0), {n} - 1.0e0) AS BIGINT) AS ty
          FROM pts
        )
        SELECT pid, c.tx, c.ty, i.polygon_id
        FROM pages JOIN inside i USING (pid) JOIN cells c USING (pid)""")


def _twin_agg(mult: int) -> pd.DataFrame:
    con = duckdb.connect()
    _twin(con, mult)
    d = ZOOM - AGG_ZOOM
    return con.execute(f"""
        SELECT ((ty // {1 << d}) << {AGG_ZOOM}) | (tx // {1 << d}) AS parent_cell,
               polygon_id, COUNT(*) AS n_points, MIN(pid) AS min_pid
        FROM joined GROUP BY ALL ORDER BY parent_cell, polygon_id""").df()


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys, ignore_index=True)


@pytest.mark.parametrize("mult", [1, 2])
def test_flagship_pipeline_matches_twin(ray_session, mult):
    got = flagship_pipeline(SF, mult=mult)
    ref = _twin_agg(mult)
    assert list(got.columns) == AGG_COLS
    assert len(ref) > 20 and ref["n_points"].sum() > 500
    pd.testing.assert_frame_equal(
        _sorted(got, ["parent_cell", "polygon_id"]),
        _sorted(ref.astype({"parent_cell": "int64", "n_points": "int64",
                            "min_pid": "int64", "polygon_id": object}),
                ["parent_cell", "polygon_id"]))


def test_flagship_points_schema_and_rows(ray_session):
    got = pa.concat_tables(flagship_points(SF).iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert got.schema == pa.schema([("pid", pa.int64()), ("cell_id", pa.int64()),
                                    ("polygon_id", pa.string())])
    con = duckdb.connect()
    _twin(con, 1)
    ref = con.execute(f"""SELECT pid, (ty << {ZOOM}) | tx AS cell_id, polygon_id
                          FROM joined""").df()
    assert got.num_rows == len(ref)
    keys = ["pid", "cell_id", "polygon_id"]
    pd.testing.assert_frame_equal(_sorted(got.to_pandas(), keys),
                                  _sorted(ref.astype({"polygon_id": object}), keys))


def test_flagship_pipeline_zero_keys_dtypes(ray_session, tmp_path):
    pq.write_table(pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "l_linenumber": pa.array([], pa.int32())}),
                   tmp_path / "lineitem.parquet")
    got = flagship_pipeline(str(tmp_path))
    assert len(got) == 0
    assert list(got.columns) == AGG_COLS
    assert got.dtypes.to_dict() == {"parent_cell": np.dtype("int64"),
                                    "polygon_id": np.dtype(object),
                                    "n_points": np.dtype("int64"),
                                    "min_pid": np.dtype("int64")}


def _printf_text(pid, base):
    return [f"{b} Coordinates: ({(p * 7919 % 16000 - 8000) / 100:.2f}, "
            f"{(p * 104729 % 36000 - 18000) / 100:.2f})"
            for p, b in zip(pid.tolist(), base)]


def test_page_text_matches_synth_pages_batch():
    from proj_ray.stages.geoparse import page_text, synth_pages_batch

    pid = np.arange(50_000, dtype=np.int64)
    lat_centi = pid * 7919 % 16000 - 8000
    lon_centi = pid * 104729 % 36000 - 18000
    # pid 0, negative coordinates, and '-0.xx' on both axes
    assert pid[0] == 0
    assert ((lat_centi > -100) & (lat_centi < 0)).any()
    assert ((lon_centi > -100) & (lon_centi < 0)).any()
    # every lat and lon centi-value is reached (gcd(7919, 16000) =
    # gcd(104729, 36000) = 1), so the printf comparison below covers every
    # entry of page_text's coordinate tables
    assert np.unique(lat_centi).size == 16_000
    assert np.unique(lon_centi).size == 36_000
    plain = page_text(pid)
    assert plain.equals(synth_pages_batch(pa.table({"pid": pid}), "pid")["text"]
                        .combine_chunks())
    assert plain.to_pylist() == _printf_text(pid, [""] * pid.size)

    words = pa.array([None, "", "page", "héllo wörld"] * (pid.size // 4))
    based = page_text(pid, pc.fill_null(words, ""))
    assert based.equals(synth_pages_batch(pa.table({"pid": pid, "t": words}), "pid",
                                          text_col="t")["text"].combine_chunks())
    assert based.to_pylist() == _printf_text(pid, pc.fill_null(words, "").to_pylist())

    empty = np.array([], np.int64)
    for got in (page_text(empty), page_text(empty, pa.array([], pa.string()))):
        assert got.type == pa.string() and len(got) == 0


def test_flagship_pages_are_pid_and_synth_text(ray_session):
    from proj_ray.pipelines.flagship import pages_dataset
    from proj_ray.stages.geoparse import synth_pages_batch

    pages = pa.concat_tables(pages_dataset(SF).iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert pages.column_names == ["pid", "text"]
    assert pages.num_rows == pq.read_metadata(f"{SF}/lineitem.parquet").num_rows
    ref = synth_pages_batch(pages.select(["pid"]), "pid")
    assert pages["text"].equals(ref["text"])
