"""Driver-contract checks for __ray_entry__: the queries()/oracle_sql()
registries stay consistent and every oracle SQL compiles against the
driver's registered views (catches a syntax slip before the gate)."""

import os
import sys

import duckdb
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()
SF = "/root/testdata/sf0.001"


def test_registry_consistency():
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    assert len(qs) >= 45
    assert set(sqls) <= set(qs)
    # everything is oracle-gated in this repo (no rows-only checks)
    assert set(sqls) == set(qs)
    for fn in qs.values():
        assert callable(fn)


def test_grid_shift_real_refuses_without_grid(monkeypatch, tmp_path):
    """Without ntf_r93.gsb the two real-grid queries raise up front
    instead of returning a full row count of inf lanes, and keep their
    golden oracle registered."""
    from proj_ray.pipelines import queries

    monkeypatch.setattr(queries, "_NTF_GRID", str(tmp_path / "ntf_r93.gsb"))
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    for name in ("grid_shift_real", "grid_shift_real_inv"):
        with pytest.raises(FileNotFoundError, match="ntf_r93.gsb"):
            qs[name](SF)
        assert name in sqls


def test_every_oracle_sql_compiles():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    for name, sql in entrymod.oracle_sql().items():
        try:
            con.sql(f"EXPLAIN {sql}")
        except Exception as e:  # pragma: no cover
            pytest.fail(f"oracle SQL for {name!r} does not compile: {e}")
    con.close()


def test_registry_fits_driver_window():
    """The correctness driver checks only the first 50 registrations, so
    the whole registry must fit in that window.  Every ``@query``
    registers a distinct name (a repeated name would silently replace
    the earlier entry), and ``queries()``/``oracle_sql()`` list names
    in registration order."""
    import ast

    from proj_ray.pipelines import queries

    QUERIES = queries.QUERIES
    names = list(entrymod.queries())
    assert len(names) <= 50
    with open(queries.__file__) as f:
        registered = [d.args[0].value for node in ast.parse(f.read()).body
                      for d in getattr(node, "decorator_list", [])
                      if isinstance(d, ast.Call)
                      and getattr(d.func, "id", None) == "query"]
    assert registered == names == list(QUERIES)
    assert list(entrymod.oracle_sql()) == [
        n for n in names if QUERIES[n]["sql"] is not None]
    for fn in entrymod.queries().values():
        assert callable(fn)


# the per-point queries whose oracle runs on the repo's own inputs (the
# two grid_shift_real* queries need the absent ntf_r93.gsb)
_POINT_QUERIES = (
    "points_webmerc", "points_utm", "points_lcc", "points_geocent",
    "helmert7_xyz", "webmerc_inverse", "tile_assign", "pip_join",
    "haversine_dist", "grid_shift_fwd", "catalog_datum_mix",
    "grid_shift_lla_compiled", "vertical_shift_gtx", "pm_shift_paris",
    "axis_units_km", "geod_line_interp", "geod_inverse_ellipsoidal")


def test_point_queries_match_oracle_sf001(ray_session):
    """Each per-point query's non-empty rows at sf0.01 equal its
    ``oracle_sql()`` through DuckDB, compared as ``tools/check_oracle.py``
    compares them (columns, row count, dtype kind and order-insensitive
    values)."""
    from tools.check_oracle import TABLES as ORACLE_TABLES
    from tools.check_oracle import compare, to_pandas

    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ORACLE_TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    bad = []
    for name in _POINT_QUERIES:
        got = to_pandas(qs[name](sf))
        want = con.sql(sqls[name]).fetchdf()
        if not len(want) or not compare(name, got, want):
            bad.append(name)
    con.close()
    assert not bad
