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


def _oracle_mismatches(names):
    """The queries of ``names`` whose rows at sf0.01 are empty or differ
    from their ``oracle_sql()`` through DuckDB, compared as
    ``tools/check_oracle.py`` compares them (columns, row count, dtype
    kind and order-insensitive values)."""
    from tools.check_oracle import TABLES as ORACLE_TABLES
    from tools.check_oracle import compare, to_pandas

    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ORACLE_TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    bad = []
    for name in names:
        got = to_pandas(qs[name](sf))
        want = con.sql(sqls[name]).fetchdf()
        if not len(want) or not compare(name, got, want):
            bad.append(name)
    con.close()
    return bad


def test_point_queries_match_oracle_sf001(ray_session):
    """Each per-point query's non-empty rows at sf0.01 equal its
    ``oracle_sql()`` through DuckDB."""
    assert not _oracle_mismatches(_POINT_QUERIES)


def test_index_and_cell_queries_match_oracle_sf001(ray_session):
    """The S2 cell queries and the four queries that read the Hilbert
    shard index (built once per process by the resumable writer) give
    their ``oracle_sql()`` rows at sf0.01."""
    assert not _oracle_mismatches((
        "s2_cell_agg", "s2_cell_center", "s2_shard_bbox", "knn_s2_pruned",
        "knn_s2_geodesic", "radius_geodesic"))


def test_catalog_datum_mix_leaves_no_temp_file(ray_session, tmp_path,
                                               monkeypatch):
    """The dated-catalog query writes its catalog CSV into the process's
    temporary root (removed at exit), not as a new file of the temp
    directory per call, and its points are shifted (a catalog it could
    not read would turn every lane into HUGE)."""
    import tempfile

    import numpy as np

    from tools.check_oracle import to_pandas

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    got = to_pandas(entrymod.queries()["catalog_datum_mix"](SF))
    assert not [f for f in os.listdir(tmp_path)
                if f.startswith("proj_ray_catalog_")]
    assert len(got) > 0
    assert np.isfinite(got[["lon_shifted", "lat_shifted"]].to_numpy()).all()
