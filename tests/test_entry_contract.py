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
