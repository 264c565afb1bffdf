"""Scale hardening of semdedup_keep, plus the jsonl float round-trip
fix and the leakage-controlled split.

- semdedup_keep: oversized cells split via capped_bucket_pairs;
  forced-split parity against a driver recomputation of the same
  capped rule.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _oracle(qname, tables, sf=SF):
    from proj_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    return con.sql(QUERIES[qname]["sql"]).fetchdf()


# --- semdedup capped-cell split ---------------------------------------------


def _semdedup_driver_capped(sf, cap):
    """Independent driver recomputation of the capped SemDeDup rule:
    same centroids, same assignment, same capped candidate pairs, same
    dimension-ordered cosines — but all in one flat pass, no Ray."""
    from proj_ray.functions.vector import (capped_bucket_pairs,
                                           cosine_pairs_f64,
                                           hyperplane_signatures_f64,
                                           ivf_assign, kmeans_cosine)
    from proj_ray.pipelines.queries import (_SEM_EXT_LEVELS, _SEM_NCELLS,
                                            _SEM_TAU, _sem_ext_planes)

    con = duckdb.connect()
    sv = con.sql(f"SELECT embedding FROM '{sf}/embeddings.parquet' "
                 f"WHERE vec_id % 7 = 0 ORDER BY vec_id LIMIT 1024").fetchall()
    full = con.sql(f"SELECT vec_id, embedding FROM "
                   f"'{sf}/embeddings.parquet' ORDER BY vec_id").fetchall()
    con.close()
    S = np.array([list(r[0]) for r in sv], dtype=np.float32)
    C = kmeans_cosine(S, _SEM_NCELLS)
    vid = np.array([r[0] for r in full], dtype=np.int64)
    M = np.array([list(r[1]) for r in full], dtype=np.float32)
    cell = ivf_assign(M, C)
    kept = np.ones(len(vid), np.int64)
    for c in np.unique(cell):
        rows = np.flatnonzero(cell == c)  # vid-ascending already
        X = M[rows]
        m = len(rows)
        ext_cache = {}

        def get_ext(level, rr, X=X, ext_cache=ext_cache):
            if level not in ext_cache:
                ext_cache[level] = hyperplane_signatures_f64(
                    X, _sem_ext_planes(level))
            return ext_cache[level][rr]

        ia, ib = capped_bucket_pairs(np.arange(m, dtype=np.int64),
                                     np.zeros(m, np.int64),
                                     get_ext, _SEM_EXT_LEVELS, cap)
        if len(ia):
            cos = cosine_pairs_f64(X[ia], X[ib])
            kept[rows[ib[cos >= _SEM_TAU]]] = 0
    return pd.DataFrame({"vec_id": vid, "cell": cell.astype(np.int64),
                         "kept": kept}).sort_values("vec_id") \
        .reset_index(drop=True)


@pytest.mark.parametrize("cap", [4, 32])
def test_semdedup_forced_split_parity(ray_session, cap):
    """Forcing a tiny cap exercises the recursive extension-signature
    split; the distributed map_groups result must equal an independent
    flat driver recomputation of the identical capped rule."""
    from proj_ray.pipelines.queries import semdedup_keep

    got = semdedup_keep(SF, cap=cap).reset_index(drop=True)
    want = _semdedup_driver_capped(SF, cap)
    assert (got["vec_id"].to_numpy(np.int64)
            == want["vec_id"].to_numpy(np.int64)).all()
    assert (got["cell"].to_numpy(np.int64)
            == want["cell"].to_numpy(np.int64)).all()
    assert (got["kept"].to_numpy(np.int64)
            == want["kept"].to_numpy(np.int64)).all()


def test_semdedup_capped_is_keep_superset(ray_session):
    """Capping only removes comparisons, so it can only KEEP more."""
    from proj_ray.pipelines.queries import semdedup_keep

    full = semdedup_keep(SF, cap=1 << 30)
    capped = semdedup_keep(SF, cap=8)
    m = full.merge(capped, on="vec_id", suffixes=("_f", "_c"))
    assert (m["kept_c"].to_numpy() >= m["kept_f"].to_numpy()).all()


# --- jsonl precision -------------------------------------------------------


def test_jsonl_float64_roundtrip(ray_session, tmp_path):
    """The jsonl sink must round-trip float64 bit-exactly — polars'
    write_ndjson (shortest-exact repr) closes the advice-r4 gap where
    pandas to_json's 15-digit cap lost the last ulp on values like
    1/3."""
    import ray.data as rd

    from proj_ray.sources.jsonl import read_jsonl, write_jsonl_stage

    vals = np.array([1.0 / 3.0, 1e-17, 123456789.123456789, -np.pi],
                    dtype=np.float64)
    t = pa.table({"pid": pa.array(np.arange(4), pa.int64()),
                  "x": pa.array(vals, pa.float64())})
    out = str(tmp_path / "jl")
    write_jsonl_stage(rd.from_arrow(t), out, id_col="pid",
                      ts_cols=()).materialize()
    back = read_jsonl(out, ts_cols=()).to_pandas().sort_values("pid")
    got = back["x"].to_numpy(np.float64)
    assert np.array_equal(got, vals), (got, vals)


# --- leakage-controlled split -----------------------------------------------


def test_split_by_domain_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import split_by_domain

    got = split_by_domain(SF).reset_index(drop=True)
    want = _oracle("split_by_domain", ["documents"])
    assert list(got["split"]) == list(want["split"])
    for c in ("n_docs", "n_domains", "sum_chars"):
        assert (got[c].to_numpy(np.int64)
                == want[c].to_numpy(np.int64)).all(), c
    # leakage control: a domain appears in exactly one split
    assert int(got["n_domains"].sum()) == 50
    assert int(got["n_docs"].sum()) == 500  # sf0.001 documents rows
