"""Label centroids, token co-occurrence and the bucket_aggregate
groupby primitive."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _sorted(df, by):
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    return df.sort_values(by).reset_index(drop=True)


def _oracle(qname, tables):
    from proj_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.sql(QUERIES[qname]["sql"]).fetchdf()


# ---------------------------------------------------------------------------
# vector centroid aggregate + token co-occurrence
# ---------------------------------------------------------------------------

def test_label_centroids_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import label_centroids

    got = _sorted(label_centroids(SF), ["label", "dim"])
    want = _sorted(_oracle("label_centroids", ["embeddings"]),
                   ["label", "dim"])
    assert len(got) == len(want)
    for col in ("n", "qsum"):
        assert (got[col].to_numpy(np.int64)
                == want[col].to_numpy(np.int64)).all(), col
    # the division is a single IEEE op: bit-identical, not just close
    assert (got["centroid_q"].to_numpy(np.float64)
            == want["centroid_q"].to_numpy(np.float64)).all()


def test_token_cooccurrence_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import token_cooccurrence

    got = _sorted(token_cooccurrence(SF), ["w1", "w2"])
    want = _sorted(_oracle("token_cooccurrence", ["documents"]),
                   ["w1", "w2"])
    assert len(got) == len(want)
    assert (got["n_cooc"].to_numpy(np.int64)
            == want["n_cooc"].to_numpy(np.int64)).all()
    # total pair mass equals sum over docs of (L-1) + (L-2)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    mass = con.sql(
        "SELECT SUM(greatest(len(regexp_extract_all(text, '\\S+')) - 1, 0)"
        " + greatest(len(regexp_extract_all(text, '\\S+')) - 2, 0)) "
        "FROM documents").fetchone()[0]
    assert got["n_cooc"].sum() == mass


# ---------------------------------------------------------------------------
# bucket_aggregate: the high-cardinality groupby primitive
# ---------------------------------------------------------------------------

def test_bucket_aggregate_matches_ray_groupby(ray_session):
    """bucket_aggregate == pandas groupby(dropna=False).agg() on the
    same input, for sum/min/max/count, multi-column and string keys,
    and a null key group.  Ray's own groupby is not the reference: its
    sort-based shuffle compares sampled key boundaries, and a boundary
    that lands on the null key raises TypeError (None < str)."""
    import ray.data

    from proj_ray.stages.agg import bucket_aggregate

    rng = np.random.RandomState(3)
    n = 20_000
    df = pd.DataFrame({
        "k1": rng.randint(0, 4000, n).astype(np.int64),
        "k2": rng.choice(["x", "y", "z"], n),
        "v": rng.randint(-100, 100, n).astype(np.int64),
    })
    # a null key group must survive (Ray's aggregate keeps it, and so
    # does pandas with dropna=False)
    df.loc[df.index[:25], "k2"] = None
    ds = ray.data.from_pandas(df).repartition(13).materialize()
    got = bucket_aggregate(ds, ["k1", "k2"],
                           {"s": ("v", "sum"), "lo": ("v", "min"),
                            "hi": ("v", "max"), "cnt": "count"}) \
        .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    want = df.groupby(["k1", "k2"], dropna=False).agg(
        s=("v", "sum"), lo=("v", "min"), hi=("v", "max"),
        cnt=("v", "size")) \
        .reset_index().sort_values(["k1", "k2"]).reset_index(drop=True)
    assert len(got) == len(want)
    for c in ("k1", "s", "lo", "hi", "cnt"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert (pd.Series(got["k2"]).fillna("<null>").to_numpy()
            == pd.Series(want["k2"]).fillna("<null>").to_numpy()).all()
