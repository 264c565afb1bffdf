"""Round-5 session-18: the Q15 top-supplier TPC-H shape plus the
schema-stable ``bucket_hash_join`` the TPC-H shapes ride on (Ray 2.49's
builtin join drops the schema of empty hash partitions, crashing on
sparse sides)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _oracle(qname, tables):
    from proj_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.sql(QUERIES[qname]["sql"]).fetchdf()


def _frames_equal(got, want):
    g = got.sort_values(sorted(got.columns)).reset_index(drop=True)[
        sorted(got.columns)]
    w = want.sort_values(sorted(want.columns)).reset_index(drop=True)[
        sorted(want.columns)]
    assert list(g.columns) == list(w.columns)
    assert len(g) == len(w)
    for c in g.columns:
        assert np.array_equal(g[c].to_numpy(), w[c].to_numpy()), c


# ---------------------------------------------------------------- hash join

def test_bucket_hash_join_matches_pandas_merge(ray_session):
    import ray.data

    from proj_ray.stages.hashjoin import bucket_hash_join

    rng = np.random.RandomState(0)
    L = pd.DataFrame({
        "k": rng.randint(0, 50, 2000).astype(np.int64),
        "a": rng.randn(2000),
        "t": (pd.to_datetime("2020-01-01")
              + pd.to_timedelta(rng.randint(0, 100, 2000), unit="D"))})
    R = pd.DataFrame({
        "rk": rng.randint(0, 50, 300).astype(np.int64),
        "b": rng.randint(-5, 5, 300).astype(np.int64)})
    got = bucket_hash_join(ray.data.from_pandas(L).repartition(7),
                           ray.data.from_pandas(R).repartition(5),
                           ["k"], ["rk"]).to_pandas()
    want = L.merge(R, left_on="k", right_on="rk",
                   how="inner").drop(columns=["rk"])
    _frames_equal(got, want)
    # dtype preservation through the shuffle (the driver hash is
    # dtype-sensitive): int64 payload must NOT come back float64
    assert got["b"].dtype == np.int64
    assert got["k"].dtype == np.int64


def test_bucket_hash_join_sparse_and_empty_sides(ray_session):
    """The raison d'être: Ray's builtin join ArrowInvalid-crashes when a
    hash partition receives zero blocks from one side (sparse dims)."""
    import ray.data

    from proj_ray.stages.hashjoin import bucket_hash_join

    rng = np.random.RandomState(1)
    L = pd.DataFrame({"k": rng.randint(0, 50, 2000).astype(np.int64),
                      "a": rng.randn(2000)})
    lds = ray.data.from_pandas(L).repartition(7)
    # 3-row right side spread over 6 blocks: most hash partitions empty
    R = pd.DataFrame({"rk": np.array([1, 2, 3], np.int64),
                      "b": np.array([10, 20, 30], np.int64)})
    got = bucket_hash_join(lds, ray.data.from_pandas(R).repartition(6),
                           ["k"], ["rk"]).to_pandas()
    want = L.merge(R, left_on="k", right_on="rk",
                   how="inner").drop(columns=["rk"])
    _frames_equal(got, want)
    # fully empty side -> empty result, no crash
    got0 = bucket_hash_join(lds, ray.data.from_pandas(R.iloc[:0]),
                            ["k"], ["rk"]).to_pandas()
    assert len(got0) == 0


def test_bucket_hash_join_multi_key_and_chained(ray_session):
    """Multi-column keys; and the output of one join feeding another
    join through a map_batches projection (the select_columns Project
    pushdown footgun documented in stages/hashjoin.py)."""
    import ray.data

    from proj_ray.stages.hashjoin import bucket_hash_join

    rng = np.random.RandomState(2)
    L = pd.DataFrame({"k1": rng.randint(0, 5, 500).astype(np.int64),
                      "k2": rng.choice(["x", "y"], 500),
                      "v": rng.randn(500)})
    R = pd.DataFrame({"k1": rng.randint(0, 5, 40).astype(np.int64),
                      "k2": rng.choice(["x", "y"], 40),
                      "w": rng.randint(0, 9, 40).astype(np.int64)})
    got = bucket_hash_join(ray.data.from_pandas(L).repartition(3),
                           ray.data.from_pandas(R).repartition(3),
                           ["k1", "k2"]).to_pandas()
    want = L.merge(R, on=["k1", "k2"], how="inner")
    _frames_equal(got, want)

    # chained: join1 output (projected via map_batches) joins again
    A = pd.DataFrame({"o": np.arange(100, dtype=np.int64),
                      "c": np.arange(100, dtype=np.int64) % 10})
    B = pd.DataFrame({"ck": np.arange(5, dtype=np.int64),
                      "n": np.arange(5, dtype=np.int64) + 50})
    oc = (bucket_hash_join(ray.data.from_pandas(A).repartition(4),
                           ray.data.from_pandas(B).repartition(3),
                           ["c"], ["ck"])
          .map_batches(lambda df: df[["o", "n"]],
                       batch_format="pandas", batch_size=None)
          .materialize())
    C = pd.DataFrame({"lo": np.arange(100, dtype=np.int64),
                      "vol": np.ones(100, np.int64)})
    got2 = bucket_hash_join(ray.data.from_pandas(C).repartition(4), oc,
                            ["lo"], ["o"]).to_pandas()
    want2 = C.merge(
        A.merge(B, left_on="c", right_on="ck")[["o", "n"]],
        left_on="lo", right_on="o").drop(columns=["o"])
    _frames_equal(got2, want2)


def test_bucket_hash_join_dtype_drift_and_null_payload(ray_session):
    """Two latent-defect pins: (1) a float64-drifted key column must
    still bucket with the int64 side (hash_pandas_object is
    dtype-sensitive, so keys hash as the LEFT side's dtype); (2) a
    bucket whose string payload is matched all-null must not re-infer
    a `null`-typed column (output schema is pinned explicitly)."""
    import pyarrow as pa
    import ray.data

    from proj_ray.stages.hashjoin import bucket_hash_join

    L = pd.DataFrame({"k": np.array([1, 2, 3, 4] * 25, np.int64),
                      "a": np.arange(100, dtype=np.int64)})
    # right key drifted to float64 (e.g. through a null-bearing pandas
    # round-trip upstream) — values still integral
    R = pd.DataFrame({"rk": np.array([1.0, 3.0], np.float64),
                      "b": np.array([10, 30], np.int64)})
    got = bucket_hash_join(ray.data.from_pandas(L).repartition(4),
                           ray.data.from_pandas(R).repartition(2),
                           ["k"], ["rk"]).to_pandas()
    want = L.merge(R, left_on="k", right_on="rk",
                   how="inner").drop(columns=["rk"])
    assert len(got) == len(want) == 50

    # all-null string payload in the matched rows
    R2 = pd.DataFrame({"rk": np.array([1, 2], np.int64),
                       "s": pd.Series([None, None], dtype=object)})
    j = bucket_hash_join(ray.data.from_pandas(L).repartition(4),
                         ray.data.from_pandas(R2).repartition(2),
                         ["k"], ["rk"]).materialize()
    types = {str(b.schema.field("s").type)
             for b in j.iter_batches(batch_size=None,
                                     batch_format="pyarrow")}
    assert types <= {"string", "large_string"}, types
    assert j.count() == 50


def test_bucket_hash_join_how_variants(ray_session):
    """left_outer / left_semi / left_anti against pandas ground truth,
    dense and sparse (1-row) right sides."""
    import ray.data

    from proj_ray.stages.hashjoin import bucket_hash_join

    rng = np.random.RandomState(7)
    L = pd.DataFrame({"k": rng.randint(0, 40, 1000).astype(np.int64),
                      "a": rng.randn(1000)})
    R = pd.DataFrame({"rk": rng.randint(20, 60, 80).astype(np.int64),
                      "b": rng.randint(-5, 5, 80).astype(np.int64)})
    lds = ray.data.from_pandas(L).repartition(5)
    rds = ray.data.from_pandas(R).repartition(4)

    def norm(df, cols):
        return df[cols].sort_values(cols).reset_index(drop=True)

    got = bucket_hash_join(lds, rds, ["k"], ["rk"],
                           how="left_outer").to_pandas()
    want = L.merge(R, left_on="k", right_on="rk",
                   how="left").drop(columns=["rk"])
    g, w = norm(got, ["k", "a", "b"]), norm(want, ["k", "a", "b"])
    assert len(g) == len(w)
    for c in ("k", "a", "b"):
        assert np.array_equal(g[c].to_numpy(), w[c].to_numpy(),
                              equal_nan=(g[c].dtype == float)), c

    got = bucket_hash_join(lds, rds, ["k"], ["rk"],
                           how="left_semi").to_pandas()
    assert norm(got, ["k", "a"]).equals(
        norm(L[L["k"].isin(R["rk"])], ["k", "a"]))

    got = bucket_hash_join(lds, rds, ["k"], ["rk"],
                           how="left_anti").to_pandas()
    assert norm(got, ["k", "a"]).equals(
        norm(L[~L["k"].isin(R["rk"])], ["k", "a"]))

    # sparse right side (most hash partitions see no right rows)
    R1 = pd.DataFrame({"rk": np.array([5], np.int64),
                       "b": np.array([1], np.int64)})
    rds1 = ray.data.from_pandas(R1).repartition(4)
    n5 = int((L["k"] == 5).sum())
    for how, wantlen in [("inner", n5), ("left_outer", len(L)),
                         ("left_semi", n5), ("left_anti", len(L) - n5)]:
        assert bucket_hash_join(lds, rds1, ["k"], ["rk"],
                                how=how).count() == wantlen, how

    with pytest.raises(ValueError):
        bucket_hash_join(lds, rds, ["k"], ["rk"], how="right_outer")


# ---------------------------------------------------------------- q-pack


def test_q15_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import q15_top_supplier

    got = q15_top_supplier(SF)
    want = _oracle("q15_top_supplier", ["lineitem", "supplier"])
    _frames_equal(got, want)
    assert len(got) >= 1  # at least one winner


def test_suppliers_no_recent_sales_both_paths(ray_session):
    from proj_ray.pipelines.queries import suppliers_no_recent_sales

    want = _oracle("suppliers_no_recent_sales", ["supplier", "lineitem"])
    for path in ("broadcast", "join"):
        got = suppliers_no_recent_sales(SF, path=path)
        _frames_equal(got, want)
    assert len(want) >= 1  # the cutoff leaves idle suppliers at sf0.001


def test_parts_with_large_orders_both_paths(ray_session):
    from proj_ray.pipelines.queries import parts_with_large_orders

    want = _oracle("parts_with_large_orders", ["part", "lineitem"])
    for path in ("broadcast", "join"):
        _frames_equal(parts_with_large_orders(SF, path=path), want)
    # neither trivial nor all-covering: a real subset of the part dim
    assert 0 < len(want) < 200


def test_acctbal_percent_rank_bitwise(ray_session):
    """pr = count_less/(n-1) must be BIT-identical to PERCENT_RANK:
    same integer division operands, same double op."""
    from proj_ray.pipelines.queries import acctbal_percent_rank

    got = acctbal_percent_rank(SF)
    want = _oracle("acctbal_percent_rank", ["customer"])
    _frames_equal(got, want)
    assert got["pr"].dtype == np.float64
    # ties share a pr; min is 0, max is (n-k)/(n-1) <= 1
    assert got["pr"].min() == 0.0 and got["pr"].max() <= 1.0


def test_returnflag_corr_bitwise(ray_session):
    from proj_ray.pipelines.queries import returnflag_qty_discount_corr

    got = returnflag_qty_discount_corr(SF)
    want = _oracle("returnflag_qty_discount_corr", ["lineitem"])
    _frames_equal(got, want)
    # correlations are genuine values in (-1, 1), not degenerate
    assert (np.abs(got["corr_qd"].to_numpy()) < 1.0).all()


def test_nation_customer_csv_byte_exact(ray_session):
    from proj_ray.pipelines.queries import nation_customer_csv

    got = nation_customer_csv(SF)
    want = _oracle("nation_customer_csv", ["customer"])
    _frames_equal(got, want)
    # the CSV really is in custkey order and covers every customer
    assert int(got["n_custs"].sum()) == 150
