"""Round-4 session-8 operators: distinct set ops (EXCEPT/INTERSECT), global ordinals + NTILE (stages/rank.py), CUBE
grouping sets, LAG month-over-month, iterative integer PageRank."""

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
# stages/rank.py: global ordinals + NTILE
# ---------------------------------------------------------------------------

def test_ntile_of_matches_sql_semantics():
    from proj_ray.stages.rank import ntile_of

    # NTILE sizes differ by at most one, larger tiles first
    for n, t in [(10, 4), (12, 4), (3, 4), (1, 1), (7, 3), (100, 7)]:
        tiles = ntile_of(np.arange(n), n, t)
        assert tiles.min() == 1 and tiles.max() == min(t, n)
        sizes = np.bincount(tiles)[1:]
        sizes = sizes[sizes > 0]
        assert sizes.max() - sizes.min() <= 1
        # larger tiles first, sizes non-increasing
        assert (np.diff(sizes) <= 0).all()
        # tiles are assigned in ordinal order (non-decreasing)
        assert (np.diff(tiles) >= 0).all()


def test_global_ordinals_multiblock(ray_session):
    """Ordinals from the sort + block-carry passes equal pandas
    groupby-rank on the same total order, across MANY blocks."""
    import ray.data

    from proj_ray.stages.rank import append_global_ordinals

    rng = np.random.RandomState(7)
    n = 5000
    df = pd.DataFrame({
        "seg": rng.choice(["A", "B", "C"], n),
        "val": rng.randint(-50, 50, n).astype(np.int64),
        "uid": np.arange(n, dtype=np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(23)
    with_ord, totals = append_global_ordinals(
        ds, key_col="seg", order_cols=["val"], unique_col="uid")
    got = with_ord.to_pandas().sort_values("uid").reset_index(drop=True)

    ref = df.sort_values(["seg", "val", "uid"]).reset_index(drop=True)
    ref["ordinal"] = ref.groupby("seg").cumcount()
    ref = ref.sort_values("uid").reset_index(drop=True)
    assert (got["ordinal"].to_numpy() == ref["ordinal"].to_numpy()).all()
    assert totals == df["seg"].value_counts().to_dict()


# ---------------------------------------------------------------------------
# set ops
# ---------------------------------------------------------------------------

def test_set_ops_partition_click_days(ray_session):
    """EXCEPT and INTERSECT partition the distinct click keys."""
    from proj_ray.pipelines.queries import (click_and_purchase_days,
                                            click_no_purchase_days)

    exc = click_no_purchase_days(SF)
    inter = click_and_purchase_days(SF)
    k_exc = set(zip(exc["user_id"], exc["day_idx"]))
    k_int = set(zip(inter["user_id"], inter["day_idx"]))
    assert not (k_exc & k_int)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    n_click = con.sql(
        "SELECT COUNT(*) FROM (SELECT DISTINCT user_id, "
        "CAST(floor(epoch_us(ts)/86400000000) AS BIGINT) FROM events "
        "WHERE event_type='click')").fetchone()[0]
    assert len(k_exc) + len(k_int) == n_click


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def test_pagerank_hand_graph(ray_session):
    """3-node path graph a-b-c, one iteration, checked by hand."""
    from proj_ray.stages.rank import ntile_of  # noqa: F401  (module import)

    # hand-replicate the driver branch's integer recurrence
    # nodes: a(deg1)-b(deg2)-c(deg1); pr0 = S for all
    S = 1_000_000_000
    base = S * 15 // 100
    # inflow: a <- b: S//2 ; b <- a + c: S + S ; c <- b: S//2
    exp = {
        "a": base + (S // 2) * 85 // 100,
        "b": base + (2 * S) * 85 // 100,
        "c": base + (S // 2) * 85 // 100,
    }
    # run the same math through numpy the way the driver branch does
    u = np.array([0, 1, 1, 2])  # edges (a-b, b-a, b-c, c-b) as u->v
    v = np.array([1, 0, 2, 1])
    deg = np.bincount(u, minlength=3).astype(np.int64)
    pr = np.full(3, S, np.int64)
    inflow = np.zeros(3, np.int64)
    np.add.at(inflow, v, pr[u] // deg[u])
    pr = base + inflow * 85 // 100
    assert pr[0] == exp["a"] and pr[1] == exp["b"] and pr[2] == exp["c"]


# ---------------------------------------------------------------------------
# CUBE / LAG derived levels
# ---------------------------------------------------------------------------

def test_cube_levels_consistent(ray_session):
    from proj_ray.pipelines.queries import events_type_dow_cube

    got = events_type_dow_cube(SF)
    fine = got[(got["event_type"] != "ALL") & (got["dow"] >= 0)]
    total = got[(got["event_type"] == "ALL") & (got["dow"] == -1)]
    assert len(total) == 1
    assert total["n_events"].iloc[0] == fine["n_events"].sum()
    assert total["sum_cents"].iloc[0] == fine["sum_cents"].sum()
    by_type = got[(got["event_type"] != "ALL") & (got["dow"] == -1)]
    assert by_type["n_events"].sum() == fine["n_events"].sum()


def test_month_growth_first_delta_is_level(ray_session):
    from proj_ray.pipelines.queries import priority_month_growth

    got = priority_month_growth(SF)
    firsts = got.groupby("priority").head(1)
    # first month per priority: delta == revenue (LAG default 0)
    assert (firsts["mom_delta_cents"].to_numpy()
            == firsts["rev_cents"].to_numpy()).all()
    # deltas telescope back to the last level per priority
    for p, g in got.groupby("priority"):
        assert g["mom_delta_cents"].sum() == g["rev_cents"].iloc[-1]


# ---------------------------------------------------------------------------
# Levenshtein kernel + fuzzy pair query
# ---------------------------------------------------------------------------

def _lev_ref(a, b):
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def test_levenshtein_pairs_vs_scalar():
    import random

    from proj_ray.functions.text import levenshtein_pairs

    rng = random.Random(11)
    A = ["".join(rng.choice("abcX#12 9") for _ in range(rng.randint(0, 9)))
         for _ in range(200)]
    B = ["".join(rng.choice("abcX#12 9") for _ in range(rng.randint(0, 9)))
         for _ in range(200)]
    got = levenshtein_pairs(A, B)
    want = np.array([_lev_ref(x, y) for x, y in zip(A, B)])
    assert (got == want).all()
    # empty-string edges
    assert list(levenshtein_pairs(["", "ab", ""], ["xy", "", ""])) == [2, 2, 0]


def test_brand_edit_pairs_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import brand_edit_pairs

    got = _sorted(brand_edit_pairs(SF), ["brand_a", "brand_b"])
    want = _sorted(_oracle("brand_edit_pairs", ["part"]),
                   ["brand_a", "brand_b"])
    assert len(got) == len(want)
    assert (got["dist"].to_numpy(np.int64)
            == want["dist"].to_numpy(np.int64)).all()
    assert (got["brand_a"].to_numpy() == want["brand_a"].to_numpy()).all()


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
# windowed dedup
# ---------------------------------------------------------------------------

def test_dedup_events_window_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import dedup_events_window

    got = _sorted(dedup_events_window(SF), ["event_id"])
    want = _sorted(_oracle("dedup_events_window", ["events"]), ["event_id"])
    assert len(got) == len(want)
    assert (got["event_id"].to_numpy(np.int64)
            == want["event_id"].to_numpy(np.int64)).all()
    # keys are unique after dedup and every key of the input survives once
    keys = list(zip(got["user_id"], got["event_type"], got["win"]))
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# skew-split join
# ---------------------------------------------------------------------------

def test_skew_split_join_forced_paths_agree(ray_session):
    """all-broadcast, all-shuffle and the hot/cold split produce the
    identical joined rows."""
    from proj_ray.pipelines.queries import skew_split_join

    a = _sorted(skew_split_join(SF, path="all_hot"), ["event_id"])
    b = _sorted(skew_split_join(SF, path="all_cold"), ["event_id"])
    c = _sorted(skew_split_join(SF, hot_k=7), ["event_id"])  # true split
    assert len(a) == len(b) == len(c) and len(a) > 0
    for col in ("event_id", "user_id", "acctbal_cents"):
        assert (a[col].to_numpy(np.int64) == b[col].to_numpy(np.int64)).all()
        assert (a[col].to_numpy(np.int64) == c[col].to_numpy(np.int64)).all()


# ---------------------------------------------------------------------------
# bucket_aggregate: the high-cardinality groupby primitive
# ---------------------------------------------------------------------------

def test_bucket_aggregate_matches_ray_groupby(ray_session):
    """bucket_aggregate == Ray groupby().aggregate() on the same input,
    for sum/min/max/count, multi-column and string keys."""
    import ray.data
    from ray.data.aggregate import Count, Max, Min, Sum

    from proj_ray.stages.agg import bucket_aggregate

    rng = np.random.RandomState(3)
    n = 20_000
    df = pd.DataFrame({
        "k1": rng.randint(0, 4000, n).astype(np.int64),
        "k2": rng.choice(["x", "y", "z"], n),
        "v": rng.randint(-100, 100, n).astype(np.int64),
    })
    # a null key group must survive (Ray's aggregate keeps it)
    df.loc[df.index[:25], "k2"] = None
    ds = ray.data.from_pandas(df).repartition(13).materialize()
    got = bucket_aggregate(ds, ["k1", "k2"],
                           {"s": ("v", "sum"), "lo": ("v", "min"),
                            "hi": ("v", "max"), "cnt": "count"}) \
        .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    want = ds.groupby(["k1", "k2"]).aggregate(
        Sum("v", alias_name="s"), Min("v", alias_name="lo"),
        Max("v", alias_name="hi"), Count(alias_name="cnt")) \
        .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    assert len(got) == len(want)
    for c in ("k1", "s", "lo", "hi", "cnt"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert (pd.Series(got["k2"]).fillna("<null>").to_numpy()
            == pd.Series(want["k2"]).fillna("<null>").to_numpy()).all()


def test_lineitem_unpivot_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import lineitem_unpivot_stats

    got = _sorted(lineitem_unpivot_stats(SF), ["measure"])
    want = _sorted(_oracle("lineitem_unpivot_stats", ["lineitem"]),
                   ["measure"])
    assert list(got["measure"]) == list(want["measure"])
    for c in ("n", "sum_cents", "min_cents", "max_cents"):
        assert (got[c].to_numpy(np.int64)
                == want[c].to_numpy(np.int64)).all(), c
