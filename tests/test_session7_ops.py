"""Raster focal stencil, left-outer enrichment join with zero-fill,
weighted (sequential-Poisson) sampling, the event-hour pivot, raster
warp, the signup-to-purchase funnel and retention cohorts."""

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
# raster_focal_mean
# ---------------------------------------------------------------------------

def test_raster_focal_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import raster_focal_mean

    got = _sorted(raster_focal_mean(SF), ["r", "c"])
    want = _sorted(_oracle("raster_focal_mean", ["lineitem"]), ["r", "c"])
    assert len(got) == len(want)
    for col in ["r", "c", "n", "focal_sum", "focal_cnt"]:
        assert (got[col].to_numpy(np.int64)
                == want[col].to_numpy(np.int64)).all(), col


def test_raster_focal_invariants(ray_session):
    from proj_ray.pipelines.queries import raster_focal_mean

    df = raster_focal_mean(SF)
    # the window includes the cell itself
    assert (df["focal_cnt"] >= 1).all()
    assert (df["focal_cnt"] <= 9).all()
    assert (df["focal_sum"] >= df["n"]).all()
    # an isolated cell's focal stats are its own
    solo = df[df["focal_cnt"] == 1]
    assert (solo["focal_sum"] == solo["n"]).all()


def test_focal_stencil_small_grid():
    """Hand-checked 3x3 stencil on a tiny synthetic grid (pure kernel
    logic, no Ray): two adjacent cells + one isolated."""
    grid = np.zeros((4, 5), np.int64)
    grid[1, 1] = 10
    grid[1, 2] = 5
    grid[3, 4] = 7
    occ = grid > 0
    pg = np.pad(grid, 1)
    po = np.pad(occ.astype(np.int64), 1)
    fs = np.zeros_like(grid)
    fc = np.zeros_like(grid)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            fs += pg[dr:dr + 4, dc:dc + 5]
            fc += po[dr:dr + 4, dc:dc + 5]
    assert fs[1, 1] == 15 and fc[1, 1] == 2
    assert fs[1, 2] == 15 and fc[1, 2] == 2
    assert fs[3, 4] == 7 and fc[3, 4] == 1


# ---------------------------------------------------------------------------
# customer_order_stats (left outer join + zero fill)
# ---------------------------------------------------------------------------

def test_customer_order_stats_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import customer_order_stats

    got = _sorted(customer_order_stats(SF), ["c_custkey"])
    want = _sorted(_oracle("customer_order_stats", ["customer", "orders"]),
                   ["c_custkey"])
    assert len(got) == len(want)
    assert (got["c_custkey"].to_numpy(np.int64)
            == want["c_custkey"].to_numpy(np.int64)).all()
    assert (got["c_mktsegment"].to_numpy()
            == want["c_mktsegment"].to_numpy()).all()
    for col in ["n_orders", "sum_price_cents"]:
        assert (got[col].to_numpy(np.int64)
                == want[col].to_numpy(np.int64)).all(), col


def test_customer_order_stats_keeps_orderless(ray_session):
    """LEFT semantics: every customer appears exactly once, and the
    orderless third of TPC-H custkeys carries zero-filled aggregates."""
    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import customer_order_stats

    df = customer_order_stats(SF).to_pandas()
    ncust = pq.read_metadata(f"{SF}/customer.parquet").num_rows
    assert len(df) == ncust
    assert df["c_custkey"].is_unique
    # orderless customers (may be zero in the synthetic sf0.001 table —
    # pin the count to the SQL side rather than assuming TPC-H's third)
    con = duckdb.connect()
    n_orderless = con.sql(
        f"""SELECT COUNT(*) FROM '{SF}/customer.parquet' c
            WHERE NOT EXISTS (SELECT 1 FROM '{SF}/orders.parquet' o
                              WHERE o.o_custkey = c.c_custkey)"""
    ).fetchone()[0]
    orderless = df[df["n_orders"] == 0]
    assert len(orderless) == n_orderless
    assert (orderless["sum_price_cents"] == 0).all()
    assert int(df["n_orders"].sum()) == \
        pq.read_metadata(f"{SF}/orders.parquet").num_rows


def test_customer_order_stats_path_parity(ray_session):
    """The broadcast (dispatch default at this scale) and distributed
    left_outer join branches produce identical frames."""
    from proj_ray.pipelines.queries import customer_order_stats

    a = _sorted(customer_order_stats(SF, path="broadcast"), ["c_custkey"])
    b = _sorted(customer_order_stats(SF, path="join"), ["c_custkey"])
    pd.testing.assert_frame_equal(a, b)


def test_left_outer_zero_fill_path(ray_session, tmp_path):
    """Force the zero-fill branch: a customer table with keys no order
    references must come back with n_orders = 0, not dropped or null."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_mktsegment": pa.array(["A", "B", "A"]),
    }), sf / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1], pa.int64()),
        "o_totalprice": pa.array([10.00, 2.50], pa.float64()),
    }), sf / "orders.parquet")

    from proj_ray.pipelines.queries import customer_order_stats

    df = _sorted(customer_order_stats(str(sf)), ["c_custkey"])
    assert df["n_orders"].tolist() == [2, 0, 0]
    assert df["sum_price_cents"].tolist() == [1250, 0, 0]


# ---------------------------------------------------------------------------
# weighted_sample_topk (sequential Poisson sampling)
# ---------------------------------------------------------------------------

def test_weighted_sample_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import weighted_sample_topk

    got = weighted_sample_topk(SF)
    want = _oracle("weighted_sample_topk", ["documents"])
    assert len(got) == len(want)
    assert (got["doc_id"].to_numpy(np.int64)
            == want["doc_id"].to_numpy(np.int64)).all()
    assert (got["n_chars"].to_numpy(np.int64)
            == want["n_chars"].to_numpy(np.int64)).all()
    # single IEEE division on both sides -> bitwise equal priorities
    assert (got["priority"].to_numpy(np.float64)
            == want["priority"].to_numpy(np.float64)).all()


def test_weighted_sample_determinism_and_bias(ray_session):
    """Stable across runs; long documents are over-represented relative
    to a uniform draw (the point of weight-proportional sampling)."""
    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import _WS_K, weighted_sample_topk

    a = weighted_sample_topk(SF)
    b = weighted_sample_topk(SF)
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert len(a) == _WS_K
    # priorities ascend (it IS the k smallest)
    pr = a["priority"].to_numpy()
    assert (np.diff(pr) >= 0).all()
    corpus = pq.read_table(f"{SF}/documents.parquet",
                           columns=["n_chars"]).to_pandas()
    mean_all = corpus.loc[corpus["n_chars"] > 0, "n_chars"].mean()
    assert a["n_chars"].mean() > mean_all


# ---------------------------------------------------------------------------
# OLAP surface: pivot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("qname,keys,tables", [
    ("events_type_hour_pivot", ["hour_of_day"], ["events"]),
])
def test_olap_queries_match_oracle(ray_session, qname, keys, tables):
    from proj_ray.pipelines.queries import QUERIES

    got = _sorted(QUERIES[qname]["fn"](SF), keys)
    want = _sorted(_oracle(qname, tables), keys)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for col in got.columns:
        g, w = got[col].to_numpy(), want[col].to_numpy()
        if g.dtype.kind in "iu":
            assert (g == w.astype(np.int64)).all(), col
        else:
            assert (g == w).all(), col


def test_pivot_row_sums(ray_session):
    from proj_ray.pipelines.queries import _EVT_TYPES, events_type_hour_pivot

    df = events_type_hour_pivot(SF)
    assert (df["n_total"].to_numpy()
            == sum(df[f"n_{t}"].to_numpy() for t in _EVT_TYPES)).all()
    assert df["hour_of_day"].between(0, 23).all()


# ---------------------------------------------------------------------------
# raster_warp (raster -> raster reprojection resample)
# ---------------------------------------------------------------------------

def test_raster_warp_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import raster_warp

    got = _sorted(raster_warp(SF), ["tr", "tc"])
    want = _sorted(_oracle("raster_warp", ["lineitem"]), ["tr", "tc"])
    assert len(got) == len(want)
    for col in ["tr", "tc", "sr", "sc", "n"]:
        assert (got[col].to_numpy(np.int64)
                == want[col].to_numpy(np.int64)).all(), col


def test_raster_warp_mapping_properties(ray_session):
    """Mercator-inverse sampling: source rows within bounds, columns
    linear in target columns, and the equator band maps to itself."""
    from proj_ray.pipelines.queries import (_WARP_NC, _WARP_NR,
                                            raster_warp)

    df = raster_warp(SF)
    assert df["tr"].between(0, _WARP_NR - 1).all()
    assert df["tc"].between(0, _WARP_NC - 1).all()
    assert df["sr"].between(0, 31).all()
    assert df["sc"].between(0, 71).all()
    # x is linear: sc = floor((tc + 0.5) * 1.125)
    expect_sc = np.floor((df["tc"].to_numpy() + 0.5) * 1.125)
    assert (df["sc"].to_numpy() == expect_sc.astype(np.int64)).all()
    # Mercator stretches toward the poles: the target row band around
    # the equator (tr = 15, 16) samples source rows near lat 0
    mid = df[df["tr"].isin([15, 16])]
    if len(mid):
        assert mid["sr"].between(14, 17).all()


# ---------------------------------------------------------------------------
# funnel_signup_purchase
# ---------------------------------------------------------------------------

def test_funnel_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import funnel_signup_purchase

    got = funnel_signup_purchase(SF)
    want = _oracle("funnel_signup_purchase", ["events"])
    for col in got.columns:
        assert int(got[col].iloc[0]) == int(want[col].iloc[0]), col


def test_funnel_invariants(ray_session):
    from proj_ray.pipelines.queries import funnel_signup_purchase

    df = funnel_signup_purchase(SF)
    n_s = int(df["n_signup_users"].iloc[0])
    n_p = int(df["n_first_purchase"].iloc[0])
    n_c = int(df["n_converted_7d"].iloc[0])
    assert n_s >= n_p >= n_c >= 0
    if n_c == 0:
        assert int(df["sum_lag_us"].iloc[0]) == 0


def test_funnel_synthetic_window_edge(ray_session, tmp_path):
    """Hand-built stream: one user converts exactly AT the window edge
    (counted), one a microsecond past it (not), one purchases before
    ever signing up (no qualifying purchase)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import (_FUNNEL_WIN_US,
                                            funnel_signup_purchase)

    day0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    rows = [
        (1, day0, "signup"), (1, day0 + _FUNNEL_WIN_US, "purchase"),
        (2, day0, "signup"), (2, day0 + _FUNNEL_WIN_US + 1, "purchase"),
        (3, day0 + 10, "signup"), (3, day0, "purchase"),
    ]
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([int(r[1]) for r in rows],
                       pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows]),
    }), sf / "events.parquet")
    df = funnel_signup_purchase(str(sf))
    assert int(df["n_signup_users"].iloc[0]) == 3
    assert int(df["n_first_purchase"].iloc[0]) == 2
    assert int(df["n_converted_7d"].iloc[0]) == 1
    assert int(df["sum_lag_us"].iloc[0]) == _FUNNEL_WIN_US


# ---------------------------------------------------------------------------
# retention_cohorts
# ---------------------------------------------------------------------------

def test_retention_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import retention_cohorts

    got = _sorted(retention_cohorts(SF), ["cohort_week", "week_offset"])
    want = _sorted(_oracle("retention_cohorts", ["events"]),
                   ["cohort_week", "week_offset"])
    assert len(got) == len(want)
    for col in ["cohort_week", "week_offset", "n_active_users"]:
        assert (got[col].to_numpy(np.int64)
                == want[col].to_numpy(np.int64)).all(), col


def test_retention_monotone_week0(ray_session):
    """Week-0 is the signup week itself, so every cohort is active at
    offset 0, and no offset can exceed the week-0 distinct count."""
    from proj_ray.pipelines.queries import retention_cohorts

    df = retention_cohorts(SF)
    assert df["week_offset"].between(0, 3).all()
    wide = df.pivot(index="cohort_week", columns="week_offset",
                    values="n_active_users")
    assert wide[0].notna().all()
    for off in (1, 2, 3):
        if off in wide.columns:
            m = wide[off].notna()
            assert (wide.loc[m, off] <= wide.loc[m, 0]).all()
