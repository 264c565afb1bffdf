"""Raster focal stencil and raster warp."""

import duckdb
import numpy as np
import pandas as pd

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
