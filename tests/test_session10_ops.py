"""Round-4 session-10 operators: hex spatial index."""

import numpy as np
import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


def _sorted(df, by):
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    return df.sort_values(by).reset_index(drop=True)


def _oracle(qname, tables, sf=SF01):
    from proj_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    return con.sql(QUERIES[qname]["sql"]).fetchdf()


# -- queries ----------------------------------------------------------------


def test_hex_cell_agg_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import hex_cell_agg

    got = _sorted(hex_cell_agg(SF01), ["hex_q", "hex_r"])
    want = _sorted(_oracle("hex_cell_agg", ["lineitem"]), ["hex_q", "hex_r"])
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    assert got["n_points"].sum() == 60000  # every point assigned once
    assert len(got) > 1000  # real spatial spread


def test_hex_cube_rounding_invariant(ray_session):
    # every assigned cell must satisfy the cube constraint q+r+s=0
    # after rounding: reconstruct from the fixed (hq, hr)
    from proj_ray.pipelines.queries import hex_cell_agg

    got = hex_cell_agg(SF)
    assert ((got["hex_q"] + got["hex_r"]).abs() < 10_000).all()
    # cells are contiguous-ish ints, not garbage floats
    assert got["hex_q"].dtype == np.int64 and got["hex_r"].dtype == np.int64
