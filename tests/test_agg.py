"""group_agg and bucket_map against a plain pandas groupby, on a seeded
multi-block input where one key holds 90% of the rows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

_SPEC = {"s": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max"),
         "n": ("v", "count")}


def _skewed():
    rng = np.random.default_rng(21)
    n = 20_000
    k = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 500, n))
    return pd.DataFrame({"k": k.astype(np.int64),
                         "v": rng.integers(-1000, 1000, n).astype(np.int64)})


def _want(df):
    return (df.groupby("k", as_index=False)
            .agg(s=("v", "sum"), lo=("v", "min"), hi=("v", "max"),
                 n=("v", "size")))


def _sorted(df):
    return df.sort_values("k").reset_index(drop=True)


@pytest.mark.parametrize("driver_rows", [None, 0])
def test_group_agg_matches_pandas(ray_session, monkeypatch, driver_rows):
    """Both combine branches (driver, and distributed when
    ``DRIVER_ROWS`` = 0) give pandas' groups, values and dtypes."""
    import ray.data as rd

    from proj_ray.stages import agg

    if driver_rows is not None:
        monkeypatch.setattr(agg, "DRIVER_ROWS", driver_rows)
    df = _skewed()
    ds = rd.from_pandas(df).repartition(8)
    got = _sorted(agg.group_agg(ds, ["k"], _SPEC))
    pd.testing.assert_frame_equal(got, _sorted(_want(df)))
    assert (df["k"] == 7).mean() > 0.85


def test_bucket_map_gives_each_key_whole(ray_session):
    """Each call sees every row of its keys: a per-bucket median (not
    mergeable across buckets) and the count equal pandas' per key."""
    import ray.data as rd

    from proj_ray.stages.agg import bucket_map

    df = _skewed()
    ds = rd.from_pandas(df).repartition(8)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(
            med=("v", "median"), n=("v", "size"))

    got = _sorted(bucket_map(ds, ["k"], per_bucket).to_pandas())
    want = _sorted(df.groupby("k", as_index=False).agg(
        med=("v", "median"), n=("v", "size")))
    pd.testing.assert_frame_equal(got, want)


def test_empty_input(ray_session):
    """A zero-row input with typed columns gives zero rows: group_agg
    with the key and spec columns, bucket_map without calling ``fn``."""
    import ray.data as rd

    from proj_ray.stages.agg import bucket_map, group_agg

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.int64())}))
    out = group_agg(empty, ["k"], _SPEC)
    assert len(out) == 0 and list(out.columns) == ["k", "s", "lo", "hi", "n"]

    def fail(g):
        raise AssertionError("fn called on an empty input")

    assert bucket_map(empty, ["k"], fail).count() == 0
