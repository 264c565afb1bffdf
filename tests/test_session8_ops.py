"""The bucket_aggregate groupby primitive."""

import numpy as np
import pandas as pd
import pytest


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
