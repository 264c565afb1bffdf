"""Parity between the bench-scale (driver) and 100-TB (distributed
groupby) branches of combine_partials: forcing the distributed branch
(``DRIVER_ROWS`` = 0) must give the driver branch's result."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _sorted(df, by):
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    return df.sort_values(by).reset_index(drop=True)


def test_combine_partials_paths_agree(ray_session, monkeypatch):
    import ray.data as rd

    from proj_ray.stages import agg
    from proj_ray.stages.agg import combine_partials

    rng = np.random.default_rng(11)
    n = 5000
    raw = rd.from_arrow(pa.table({
        "k": pa.array(rng.integers(0, 17, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })).repartition(8)

    # per-batch partials need a min column distinct from the summed one
    def partial2(df: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame({"k": df["k"], "v": df["v"], "vmin": df["v"],
                            "n": 1})
        return tmp.groupby("k", as_index=False).agg(
            v=("v", "sum"), vmin=("vmin", "min"), n=("n", "sum"))

    partials = raw.map_batches(partial2, batch_format="pandas",
                               batch_size=None)
    spec = {"v": "sum", "vmin": "min", "n": "sum"}
    a = _sorted(combine_partials(partials, ["k"], spec), ["k"])
    monkeypatch.setattr(agg, "DRIVER_ROWS", 0)
    b = _sorted(combine_partials(partials, ["k"], spec), ["k"])
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    # and the totals are the ground truth
    assert int(a["n"].sum()) == n


def test_combine_partials_empty(ray_session):
    import ray.data as rd

    from proj_ray.stages.agg import combine_partials

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.int64())}))
    out = combine_partials(empty, ["k"], {"v": "sum"})
    assert out.empty and list(out.columns) == ["k", "v"]

