"""The jsonl float64 round-trip fix."""

import numpy as np
import pyarrow as pa


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
