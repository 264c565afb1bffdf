"""Where rows with the same key meet: the engine's one aggregation path.

- Keyed aggregates (``group_agg``): each block pre-reduces its own rows
  with one pandas groupby, so the combine moves at most one row per
  (key, block) however skewed a key is; no salt is needed (SURVEY.md
  §2.6, ray_guide 'Aggregation at scale'). ``combine_partials`` then
  finishes on the driver while the partials number at most
  ``DRIVER_ROWS``, and through ``bucket_aggregate`` past that.
- Per-group functions (``bucket_map``): one shuffle hashes the rows onto
  ``BUCKETS`` coarse buckets of their key columns, and a function runs
  on each bucket's frame, which holds every row of each of its keys.

A spec is ``{out_col: (in_col, op)}`` or ``{out_col: op}`` (the column
aggregates itself), with op 'sum', 'min', 'max' or 'count' (rows)."""

from __future__ import annotations

import numpy as np
import pandas as pd

# past this many partial rows the final combine runs distributed; below
# it one driver-side groupby skips the shuffle's fixed latency
DRIVER_ROWS = 2_000_000
# hash buckets of a bucket_map shuffle: scales the shuffle with the
# cluster, independent of key cardinality (SURVEY §8)
BUCKETS = 256


def _named(key_cols, spec):
    """pandas named aggregation of ``spec``: {out_col: (in_col, op)}."""
    named = {}
    for out_col, s in spec.items():
        in_col, op = s if isinstance(s, tuple) else (out_col, s)
        named[out_col] = (key_cols[0], "size") if op == "count" else (in_col, op)
    return named


def group_agg(ds, key_cols, spec) -> pd.DataFrame:
    """Keyed aggregate of ``ds``: one pandas groupby per block, then
    ``combine_partials``. Returns a pandas frame of key_cols + spec
    columns (unsorted; callers order it; no dtypes when no row)."""
    key_cols = list(key_cols)
    named = _named(key_cols, spec)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key_cols, as_index=False, sort=False,
                          dropna=False).agg(**named)

    merge = {c: "sum" if op in ("sum", "size") else op
             for c, (_, op) in named.items()}
    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)
    return combine_partials(partials, key_cols, merge)


def combine_partials(partials, key_cols, agg_spec) -> pd.DataFrame:
    """FINAL combine of a pre-reduced partial stream (``agg_spec``:
    {col: 'sum' | 'min' | 'max'}), as a pandas frame (unsorted).

    Each block of ``partials`` holds at most key-cardinality rows, so
    the total is #blocks x cardinality: bounded, but not constant. Up
    to ``DRIVER_ROWS`` partials are concatenated on the driver for one
    pandas groupby; past that ``bucket_aggregate`` combines them
    distributed and only the key-bounded result reaches the driver."""
    key_cols = list(key_cols)
    mat = partials.materialize()
    if mat.count() > DRIVER_ROWS:
        return bucket_aggregate(mat, key_cols, agg_spec).to_pandas()
    chunks = list(mat.iter_batches(batch_size=None, batch_format="pandas"))
    if not chunks:
        return pd.DataFrame(columns=key_cols + list(agg_spec))
    allp = pd.concat(chunks, ignore_index=True)
    return allp.groupby(key_cols, as_index=False, dropna=False).agg(
        **{c: (c, op) for c, op in agg_spec.items()})


def bucket_map(ds, key_cols, fn):
    """``fn`` over coarse hash buckets of ``key_cols``, as a Dataset ->
    Dataset stage. Every row of a key lands in the same bucket (the
    bucket is ``pd.util.hash_pandas_object`` of the key columns modulo
    ``BUCKETS``), so ``fn`` gets each of its keys' rows complete, in one
    pandas frame holding several keys. Ray's per-key groupby pays
    Python work per distinct key (~177 s for 600k rows / 150k int keys
    on 32 CPUs); a bucket shuffle with one vectorized pass per bucket
    took ~0.3 s on the same case."""
    key_cols = list(key_cols)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
        return df.assign(_bkt=(h % np.uint64(BUCKETS)).astype(np.int64))

    return (ds.map_batches(add_bucket, batch_format="pandas", batch_size=None)
            .groupby("_bkt")
            .map_groups(lambda g: fn(g.drop(columns=["_bkt"])),
                        batch_format="pandas"))


def bucket_aggregate(ds, key_cols, agg_spec):
    """Distributed groupby-aggregate for high-cardinality keys, as a
    Dataset -> Dataset stage: ``bucket_map`` with one pandas groupby
    per bucket. Output columns: key_cols + agg columns, with pandas'
    dtypes; a null key is a group of its own, as in Ray's aggregate."""
    key_cols = list(key_cols)
    named = _named(key_cols, agg_spec)

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key_cols, as_index=False, dropna=False).agg(**named)

    return bucket_map(ds, key_cols, reduce)
