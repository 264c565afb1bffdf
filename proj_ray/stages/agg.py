"""Pre-aggregation helpers: combine inside map_batches BEFORE the
groupby so the all-to-all shuffle moves one row per (key, batch)
instead of every input row (SURVEY.md §2.6, ray_guide 'Aggregation at
scale'). Optional key salting spreads pathological hot keys."""

from __future__ import annotations

import numpy as np
import pandas as pd


def partial_group_sums(ds, key_cols, sum_cols, count_col="n", batch_size=None,
                       salt_mod=None):
    """Stage 1: per-batch groupby-sum (vectorized pandas) emitting
    partials; stage 2: Ray groupby over the partials. Returns a Dataset
    with key_cols + summed sum_cols + count_col.

    ``salt_mod``: when set, batches add ``_salt = row_index %% salt_mod``
    to the partial key, splitting a hot key's rows across salt_mod
    partial rows per batch; the final groupby drops the salt. (With
    per-batch partials the partial row count is already bounded by
    #keys x #batches; salting matters when single batches are dominated
    by one key and the per-batch combine itself is the bottleneck.)
    """
    key_cols = list(key_cols)
    sum_cols = list(sum_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if salt_mod:
            df = df.assign(_salt=np.arange(len(df)) % salt_mod)
        keys = key_cols + (["_salt"] if salt_mod else [])
        g = df.groupby(keys, as_index=False, sort=False)[sum_cols].sum()
        cnt = df.groupby(keys, as_index=False, sort=False).size().rename(
            columns={"size": count_col})
        out = g.merge(cnt, on=keys)
        if salt_mod:
            out = out.drop(columns=["_salt"])
        return out

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=batch_size)
    return bucket_aggregate(partials, key_cols,
                            {**{c: "sum" for c in sum_cols},
                             count_col: "sum"})


def combine_partials(partials, key_cols, agg_spec,
                     driver_threshold: int = 2_000_000,
                     path: str | None = None) -> pd.DataFrame:
    """Size-dispatched FINAL combine of a pre-reduced partial stream.

    ``partials`` is a Dataset whose blocks each hold at most
    key-cardinality rows (the output of a per-batch combine), so its
    total row count is #blocks x cardinality — bounded, but NOT
    constant: at ~10^6 blocks a low-cardinality pipeline still
    approaches 10^9 partial rows, too many to concat on the driver.

    - driver path (partial count <= ``driver_threshold``): concat
      ``iter_batches`` + one pandas groupby — skips the distributed
      groupby's fixed multi-second shuffle latency (the right branch
      for bench-scale runs);
    - distributed path: ``groupby(keys).aggregate`` — the 100 TB
      branch; only the final key-cardinality-bounded result reaches
      the driver.

    ``agg_spec``: {col: 'sum' | 'min' | 'max'}.  ``path`` forces
    'driver' or 'distributed' (parity tests).  Returns a pandas frame
    (unsorted; callers order it)."""
    key_cols = list(key_cols)
    mat = partials.materialize()
    if path is None:
        path = "driver" if mat.count() <= driver_threshold else "distributed"
    elif path not in ("driver", "distributed"):
        raise ValueError(f"combine_partials: unknown path {path!r}")

    if path == "driver":
        chunks = list(mat.iter_batches(batch_size=None, batch_format="pandas"))
        if not chunks:
            return pd.DataFrame(columns=key_cols + list(agg_spec))
        allp = pd.concat(chunks, ignore_index=True)
        return allp.groupby(key_cols, as_index=False, dropna=False).agg(
            **{c: (c, op) for c, op in agg_spec.items()})

    # distributed branch: coarse-bucket shuffle + in-bucket vectorized
    # pandas groupby (bucket_aggregate) — Ray's sort-based aggregate
    # pays per-distinct-key Python work and is ~500x slower at 1e5+
    # keys; only the key-cardinality-bounded result reaches the driver
    out = bucket_aggregate(mat, key_cols, agg_spec).to_pandas()
    return out[key_cols + list(agg_spec)]


def bucket_aggregate(ds, key_cols, agg_spec, num_buckets: int = 256):
    """Distributed groupby-aggregate for HIGH-CARDINALITY keys, as a
    Dataset -> Dataset stage.

    Ray's ``groupby(key).aggregate(...)`` pays per-DISTINCT-KEY Python
    work in its reduce (measured ~177 s for 600k rows / 150k int keys
    on 32 CPUs); this primitive instead hashes the key columns onto
    ``num_buckets`` coarse buckets (one CHEAP shuffle whose key domain
    is the bucket id), then runs ONE vectorized pandas groupby inside
    each bucket — same 600k/150k case: ~0.3 s, identical result.

    Correctness: every row of a key lands in the same bucket (the
    bucket is a deterministic function of the key columns via
    ``pd.util.hash_pandas_object``), so the per-bucket groupby is a
    complete groupby for its keys and bucket outputs are disjoint.

    ``agg_spec``: {out_col: 'sum' | 'min' | 'max' | 'count'} (the
    column aggregates itself; 'count' counts rows) or
    {out_col: (in_col, op)} to rename.  Output columns: key_cols +
    agg columns, original dtypes preserved by pandas.  Bucket count
    scales the shuffle with the cluster, independent of key
    cardinality (the same trick the per-key reducers use, SURVEY §8
    session-7 notes)."""
    key_cols = list(key_cols)
    named = {}
    for out_col, spec in agg_spec.items():
        in_col, op = spec if isinstance(spec, tuple) else (out_col, spec)
        named[out_col] = (key_cols[0] if op == "count" else in_col,
                          "size" if op == "count" else op)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
        df["_bkt"] = (h % np.uint64(num_buckets)).astype(np.int64)
        return df

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_bkt"])
        # dropna=False: Ray's aggregate keeps null-key groups; pandas
        # would silently drop them by default
        out = g.groupby(key_cols, as_index=False, dropna=False).agg(**named)
        return out[key_cols + list(agg_spec)]

    return (ds.map_batches(add_bucket, batch_format="pandas",
                           batch_size=None)
            .groupby("_bkt").map_groups(reduce, batch_format="pandas"))
