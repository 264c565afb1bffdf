"""Sequence packing — the concat-and-chunk step of an LM pretraining
pipeline (GPT-2/3 style: concatenate every document's tokens in a
deterministic corpus order with one EOS separator per document, then
slice the stream into fixed-length training windows).  Public
algorithm; what a trainer needs from the DATA side is the exact
doc -> window assignment and per-window occupancy, which is what this
module computes distributedly.

Distributed shape (a two-pass carry-in prefix sum):

1. sort by the order key (one range shuffle; doc_id here — packing
   REQUIRES a total order, and a key sort is the only all-to-all),
2. pass 1: per-block (min key, token sum) partials — one tiny row per
   BLOCK to the driver,
3. driver: exclusive prefix-sum over the ~#blocks partials -> each
   block's global carry-in offset, broadcast as a dict keyed by the
   block's first key (unique under the global sort),
4. pass 2: per-block exclusive cumsum seeded with the carry-in gives
   every document's global token offset; each doc expands (vectorized
   repeat/arange, no Python loop) to the windows it overlaps.

Driver state is O(#blocks); the expansion is bounded by
total_tokens / window + n_docs rows.  At 100 TB the window stats
aggregate moves (window_id, partial) rows only — window cardinality =
corpus_tokens / L, and the final combine is size-dispatched by
``bucket_aggregate``'s machinery.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def global_token_offsets(ds, count_col: str, order_col: str):
    """Append ``g_start`` — each row's exclusive global prefix sum of
    ``count_col`` in ``order_col`` order.  Returns the sorted dataset.

    ``order_col`` values must be UNIQUE: the per-block carry is keyed
    by each block's first key, so a duplicate straddling a block
    boundary would seed the wrong offset — detected from the partials,
    raises."""
    ordered = ds.sort(order_col).materialize()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"blk_min": pa.array([], pa.int64()),
                             "blk_max": pa.array([], pa.int64()),
                             "blk_sum": pa.array([], pa.int64())})
        key = t[order_col].to_numpy(zero_copy_only=False)
        cnt = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "blk_min": pa.array([int(key.min())], pa.int64()),
            "blk_max": pa.array([int(key.max())], pa.int64()),
            "blk_sum": pa.array([int(cnt.sum())], pa.int64()),
        })

    parts = (ordered.map_batches(partial, batch_format="pyarrow",
                                 batch_size=None)
             .to_pandas().sort_values("blk_min"))
    mins = parts["blk_min"].to_numpy(np.int64)
    maxs = parts["blk_max"].to_numpy(np.int64)
    if len(mins) > 1 and (mins[1:] <= maxs[:-1]).any():
        raise ValueError(
            f"global_token_offsets: duplicate {order_col!r} values "
            f"straddle a block boundary; the order key must be unique")
    sums = parts["blk_sum"].to_numpy(np.int64)
    carry = np.concatenate([[0], np.cumsum(sums)[:-1]])
    carry_map = dict(zip(mins.tolist(), carry.tolist()))

    def offsets(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("g_start", pa.array([], pa.int64()))
        key = t[order_col].to_numpy(zero_copy_only=False)
        cnt = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        try:
            seed = carry_map[int(key.min())]
        except KeyError:
            raise KeyError(
                f"global_token_offsets: pass-2 batch starting at "
                f"{order_col}={int(key.min())} is not a pass-1 block "
                f"boundary; both passes must see identical blocks "
                f"(batch_size=None over the same materialized dataset)")
        start = seed + np.concatenate([[0], np.cumsum(cnt)[:-1]])
        return t.append_column("g_start", pa.array(start, pa.int64()))

    return ordered.map_batches(offsets, batch_format="pyarrow",
                               batch_size=None)


def doc_window_spans(t: pa.Table, count_col: str, id_col: str,
                     window: int) -> pd.DataFrame:
    """Expand one batch of (id, count, g_start) rows into per-(doc,
    window) occupancy rows — vectorized repeat/arange, no Python loop.

    A document starting at global token offset s with n tokens covers
    windows floor(s/W) .. floor((s+n-1)/W); its contribution to window
    w is min(s+n, (w+1)W) - max(s, wW)."""
    n = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
    s = t["g_start"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = n > 0
    n, s, ids = n[m], s[m], ids[m]
    w0 = s // window
    w1 = (s + n - 1) // window
    reps = (w1 - w0 + 1).astype(np.int64)
    total = int(reps.sum())
    # position-within-doc for every expanded row (the run-local arange)
    starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
    wid = np.repeat(w0, reps) + local
    lo = np.maximum(np.repeat(s, reps), wid * window)
    hi = np.minimum(np.repeat(s + n, reps), (wid + 1) * window)
    return pd.DataFrame({
        "window_id": wid,
        "doc_id": np.repeat(ids, reps),
        "tok_in_window": hi - lo,
    })


def pack_windows(ds, count_col: str, id_col: str, window: int):
    """(id, count, g_start) Dataset -> per-window occupancy Dataset of
    (window_id, n_docs, n_tokens, first_doc).  One coarse-bucket
    shuffle over window-cardinality rows (corpus_tokens / window)."""
    from ..stages.agg import bucket_aggregate

    def partial(t: pa.Table) -> pd.DataFrame:
        spans = doc_window_spans(t, count_col, id_col, window)
        g = spans.groupby("window_id", as_index=False).agg(
            n_docs=("doc_id", "size"),
            n_tokens=("tok_in_window", "sum"),
            first_doc=("doc_id", "min"))
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    return bucket_aggregate(parts, ["window_id"],
                            {"n_docs": "sum", "n_tokens": "sum",
                             "first_doc": "min"})
