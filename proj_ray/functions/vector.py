"""Similarity search over embedding columns (list<float>).

- brute-force cosine top-k: per-batch (B, D) @ (D, Q) matmul against a
  broadcast query matrix + local top-k, merged in a tiny final reduce
  (same broadcast-partial-topk shape as stages.knn_stage — no shuffle).
- LSH-bucketed variant (the 100 TB path): random-hyperplane signatures
  bucket vectors; only same-bucket candidates are scored. The
  hyperplane matrix is deterministic (seeded) and broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def batch_matrix(batch: pa.Table, vec_col="embedding") -> np.ndarray:
    """Zero-copy-ish (N, D) float32 from a fixed-length list column."""
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.values.to_numpy(zero_copy_only=False).astype(np.float32, copy=False)
    n = len(col)
    if n == 0:  # reshape(0, -1) is a ValueError; dim is unknowable
        return flat.reshape(0, 0)
    return flat.reshape(n, -1)


def cosine_topk_partial(batch: pa.Table, Q: np.ndarray, k: int,
                        id_col="vec_id", vec_col="embedding") -> pa.Table:
    """Local top-k rows per query for one batch; Q is (nq, D) pre-normalized."""
    M = batch_matrix(batch, vec_col)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    norms = np.linalg.norm(M, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    sims = (M @ Q.T) / norms[:, None]  # (N, nq)
    out_q, out_id, out_s = [], [], []
    kk = min(k, M.shape[0])
    for j in range(Q.shape[0]):
        s = sims[:, j]
        part = np.lexsort((ids, -s))[:kk]
        out_q.append(np.full(kk, j, dtype=np.int64))
        out_id.append(ids[part])
        out_s.append(s[part].astype(np.float64))
    return pa.table({
        "qj": pa.array(np.concatenate(out_q), pa.int64()),
        "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
        "sim": pa.array(np.concatenate(out_s), pa.float64()),
    })


_CAND_SCHEMA = pa.schema([("qj", pa.int64()), ("vec_id", pa.int64()),
                          ("sim", pa.float64())])


def topk_candidates(tb: pa.Table, k: int) -> pa.Table:
    """Per-query top-k over a candidate table (qj, vec_id, sim) under
    the total-order comparator (-sim, vec_id).  The comparator has no
    ties (vec_id is unique per qj), so the selection is ASSOCIATIVE:
    reducing any partition of the candidate stream and then reducing
    the concatenation of those results yields the same final top-k —
    which is what lets this run as an intermediate map_batches level
    without changing the answer.  Output rows are sorted by
    (qj asc, sim desc, vec_id asc)."""
    if tb.num_rows == 0:
        return _CAND_SCHEMA.empty_table()
    qj = tb["qj"].to_numpy()
    ids = tb["vec_id"].to_numpy()
    sims = tb["sim"].to_numpy()
    order = np.lexsort((ids, -sims, qj))
    qs = qj[order]
    starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
    seg = np.diff(np.r_[starts, len(qs)])
    rank = np.arange(len(qs)) - np.repeat(starts, seg)
    keep = order[rank < k]
    return pa.table({"qj": pa.array(qj[keep], pa.int64()),
                     "vec_id": pa.array(ids[keep], pa.int64()),
                     "sim": pa.array(sims[keep], pa.float64())})


def collect_topk(cand, k: int, reduce_batch: int = 1 << 18) -> pa.Table:
    """Two-level candidate merge: an intermediate map_batches top-k
    level bounds each reduce task's output to k x nq rows, so the
    driver concatenates at most k*nq*ceil(#cand/reduce_batch) rows
    instead of k*nq*#blocks (at 10^6 blocks the one-level merge was a
    tens-of-MB driver concat; this keeps it a few thousand rows).  The
    reduce is associative (see topk_candidates), so the result is
    bit-identical to the one-level merge."""
    red = cand.map_batches(lambda t: topk_candidates(t, k),
                           batch_format="pyarrow", batch_size=reduce_batch)
    chunks = list(red.iter_batches(batch_size=1 << 20,
                                   batch_format="pyarrow"))
    tb = pa.concat_tables(chunks) if chunks else _CAND_SCHEMA.empty_table()
    return topk_candidates(tb, k)


def finalize_topk(tb: pa.Table, k: int) -> pa.Table:
    """(qj, vec_id, sim) already reduced to top-k per query (sorted by
    qj asc, sim desc, vec_id asc) -> (qid, vec_id, rank, sim)."""
    qj = tb["qj"].to_numpy()
    if len(qj) == 0:
        return pa.table({"qid": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    starts = np.flatnonzero(np.r_[True, qj[1:] != qj[:-1]])
    seg = np.diff(np.r_[starts, len(qj)])
    rank = np.arange(len(qj)) - np.repeat(starts, seg) + 1
    return pa.table({"qid": pa.array(qj, pa.int64()),
                     "vec_id": tb["vec_id"],
                     "rank": pa.array(rank, pa.int64()),
                     "sim": tb["sim"]})


def ann_cosine_topk(ds, queries: np.ndarray, k=10, id_col="vec_id",
                    vec_col="embedding", batch_size=None) -> pa.Table:
    """Exact brute-force cosine top-k (the baseline the ANN variants are
    judged against). Returns (qid, vec_id, rank, sim)."""
    Qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-30)
    Qn = Qn.astype(np.float32)

    def part(b):
        return cosine_topk_partial(b, Qn, k, id_col=id_col, vec_col=vec_col)

    cand = ds.map_batches(part, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)
    return finalize_topk(collect_topk(cand, k), k)


def dot_f64_ordered(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot of every row of ``M`` with ``v``, accumulated dimension by
    dimension in float64 IN INDEX ORDER.  BLAS matmuls (sgemm/dgemv)
    choose blocking/accumulation order freely, so two code paths that
    both 'compute the dot product' can differ in the last ulp — enough
    to flip an LSH sign bit or a threshold comparison.  A fixed
    left-to-right accumulation is reproducible by any implementation
    (including a per-row scalar loop), which is what lets the
    embedding near-dup golden be frozen from independent scalar code."""
    acc = np.zeros(M.shape[0], dtype=np.float64)
    for d in range(M.shape[1]):
        acc += M[:, d].astype(np.float64) * np.float64(v[d])
    return acc


def hyperplane_signatures_f64(M: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """LSH bucket ids via dimension-ordered float64 projections —
    deterministic across matmul implementations (cf. dot_f64_ordered);
    used where bucket ids feed an exact-match golden.

    All planes accumulate together per dimension: for each (row,
    plane) element the terms still add in strict dimension order, so
    the result is BIT-IDENTICAL to a per-plane dot_f64_ordered loop
    (pinned in tests) while issuing D kernels instead of D x nplanes."""
    n = M.shape[0]
    P64 = planes.astype(np.float64)
    acc = np.zeros((n, planes.shape[0]), dtype=np.float64)
    for d in range(M.shape[1]):
        acc += M[:, d].astype(np.float64)[:, None] * P64[:, d][None, :]
    bits = acc > 0.0
    weights = (np.int64(1) << np.arange(planes.shape[0], dtype=np.int64))
    return (bits.astype(np.int64) * weights[None, :]).sum(axis=1)


def make_planes(dim: int, nbits: int = 12, seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((nbits, dim)).astype(np.float32)


def segment_all_pairs(order, st, ln):
    """All within-segment index pairs over ``order`` (segment starts
    ``st``, lengths ``ln``), batched by segment SIZE so the Python
    loop runs once per distinct size, never once per segment.  The
    pair-emission core of capped_bucket_pairs.  Returns (a_parts,
    b_parts) array lists."""
    out_a, out_b = [], []
    for size in np.unique(ln):
        if size < 2:
            continue
        ia, ib = np.triu_indices(int(size), k=1)
        base = st[ln == size]
        out_a.append(order[(base[:, None] + ia[None, :]).ravel()])
        out_b.append(order[(base[:, None] + ib[None, :]).ravel()])
    return out_a, out_b


def capped_bucket_pairs(ids: np.ndarray, sig: np.ndarray, get_ext,
                        n_ext_levels: int, cap: int):
    """All within-bucket pairs, with oversized buckets RECURSIVELY split
    by extension signatures before pairing — the mechanism that keeps
    hyperplane-LSH pair generation from going quadratic in hot buckets.

    ``sig`` assigns each row a bucket; any bucket larger than ``cap``
    is refined by ``get_ext(level, rows)`` (an int64 sub-signature for
    those rows, level 0..n_ext_levels-1) and the split recurses until
    the group fits the cap or extension bits run out (a residual
    oversized group at the last level — near-identical vectors that no
    hyperplane separates — pairs in full: its output is legitimately
    quadratic because the pairs themselves are all near-dups).

    ``get_ext`` must be a pure per-row function (the same row gets the
    same extension signature regardless of which rows it is grouped
    with) so the driver, distributed and scalar implementations agree
    bit-for-bit.  Returns (ia, ib) row-index arrays with
    ids[ia] < ids[ib].

    Scale property: after recursion every pairing group is <= cap (or
    a last-level near-identical cluster), so each row's candidate
    degree is bounded by ~cap per table — candidate volume grows
    linearly in N with a cap-sized constant, never N^2/#buckets."""
    out_a: list = []
    out_b: list = []

    def emit_segments(order, st, ln):
        a, b = segment_all_pairs(order, st, ln)
        out_a.extend(a)
        out_b.extend(b)

    def rec(rows, level):
        # rows: global indices, already ascending by ids (oversized
        # groups only — the rare path)
        k = get_ext(level, rows)
        o = np.argsort(k, kind="stable")  # stable keeps id order per key
        rs, ks = rows[o], k[o]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        en = np.r_[st[1:], len(ks)]
        ln = en - st
        fits = (ln <= cap) | (level + 1 >= n_ext_levels)
        small = fits & (ln >= 2)
        if small.any():
            emit_segments(rs, st[small], ln[small])
        for s, e in zip(st[~fits], en[~fits]):
            rec(rs[s:e], level + 1)

    order = np.lexsort((ids, sig))
    s = sig[order]
    st = np.flatnonzero(np.r_[True, s[1:] != s[:-1]]) if len(s) else np.array([], np.int64)
    en = np.r_[st[1:], len(s)]
    ln = en - st
    fits = (ln <= cap) | (n_ext_levels <= 0)
    small = fits & (ln >= 2)
    if small.any():
        emit_segments(order, st[small], ln[small])
    for a, b in zip(st[~fits], en[~fits]):
        rec(order[a:b], 0)
    if not out_a:
        z = np.array([], dtype=np.int64)
        return z, z
    return np.concatenate(out_a), np.concatenate(out_b)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the second scale path next to LSH bucketing.
# A small deterministic spherical k-means gives coarse centroids; every
# vector belongs to one cell; a query only scores vectors in its nprobe
# nearest cells.  At 100 TB the table is written partitioned by ivf_cell
# (state.write_partitioned) so a query reads only probed partitions;
# single-node we demonstrate the same pruning inside one streaming pass
# (assign + masked score per batch — no shuffle, centroids broadcast).


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(n, 1e-30)


def kmeans_cosine(X: np.ndarray, k: int, iters: int = 8, seed: int = 7) -> np.ndarray:
    """Deterministic spherical k-means (numpy, driver-side on a sample).

    Returns (k, D) float32 unit centroids.  Empty clusters keep their
    previous centroid so the result is stable across runs."""
    Xn = _normalize_rows(X.astype(np.float32))
    rng = np.random.default_rng(seed)
    idx = rng.choice(Xn.shape[0], size=min(k, Xn.shape[0]), replace=False)
    C = Xn[np.sort(idx)].copy()
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        for j in range(C.shape[0]):
            members = Xn[assign == j]
            if len(members):
                C[j] = members.mean(axis=0)
        C = _normalize_rows(C).astype(np.float32)
    return C


def ivf_assign(M: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Cell id per row: argmax cosine against unit centroids."""
    return np.argmax(_normalize_rows(M) @ centroids.T, axis=1).astype(np.int64)


def ann_ivf_topk(ds, queries: np.ndarray, sample: np.ndarray, k: int = 10,
                 ncells: int = 16, nprobe: int = 4, id_col="vec_id",
                 vec_col="embedding") -> pa.Table:
    """IVF-pruned cosine top-k.  ``sample`` is a small (S, D) training
    sample for the coarse quantizer (read driver-side, deterministic).
    Scores only rows whose cell is among each query's nprobe nearest
    cells — ~nprobe/ncells of the brute-force FLOPs.  Returns
    (qid, vec_id, rank, sim) like ann_cosine_topk (approximate: rows
    outside probed cells are never scored)."""
    C = kmeans_cosine(sample, ncells)
    Qn = _normalize_rows(queries.astype(np.float32))
    probe = np.argsort(-(Qn @ C.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_sets = [set(p.tolist()) for p in probe]

    def part(b: pa.Table) -> pa.Table:
        M = batch_matrix(b, vec_col)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cells = ivf_assign(M, C)
        norms = np.linalg.norm(M, axis=1)
        norms = np.where(norms == 0, 1.0, norms)
        out_q, out_id, out_s = [], [], []
        for j in range(Qn.shape[0]):
            m = np.isin(cells, list(probe_sets[j]))
            if not m.any():
                continue
            s = (M[m] @ Qn[j]) / norms[m]
            kk = min(k, s.shape[0])
            top = np.lexsort((ids[m], -s))[:kk]
            out_q.append(np.full(kk, j, dtype=np.int64))
            out_id.append(ids[m][top])
            out_s.append(s[top].astype(np.float64))
        if not out_q:
            return pa.table({"qj": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({"qj": pa.array(np.concatenate(out_q), pa.int64()),
                         "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                         "sim": pa.array(np.concatenate(out_s), pa.float64())})

    cand = ds.map_batches(part, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)
    return finalize_topk(collect_topk(cand, k), k)


# ---------------------------------------------------------------------------
# Partitioned IVF layout — the 100 TB path: the index is embeddings
# written as one parquet partition per coarse cell, so a query with
# nprobe cells READS only nprobe/ncells of the corpus from storage
# (partition pruning at the I/O layer, not post-read filtering).
# ---------------------------------------------------------------------------

def ivf_build_index(ds, out_dir: str, centroids: np.ndarray,
                    id_col="vec_id", vec_col="embedding") -> None:
    """Write an IVF-partitioned index: assign each row its coarse cell
    (argmax cosine vs the broadcast centroids) and write parquet
    partitioned by ``ivf_cell``.  One directory per cell is the
    resume-FRIENDLY layout (searches prune by directory), but this
    builder itself is single-run (one streaming write_parquet); a
    multi-run resumable build follows the explicit-fragment pattern of
    stages.s2_stage.s2_shard_write_resumable / state.run_resumable_shards.
    Centroids are stored alongside as centroids.npy."""
    import os

    C = np.ascontiguousarray(centroids, dtype=np.float32)

    def assign(t: pa.Table) -> pa.Table:
        M = batch_matrix(t, vec_col)
        cells = pa.array(ivf_assign(M, C), pa.int64())
        # "ivf_cell" becomes the partition directory (hive layout drops
        # it from the data files); "cell" stays IN the files so a
        # search can read many partitions as ONE dataset and still see
        # per-row cell provenance
        return t.append_column("ivf_cell", cells).append_column("cell", cells)

    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "centroids.npy"), C)
    (ds.map_batches(assign, batch_format="pyarrow", batch_size=None,
                    zero_copy_batch=True)
     .write_parquet(os.path.join(out_dir, "cells"),
                    partition_cols=["ivf_cell"]))


def ivf_search_partitioned(index_dir: str, queries: np.ndarray, k: int = 10,
                           nprobe: int = 4, id_col="vec_id",
                           vec_col="embedding") -> pa.Table:
    """Search an ivf_build_index layout: compute each query's nprobe
    nearest cells, then ``read_parquet`` ONLY those partitions — the
    unprobed share of the corpus never leaves storage.  Scoring follows
    ann_ivf_topk (per-batch matmul + partial top-k)."""
    import os

    import ray.data as rd

    C = np.load(os.path.join(index_dir, "centroids.npy"))
    Qn = _normalize_rows(queries.astype(np.float32))
    probe = np.argsort(-(Qn @ C.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    cells_union = sorted({int(c) for row in probe for c in row})
    # ONE dataset over the union of probed partitions (the unprobed
    # corpus share never leaves storage); the in-file "cell" column
    # carries per-row provenance, so no per-cell dataset + union — at
    # scale that was nprobe*nq driver-side operators of pure overhead
    files = []
    for c in cells_union:
        d = os.path.join(index_dir, "cells", f"ivf_cell={c}")
        if not os.path.isdir(d):  # only probed partitions are listed
            continue
        files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    probe_sets = [set(p.tolist()) for p in probe]

    def part(b: pa.Table) -> pa.Table:
        M = batch_matrix(b, vec_col)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cells = b["cell"].to_numpy(zero_copy_only=False)
        norms = np.linalg.norm(M, axis=1)
        norms = np.where(norms == 0, 1.0, norms)
        out_q, out_id, out_s = [], [], []
        for j in range(Qn.shape[0]):
            m = np.isin(cells, list(probe_sets[j]))
            if not m.any():
                continue
            s = (M[m] @ Qn[j]) / norms[m]
            kk = min(k, s.shape[0])
            top = np.lexsort((ids[m], -s))[:kk]
            out_q.append(np.full(kk, j, dtype=np.int64))
            out_id.append(ids[m][top])
            out_s.append(s[top].astype(np.float64))
        if not out_q:
            return pa.table({"qj": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({"qj": pa.array(np.concatenate(out_q), pa.int64()),
                         "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                         "sim": pa.array(np.concatenate(out_s), pa.float64())})

    if not files:
        return finalize_topk(_CAND_SCHEMA.empty_table(), k)
    src = rd.read_parquet(files, columns=[id_col, vec_col, "cell"])
    cand = src.map_batches(part, batch_format="pyarrow", batch_size=None)
    return finalize_topk(collect_topk(cand, k), k)


# --- product quantization (PQ) -------------------------------------------

def kmeans_l2(X: np.ndarray, k: int, iters: int = 8) -> np.ndarray:
    """Deterministic plain-L2 k-means (PQ sub-codebooks; Jegou et al.
    2011): float64, evenly-strided init, argmin ties to the lowest
    index, empty clusters keep their previous centroid."""
    X = np.asarray(X, dtype=np.float64)
    idx = (np.arange(k, dtype=np.int64) * X.shape[0]) // max(k, 1)
    C = X[idx].copy()
    for _ in range(iters):
        d = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d, axis=1)
        for j in range(k):
            m = a == j
            if m.any():
                C[j] = X[m].mean(axis=0)
    return C


def pq_train(S: np.ndarray, m: int = 8, ks: int = 16,
             iters: int = 8) -> np.ndarray:
    """(m, ks, dsub) float64 codebooks from a training sample; the
    vector dimension must divide evenly into m subspaces."""
    S = np.asarray(S, dtype=np.float64)
    if S.shape[1] % m:
        raise ValueError(f"dim {S.shape[1]} not divisible by m={m}")
    dsub = S.shape[1] // m
    return np.stack([kmeans_l2(S[:, j * dsub:(j + 1) * dsub], ks, iters)
                     for j in range(m)])


def pq_encode(M: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """(n, m) int64 codes: per subspace, the L2-nearest codeword
    (row-independent, so batching cannot change a code)."""
    M = np.asarray(M, dtype=np.float64)
    m, _ks, dsub = codebooks.shape
    codes = np.empty((M.shape[0], m), dtype=np.int64)
    for j in range(m):
        diff = M[:, None, j * dsub:(j + 1) * dsub] - codebooks[j][None, :, :]
        codes[:, j] = np.argmin((diff * diff).sum(axis=2), axis=1)
    return codes
