"""Deduplication kernels: exact content hash, MinHash+LSH, SimHash,
n-gram Jaccard — the mergeable-sketch shapes a 100 TB dedup needs.

Scale plan (per ray_guide 'Aggregation at scale'):
- exact:   hash per batch (vectorized) -> groupby(hash) -> keep first.
  The shuffle moves (hash, id) pairs, never the text.
- minhash: shingle->minhash signature per batch -> explode to
  (band_id, band_hash, id) rows -> groupby bands -> candidate pairs ->
  verify Jaccard on the candidate set only.
All hashing is our own deterministic 64-bit mixing (splitmix64-style
finalizer) so results are reproducible across engines/workers.

All batch kernels are vectorized ACROSS documents: each batch's texts
are concatenated into one byte buffer (Arrow's native layout, so the
concat is free) and every hash — content hash, shingle windows, minhash
permutations, simhash bit votes — is computed with segmented numpy ops
(`np.add/minimum.reduceat` at document offsets).  No per-document
Python loop anywhere in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_M = np.uint64(0xFFFFFFFFFFFFFFFF)
_BASE = np.uint64(1099511628211)
_EMPTY_HASH = np.uint64(0xCBF29CE484222325)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — deterministic vectorized 64-bit mixer."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M
        return x ^ (x >> np.uint64(31))


# ---------------------------------------------------------------------------
# Zero-copy access to a batch of strings as one byte buffer + offsets
# ---------------------------------------------------------------------------

def _utf8_buffer(texts):
    """(data, off): uint8 byte buffer + int64 offsets (len n+1) for a
    batch of texts.  Arrow string arrays are already stored exactly this
    way, so the Arrow path is zero-copy; a Python list costs one
    C-level Arrow conversion (no per-doc Python work)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array([(t or "") for t in texts], pa.large_utf8())
    if pa.types.is_string(texts.type) or pa.types.is_binary(texts.type):
        texts = texts.cast(pa.large_utf8() if pa.types.is_string(texts.type)
                           else pa.large_binary())
    texts = pc.fill_null(texts, b"" if pa.types.is_large_binary(texts.type) else "")
    buffers = texts.buffers()
    raw_off = np.frombuffer(buffers[1], dtype=np.int64)
    off = raw_off[texts.offset: texts.offset + len(texts) + 1]
    data = (np.frombuffer(buffers[2], dtype=np.uint8)
            if buffers[2] is not None else np.empty(0, np.uint8))
    return data, off.astype(np.int64)


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for a vector of segment lengths."""
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)


def text_hash64(texts) -> np.ndarray:
    """Content hash: polynomial hash of utf-8 bytes mod 2^64 (uint64
    wraparound), mixed with the length, finalized by mix64.
    Content-exact: equal strings <=> equal hashes (collisions ~2^-64).
    Vectorized across the whole batch: one powers table, one segmented
    `np.add.reduceat` over the concatenated buffer."""
    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    if n == 0:
        return np.empty(0, np.uint64)
    lens = off[1:] - off[:-1]
    max_len = int(lens.max()) if n else 0
    out = np.empty(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        powers = np.ones(max(max_len, 1), dtype=np.uint64)
        if max_len > 1:
            powers[1:] = _BASE
            powers = np.cumprod(powers)  # BASE^i mod 2^64 (wraps in C)
        lo, hi = int(off[0]), int(off[-1])
        nonempty = lens > 0
        sums = np.zeros(n, dtype=np.uint64)
        if hi > lo:
            # exponent of global byte g in its doc d: off[d+1]-1-g
            exp = np.repeat(off[1:], lens) - 1 - np.arange(lo, hi, dtype=np.int64)
            terms = data[lo:hi].astype(np.uint64) * powers[exp]
            starts = (off[:-1] - lo)[nonempty]
            sums[nonempty] = np.add.reduceat(terms, starts)
        out = sums ^ (lens.astype(np.uint64) * _BASE)
        out[~nonempty] = _EMPTY_HASH
    return mix64(out)


def _window_hashes(data: np.ndarray, off: np.ndarray, k: int):
    """Per-doc k-shingle window hashes for a whole batch at once.

    Returns (wh, woff): concatenated per-doc window-hash arrays (uint64,
    mix64-finalized) and int64 offsets (every doc contributes >= 1
    entry; docs shorter than k get the single degenerate hash
    mix64(byte_sum), matching the scalar definition)."""
    n = len(off) - 1
    lens = off[1:] - off[:-1]
    lo, hi = int(off[0]), int(off[-1])
    b = data[lo:hi].astype(np.uint64)
    long_m = lens >= k
    out_counts = np.where(long_m, lens - k + 1, 1).astype(np.int64)
    woff = np.concatenate([np.zeros(1, np.int64), np.cumsum(out_counts)])
    wh = np.empty(int(woff[-1]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        if b.size >= k:
            n_w = b.size - k + 1
            acc = np.zeros(n_w, dtype=np.uint64)
            for j in range(k):
                acc = (acc * _BASE + b[j:j + n_w]) & _M
            # valid windows: those fully inside one doc
            starts_local = (off[:-1] - lo)[long_m]
            counts_long = out_counts[long_m]
            src_idx = np.repeat(starts_local, counts_long) + _ranges(counts_long)
            dest_idx = np.repeat(woff[:-1][long_m], counts_long) + _ranges(counts_long)
            wh[dest_idx] = mix64(acc[src_idx])
        if (~long_m).any():
            # degenerate short-doc hash: mix64(sum of bytes, 0 if empty)
            sums = np.zeros(n, dtype=np.uint64)
            nonempty = lens > 0
            if b.size:
                seg = np.add.reduceat(b, (off[:-1] - lo)[nonempty])
                sums[nonempty] = seg
            short = ~long_m
            wh[woff[:-1][short]] = mix64(sums[short])
    return wh, woff


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Character k-shingle hashes of one document (uint64) — the
    single-doc view of `_window_hashes` (used by the Jaccard verifier)."""
    data, off = _utf8_buffer([text])
    wh, _ = _window_hashes(data, off, k)
    return wh


def minhash_signatures(texts, num_perm: int = 64, k: int = 5) -> np.ndarray:
    """(n_docs, num_perm) MinHash signatures for a batch: min over
    shingles of num_perm universal hashes h_i(x) = mix64(x ^ seed_i).
    Mergeable: min of mins.  One `np.minimum.reduceat` per permutation
    over the batch-wide window-hash array — no per-doc loop."""
    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    wh, woff = _window_hashes(data, off, k)
    seeds = mix64(np.arange(1, num_perm + 1, dtype=np.uint64))
    sig = np.empty((n, num_perm), dtype=np.uint64)
    if n == 0:
        return sig
    starts = woff[:-1]  # strictly increasing: every doc has >= 1 window
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            m = mix64(wh ^ seeds[p])
            sig[:, p] = np.minimum.reduceat(m, starts)
    return sig


def minhash_signature(text: str, num_perm: int = 64, k: int = 5) -> np.ndarray:
    """Single-doc MinHash signature (batch kernel on one doc)."""
    return minhash_signatures([text], num_perm=num_perm, k=k)[0]


def lsh_band_hashes_batch(sig: np.ndarray, bands: int = 16) -> np.ndarray:
    """(n_docs, bands) band hashes: split each signature into bands and
    polynomial-hash each band to one uint64."""
    if sig.ndim == 1:
        sig = sig[None, :]
    rows = sig.shape[1] // bands
    s = sig[:, : bands * rows].reshape(sig.shape[0], bands, rows)
    with np.errstate(over="ignore"):
        acc = np.zeros((sig.shape[0], bands), dtype=np.uint64)
        for j in range(rows):
            acc = (acc * np.uint64(0x100000001B3) + s[:, :, j]) & _M
    return mix64(acc)


def lsh_band_hashes(sig: np.ndarray, bands: int = 16) -> np.ndarray:
    """Single-signature view of `lsh_band_hashes_batch`."""
    return lsh_band_hashes_batch(sig[None, :], bands=bands)[0]


def simhash64_batch(texts, k: int = 4) -> np.ndarray:
    """SimHash over character k-shingles for a whole batch: sign-sum of
    shingle-hash bits, vectorized via `np.unpackbits` + segmented sums."""
    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    if n == 0:
        return np.empty(0, np.uint64)
    wh, woff = _window_hashes(data, off, k)
    # (n_windows, 64) bit matrix; bit j of the uint64 is column j
    bits = np.unpackbits(wh.view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    counts = (woff[1:] - woff[:-1]).astype(np.int64)
    ones = np.add.reduceat(bits.astype(np.int64), woff[:-1], axis=0)
    votes = ones * 2 - counts[:, None]
    powers2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return ((votes > 0).astype(np.uint64) * powers2[None, :]).sum(axis=1)


def simhash64(text: str, k: int = 4) -> np.uint64:
    """SimHash of one document (batch kernel on one doc)."""
    return simhash64_batch([text], k=k)[0]


def simhash_bands(sim: np.ndarray, n_bands: int = 4) -> np.ndarray:
    """Split 64-bit SimHash values into ``n_bands`` equal bit-chunks —
    the banded-hamming bucketing key.  Pigeonhole guarantee: two
    signatures within hamming distance ``n_bands - 1`` share at least
    one identical band, so banding has EXACT recall for that radius
    (Manku et al., "Detecting Near-Duplicates for Web Crawling",
    WWW'07 — at web scale use more/permuted blocks so each bucket
    stays selective; 4x16-bit is the single-table instance).

    ``sim`` is int64 bit-patterns (Arrow-friendly); returns (n,
    n_bands) int64 with each band's chunk value."""
    if 64 % n_bands:
        raise ValueError("n_bands must divide 64")
    w = 64 // n_bands
    u = sim.astype(np.int64).view(np.uint64)
    mask = np.uint64((1 << w) - 1)
    shifts = (np.arange(n_bands, dtype=np.uint64) * np.uint64(w))
    return ((u[:, None] >> shifts[None, :]) & mask).astype(np.int64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a ^ b) for int64 bit-pattern arrays."""
    x = (a.astype(np.int64).view(np.uint64)
         ^ b.astype(np.int64).view(np.uint64))
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                         axis=1).sum(axis=1).astype(np.int64)


def jaccard_ngrams(a: str, b: str, k: int = 5) -> float:
    """Exact k-shingle Jaccard (the LSH candidate verifier)."""
    sa = set(shingle_hashes(a, k).tolist())
    sb = set(shingle_hashes(b, k).tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


# ---------------------------------------------------------------------------
# batch-level wrappers (map_batches bodies)
# ---------------------------------------------------------------------------

def minhash_bands_batch(batch: pa.Table, text_col="text", id_col="doc_id",
                        num_perm=64, bands=16, k=5) -> pa.Table:
    """Explode each doc into (band_id, band_hash, id) rows — the LSH
    bucketing shuffle input.  Fully vectorized: batch signatures ->
    batch band hashes -> repeat/tile layout."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    sig = minhash_signatures(batch[text_col], num_perm=num_perm, k=k)
    bh = lsh_band_hashes_batch(sig, bands=bands)  # (n, bands)
    n = len(ids)
    return pa.table({
        "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int64), n)),
        "band_hash": pa.array(bh.reshape(-1).astype(np.int64), pa.int64()),
        id_col: pa.array(np.repeat(ids, bands), pa.int64()),
    })


# ---------------------------------------------------------------------------
# Connected components over a duplicate-candidate edge list: min-label
# propagation.  Edges come from exact-hash groups, LSH buckets, or any
# pairwise candidate generator; components give dedup cluster ids
# (cluster = min member id).
#
# Scale shape: the edge list of a dedup run is sub-linear in the corpus
# (only near-duplicate pairs survive banding), so each round is two
# hash joins (edge ends -> current labels) + a groupby-min — key-hash
# shuffles of SMALL tables, never of the corpus itself.  Rounds needed =
# graph diameter; dedup graphs are star-like (1-3 rounds).  The corpus
# join happens ONCE at the end, against the label table.
#
# `cc_min_label` dispatches: below `driver_threshold` edges it runs the
# pandas rounds on the driver (groupby latency dominates tiny inputs);
# above, `cc_min_label_distributed` runs the same rounds as Ray Dataset
# joins + groupby-min, so the edge list never has to fit on one machine.


def _adaptive_partitions(requested: int) -> int:
    """Cap hash-shuffle partition counts at the cluster CPU count: each
    join partition is an aggregator actor, and requesting more actors
    than CPUs deadlocks a small (test) cluster.  On a big cluster the
    requested count passes through."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:
        cpus = requested
    return max(2, min(requested, cpus))


class CCNotConverged(RuntimeError):
    """min-label propagation exhausted max_rounds without reaching a
    fixpoint (component diameter > max_rounds)."""


def cc_min_label(edges, max_rounds: int = 50, driver_threshold: int = 2_000_000,
                 on_nonconverged: str = "raise", as_dataset: bool = False):
    """Connected components by min-label propagation.

    ``edges`` is a Ray Dataset with int64 columns ``src``/``dst`` (or a
    pyarrow Table / pandas DataFrame for driver-side use).  Returns a
    pandas DataFrame (node, label) where label = min node id reachable —
    the component representative.

    Dispatch: edge lists under ``driver_threshold`` rows run driver-side
    (vectorized pandas rounds — distributed groupby latency would
    dominate); larger ones run through `cc_min_label_distributed`.
    For those large inputs pass ``as_dataset=True`` to receive the
    label table as a Ray Dataset and attach it with
    :func:`attach_labels_join` — the default pandas return collects a
    per-dup-node table to the driver, which defeats the scale path the
    dispatch just took (kept for small-result compatibility only).
    ``on_nonconverged``: 'raise' (default) raises CCNotConverged when
    max_rounds is exhausted before the fixpoint; 'warn' returns the
    partial labels with a warning."""
    import pandas as pd

    if hasattr(edges, "groupby") and not isinstance(edges, pd.DataFrame):
        # Ray Dataset path
        edges = edges.materialize()
        n_edges = edges.count()
        if n_edges > driver_threshold:
            labels = cc_min_label_distributed(
                edges, max_rounds=max_rounds, on_nonconverged=on_nonconverged)
            return labels if as_dataset else labels.to_pandas()
        df = edges.to_pandas()
    elif hasattr(edges, "to_pandas"):
        df = edges.to_pandas()
    else:
        df = pd.DataFrame(edges)
    if df.empty:  # no duplicate pairs at all -> no labeled nodes
        empty = pd.DataFrame({"node": pd.Series(dtype="int64"),
                              "label": pd.Series(dtype="int64")})
        if as_dataset:
            import ray.data as _rd

            return _rd.from_pandas(empty)
        return empty
    src = df["src"].to_numpy(dtype=np.int64)
    dst = df["dst"].to_numpy(dtype=np.int64)
    # driver path: union-find with path halving, union by MIN id (nodes
    # are sorted, so index order == id order and the root is the
    # component min).  One O(E a(N)) pass — exact for ANY diameter, so
    # max_rounds/on_nonconverged only govern the distributed rounds.
    # (The previous per-round pandas propagation paid diameter x E
    # index lookups: 69 s on the 538k-edge sf0.1 radius graph; this
    # pass is ~1 s with identical labels.)
    nodes, inv = np.unique(np.concatenate([src, dst]),
                           return_inverse=True)
    si, di = inv[: src.size], inv[src.size:]
    parent = np.arange(nodes.size, dtype=np.int64)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(si, di):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.fromiter((find(int(i)) for i in range(nodes.size)),
                        dtype=np.int64, count=nodes.size)
    out = pd.DataFrame({"node": nodes, "label": nodes[roots]})
    if as_dataset:
        import ray.data as _rd

        return _rd.from_pandas(out)
    return out


def _handle_nonconverged(max_rounds: int, on_nonconverged: str):
    msg = (f"min-label propagation did not converge in {max_rounds} rounds "
           f"(component diameter exceeds max_rounds); labels are partial")
    if on_nonconverged == "raise":
        raise CCNotConverged(msg)
    import warnings

    warnings.warn(msg, RuntimeWarning)


def cc_min_label_distributed(edges, max_rounds: int = 25,
                             num_partitions: int = 16,
                             on_nonconverged: str = "raise"):
    """Distributed min-label propagation over a Ray Dataset of
    src/dst int64 edges.  Returns a Ray Dataset (node, label).

    Per round: hash-join current labels onto each edge end (two
    Dataset.join shuffles of the SMALL edge/label tables), union with
    the self-labels, groupby('node').min().  Labels per node decrease
    monotonically, so an unchanged label sum == fixpoint (the
    convergence check is one tiny aggregate per round)."""

    # two joins run concurrently in each round's DAG; halve so their
    # combined aggregator-actor demand still fits the cluster
    num_partitions = max(2, _adaptive_partitions(num_partitions * 2) // 2)

    def ends(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes = np.concatenate([s, d])
        return pa.table({"node": pa.array(nodes, pa.int64()),
                         "label": pa.array(nodes, pa.int64())})

    from ..stages.agg import bucket_aggregate

    labels = bucket_aggregate(
        edges.map_batches(ends, batch_format="pyarrow", batch_size=None),
        ["node"], {"label": "min"}).materialize()
    prev_sum = labels.sum("label")

    def from_dst(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"], "label": t["label"]})

    def from_src(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["dst"], "label": t["label"]})

    converged = False
    for _ in range(max_rounds):
        c1 = (edges.join(labels, join_type="inner",
                         num_partitions=num_partitions,
                         on=("dst",), right_on=("node",))
              .map_batches(from_dst, batch_format="pyarrow", batch_size=None))
        c2 = (edges.join(labels, join_type="inner",
                         num_partitions=num_partitions,
                         on=("src",), right_on=("node",))
              .map_batches(from_src, batch_format="pyarrow", batch_size=None))
        new_labels = bucket_aggregate(
            c1.union(c2).union(labels),
            ["node"], {"label": "min"}).materialize()
        s = new_labels.sum("label")
        labels = new_labels
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
        _handle_nonconverged(max_rounds, on_nonconverged)
    return labels


def attach_labels(ids: np.ndarray, labels) -> np.ndarray:
    """Map node ids -> component labels (vectorized searchsorted over
    the sorted label table); ids without a label keep their own id
    (singleton components)."""
    ids = np.asarray(ids, dtype=np.int64)
    nodes = labels["node"].to_numpy().astype(np.int64)
    labs = labels["label"].to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="mergesort")
    nodes, labs = nodes[order], labs[order]
    out = ids.copy()
    if nodes.size:
        pos = np.searchsorted(nodes, ids)
        pos_c = np.minimum(pos, nodes.size - 1)
        hit = nodes[pos_c] == ids
        out[hit] = labs[pos_c[hit]]
    return out


def attach_labels_join(ds, labels_ds, id_col: str = "doc_id",
                       num_partitions: int = 16):
    """Distributed label attach: left-join the corpus id column against
    the (node, label) Dataset; unmatched ids (singletons) keep their own
    id.  This is the 100 TB path — the corpus streams through one hash
    join, the label table is never collected."""
    joined = ds.join(labels_ds, join_type="left_outer",
                     num_partitions=_adaptive_partitions(num_partitions),
                     on=(id_col,), right_on=("node",))

    def fin(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.int64())
        lab = pc.coalesce(pc.cast(t["label"], pa.int64()), ids)
        return pa.table({id_col: ids, "cluster": lab})

    return joined.map_batches(fin, batch_format="pyarrow", batch_size=None)


def attach_clusters(ds, edges, id_col: str = "doc_id",
                    broadcast_threshold: int = 5_000_000,
                    num_partitions: int = 16, max_rounds: int = 50,
                    path: str | None = None):
    """Label every row of ``ds`` with its dedup-cluster representative:
    cc_min_label over ``edges`` then a size-dispatched attach.

    - broadcast (label count <= ``broadcast_threshold``): the (node,
      label) table rides to every task, vectorized searchsorted attach —
      fine while the DUPLICATED-doc count is small;
    - join (the 100 TB path): :func:`attach_labels_join` hash-joins the
      corpus id column against the label Dataset, nothing
      dup-count-proportional on the driver.

    Returns a Dataset (id_col, cluster); singletons keep their own id.
    ``path`` forces 'broadcast' or 'join' (parity tests)."""
    labels_ds = cc_min_label(edges, max_rounds=max_rounds, as_dataset=True)
    labels_ds = labels_ds.materialize()
    if path is None:
        path = ("broadcast" if labels_ds.count() <= broadcast_threshold
                else "join")
    elif path not in ("broadcast", "join"):
        raise ValueError(f"attach_clusters: unknown path {path!r}")

    def to_i64(t: pa.Table) -> pa.Table:
        # int64 ids in both branches; join keys must match the label
        # table's int64 node column
        return pa.table({id_col: pc.cast(t[id_col], pa.int64())})

    ids_only = ds.select_columns([id_col]).map_batches(
        to_i64, batch_format="pyarrow", batch_size=None)
    if path == "broadcast":
        labels = labels_ds.to_pandas()

        def attach(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            clu = attach_labels(ids, labels)
            return pa.table({id_col: pa.array(ids, pa.int64()),
                             "cluster": pa.array(clu, pa.int64())})

        return ids_only.map_batches(attach, batch_format="pyarrow",
                                    batch_size=None)
    return attach_labels_join(ids_only, labels_ds, id_col=id_col,
                              num_partitions=num_partitions)


def jaccard_pairs(texts_a, texts_b, k: int = 5) -> np.ndarray:
    """Exact k-shingle Jaccard for a batch of candidate pairs.

    Shingle hashes for both sides are computed batch-wide (the
    vectorized _window_hashes path); the per-pair set intersection is
    a loop over PAIRS — by construction the verify stage only ever
    sees the LSH-pruned candidate set, orders of magnitude smaller
    than the corpus, so per-pair cost is the intended budget."""
    da, oa = _utf8_buffer(texts_a)
    db, ob = _utf8_buffer(texts_b)
    wa, woa = _window_hashes(da, oa, k)
    wb, wob = _window_hashes(db, ob, k)
    n = len(oa) - 1
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        sa = np.unique(wa[woa[i]:woa[i + 1]])
        sb = np.unique(wb[wob[i]:wob[i + 1]])
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        out[i] = 1.0 if union == 0 else inter / union
    return out


def colliding_bucket_sizes(bands):
    """Bucket sizes restricted to COLLIDING buckets (size >= 2) — the
    only ones that generate candidate pairs / partner counts.  One
    groupby over the band rows; returns a Dataset (band_id, band_hash,
    bucket_size).  Shared by lsh_partner_counts and
    lsh_candidate_pairs so scale guards live in one place."""

    def only_colliding(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["bucket_size"], pa.scalar(2)))

    from ..stages.agg import bucket_aggregate

    return (bucket_aggregate(bands, ["band_id", "band_hash"],
                             {"bucket_size": "count"})
            .map_batches(only_colliding, batch_format="pyarrow",
                         batch_size=None))


def lsh_candidate_pairs(bands, num_partitions: int = 16,
                        broadcast_threshold: int = 2_000_000,
                        path: str | None = None):
    """Distinct candidate pairs (doc_a < doc_b) from LSH band
    collisions: restrict the band rows to COLLIDING buckets (size>=2),
    emit each bucket's pairs via groupby over that pruned subset, and
    dedupe pairs that collide in several bands with one tiny groupby.
    Returns a Dataset (doc_a, doc_b, n_bands).

    The colliding-bucket pruning is size-dispatched: below
    ``broadcast_threshold`` the colliding-bucket key table broadcasts
    into a per-batch merge; above it (heavily duplicated corpora) the
    band rows semi-join the colliding keys with a distributed hash
    join — nothing dup-proportional on the driver.  ``path`` forces
    'broadcast' or 'join' (parity tests)."""
    import pandas as pd

    # `bands` feeds TWO consumers (the colliding-size count and the
    # pair emission); left lazy, Ray would execute the whole upstream
    # banding pipeline twice.  Pin it once — band rows are three int64
    # columns, and blocks spill to the object store at scale.
    bands = bands.materialize()
    sizes_ds = colliding_bucket_sizes(bands).materialize()
    if path is None:
        path = ("broadcast" if sizes_ds.count() <= broadcast_threshold
                else "join")
    elif path not in ("broadcast", "join"):
        raise ValueError(f"lsh_candidate_pairs: unknown path {path!r}")

    if path == "broadcast":
        sizes = sizes_ds.to_pandas()

        def in_colliding(df: pd.DataFrame) -> pd.DataFrame:
            return df.merge(sizes[["band_id", "band_hash"]],
                            on=["band_id", "band_hash"])

        colliding = bands.map_batches(in_colliding, batch_format="pandas",
                                      batch_size=None)
    else:
        keys = sizes_ds.select_columns(["band_id", "band_hash"])
        joined = bands.join(keys, join_type="inner",
                            num_partitions=_adaptive_partitions(num_partitions),
                            on=("band_id", "band_hash"))
        colliding = joined.select_columns(["band_id", "band_hash", "doc_id"])

    # pair emission on COARSE buckets: a groupby over the raw
    # (band_id, band_hash) keys pays Ray's per-distinct-key reduce cost
    # (~1 ms/key — the groupby cliff, stages/agg.bucket_aggregate
    # docstring) and colliding-bucket counts are corpus-proportional.
    # Instead hash each colliding bucket onto 256 coarse partitions and
    # emit EVERY partition's pairs in one vectorized segment pass.
    def add_pbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = pd.util.hash_pandas_object(df[["band_id", "band_hash"]],
                                       index=False).to_numpy()
        df["_pbkt"] = (h % np.uint64(256)).astype(np.int64)
        return df

    def per_coarse(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band_id", "band_hash", "doc_id"],
                          kind="mergesort")
        g = g.drop_duplicates(["band_id", "band_hash", "doc_id"])
        if len(g) < 2:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                 "doc_b": pd.Series(dtype="int64")})
        ids = g["doc_id"].to_numpy(np.int64)
        b1 = g["band_id"].to_numpy(np.int64)
        b2 = g["band_hash"].to_numpy(np.int64)
        new = np.empty(len(g), bool)
        new[0] = True
        new[1:] = (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1])
        seg_id = np.cumsum(new) - 1
        seg_start = np.flatnonzero(new)
        # element at local offset t pairs (as doc_b) with its t earlier
        # segment-mates; ids are strictly increasing within a segment,
        # so doc_a < doc_b holds by construction
        nb = np.arange(len(g), dtype=np.int64) - seg_start[seg_id]
        b_idx = np.repeat(np.arange(len(g), dtype=np.int64), nb)
        a_idx = np.repeat(seg_start[seg_id], nb) + _ranges(nb)
        return pd.DataFrame({"doc_a": ids[a_idx], "doc_b": ids[b_idx]})

    pairs = (colliding.map_batches(add_pbucket, batch_format="pandas",
                                   batch_size=None)
             .groupby("_pbkt").map_groups(per_coarse,
                                          batch_format="pandas"))
    from ..stages.agg import bucket_aggregate

    return bucket_aggregate(pairs, ["doc_a", "doc_b"],
                            {"n_bands": "count"})


def keep_first_filter(ds, id_col="doc_id", text_col="text",
                      broadcast_threshold: int = 5_000_000,
                      num_partitions: int = 16, path: str | None = None):
    """Exact-dedup survivor FILTER: keep the min ``id_col`` of each
    equal-``text_col`` group.  Returns a Dataset with just ``id_col``.

    Two passes over the corpus build the keeper set as (hash, id) pairs
    -> groupby(hash).min — the shuffle never moves text.  Attaching the
    keeper set back is size-dispatched:

    - broadcast (keeper count <= ``broadcast_threshold``): the int64
      keeper ids collect to the driver and every task filters by
      vectorized searchsorted membership — fastest at bench scale, but
      the keeper count equals the number of UNIQUE documents, so it is
      corpus-proportional and must not be the only path.
    - semi-join (the 100 TB path): ``Dataset.join`` of the id column
      against the keepers Dataset — nothing corpus-proportional ever
      reaches the driver.

    ``path`` forces 'broadcast' or 'join' (parity tests); default
    dispatches on the keeper count."""

    def hash_ids(t: pa.Table) -> pa.Table:
        return pa.table({
            "text_hash": pa.array(text_hash64(t[text_col]).astype(np.int64),
                                  pa.int64()),
            id_col: pc.cast(t[id_col], pa.int64()),
        })

    hashed = ds.map_batches(hash_ids, batch_format="pyarrow", batch_size=None)
    from ..stages.agg import bucket_aggregate

    keepers_ds = (bucket_aggregate(hashed, ["text_hash"],
                                   {id_col: "min"})
                  .select_columns([id_col])
                  .materialize())

    if path is None:
        path = ("broadcast" if keepers_ds.count() <= broadcast_threshold
                else "join")
    elif path not in ("broadcast", "join"):
        raise ValueError(f"keep_first_filter: unknown path {path!r}")

    def to_i64(t: pa.Table) -> pa.Table:
        # both branches emit int64 ids, and the join requires key
        # dtypes to match the int64 keeper table exactly
        return pa.table({id_col: pc.cast(t[id_col], pa.int64())})

    ids_only = ds.select_columns([id_col]).map_batches(
        to_i64, batch_format="pyarrow", batch_size=None)

    if path == "broadcast":
        # np.sort (copy): the frame's buffer may be read-only Arrow memory
        keepers = np.sort(keepers_ds.to_pandas()[id_col].to_numpy(np.int64))

        def keep(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(keepers, ids)
            pos_c = np.minimum(pos, max(keepers.size - 1, 0))
            m = (keepers[pos_c] == ids) if keepers.size else np.zeros(
                ids.size, bool)
            return pa.table({id_col: pa.array(ids[m], pa.int64())})

        return ids_only.map_batches(keep, batch_format="pyarrow",
                                    batch_size=None)

    # semi-join: keeper ids are unique (one per content group) and each
    # corpus id is unique, so the inner join emits exactly the survivors
    joined = ids_only.join(keepers_ds, join_type="inner",
                           num_partitions=_adaptive_partitions(num_partitions),
                           on=(id_col,))
    return joined.select_columns([id_col])


# ---------------------------------------------------------------------------
# Sub-document addressing: byte-range hashes, line spans, word n-grams
# (round-4 session 10: the RefinedWeb-style line-dedup / n-gram
# decontamination family works on substrings of the documents, so these
# helpers hash arbitrary [start, end) ranges of one Arrow string buffer
# without materializing the substrings)
# ---------------------------------------------------------------------------

def segment_hash64(data: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """`text_hash64`'s polynomial over arbitrary byte ranges [start, end)
    of one uint8 buffer: byte b at distance d from its range end
    contributes b * BASE^d, the sum is xor-mixed with the length and
    mix64-finalized.  Equal byte ranges <=> equal hashes (collisions
    ~2^-64) with the SAME value text_hash64 gives the materialized
    substring, so range hashes and whole-string hashes can be joined."""
    starts = starts.astype(np.int64)
    ends = ends.astype(np.int64)
    n = len(starts)
    if n == 0:
        return np.empty(0, np.uint64)
    lens = ends - starts
    with np.errstate(over="ignore"):
        max_len = int(lens.max()) if n else 0
        powers = np.ones(max(max_len, 1), dtype=np.uint64)
        if max_len > 1:
            powers[1:] = _BASE
            powers = np.cumprod(powers)
        nonempty = lens > 0
        sums = np.zeros(n, dtype=np.uint64)
        total = int(lens.sum())
        if total:
            pos = np.repeat(starts, lens) + _ranges(lens)
            exp = np.repeat(ends, lens) - 1 - pos
            terms = data[pos].astype(np.uint64) * powers[exp]
            seg_starts = (np.cumsum(lens) - lens)[nonempty]
            sums[nonempty] = np.add.reduceat(terms, seg_starts)
        out = sums ^ (lens.astype(np.uint64) * _BASE)
        out[~nonempty] = _EMPTY_HASH
    return mix64(out)


def word_spans(texts):
    """Single-space word split as byte ranges: (data, doc_of_word,
    starts, ends, n_docs).  A word starts at its doc's first byte and
    after every 0x20; it ends before the next space or at the doc end —
    exactly DuckDB's string_split(text, ' ') on single-spaced text
    (multi-space/leading/trailing-space texts produce empty words on
    both sides identically EXCEPT a trailing space, which this span
    walk attributes to the next doc — the synthetic corpus has none).
    Empty docs contribute one empty word, like string_split('')."""
    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    lo, hi = int(off[0]), int(off[-1])
    empty_doc = off[:-1] == off[1:]
    spc = np.nonzero(data[lo:hi] == 32)[0] + lo
    starts = np.sort(np.concatenate([off[:-1][~empty_doc], spc + 1]))
    doc_of = np.searchsorted(off[1:], starts, side="right")
    # a word ends before the next word's space, or at its doc's end
    ends = np.empty(len(starts), np.int64)
    if len(starts):
        ends[:-1] = starts[1:] - 1
        ends[-1] = hi
        wcounts = np.bincount(doc_of, minlength=n)
        last_of_doc = np.cumsum(wcounts) - 1
        ends[last_of_doc[wcounts > 0]] = off[1:][wcounts > 0]
    if empty_doc.any():
        # splice one empty word per empty doc, keeping doc order
        ed = np.nonzero(empty_doc)[0]
        ins = np.searchsorted(doc_of, ed, side="left")
        starts = np.insert(starts, ins, off[:-1][ed])
        ends = np.insert(ends, ins, off[:-1][ed])
        doc_of = np.insert(doc_of, ins, ed)
    return data, doc_of, starts, ends, n


def line_spans(texts, words_per_line: int = 8):
    """Fixed-width pseudo-lines: every run of `words_per_line` words is
    one line (the tail line holds the remainder).  Returns (data,
    doc_of_line, starts, ends) byte ranges covering each line WITHOUT
    the separating space — i.e. exactly the string
    string_agg(words, ' ') of the line's words."""
    data, doc_of_w, ws, we, n = word_spans(texts)
    wcounts = np.bincount(doc_of_w, minlength=n)
    widx = _ranges(wcounts)
    head = widx % words_per_line == 0
    starts = ws[head]
    doc_of = doc_of_w[head]
    ends = np.empty(len(starts), np.int64)
    if len(starts):
        # a line ends where its doc's next line starts (minus the
        # space), or at its doc's last word's end
        ends[:-1] = starts[1:] - 1
        ends[-1] = we[-1] if len(we) else 0
        lcounts = np.bincount(doc_of, minlength=n)
        last_line = np.cumsum(lcounts) - 1
        has = lcounts > 0
        doc_last_word_end = np.zeros(n, np.int64)
        doc_last_word_end[wcounts > 0] = we[np.cumsum(wcounts)[wcounts > 0] - 1]
        ends[last_line[has]] = doc_last_word_end[has]
    return data, doc_of, starts, ends


def wordgram_hashes(texts, n_words: int):
    """Word n-gram hashes per doc: every run of n_words consecutive
    words, hashed as the joined string words[i:i+n] + ' ' separators
    (segment_hash64 over the byte range, so the hash EQUALS
    text_hash64(string_agg(gram_words, ' '))).  Docs with fewer than
    n_words words contribute nothing.  Returns (doc_of_gram, hashes)."""
    data, doc_of_w, ws, we, n = word_spans(texts)
    wcounts = np.bincount(doc_of_w, minlength=n)
    gcounts = np.maximum(wcounts - n_words + 1, 0)
    total = int(gcounts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    word_base = np.cumsum(wcounts) - wcounts       # first word idx per doc
    g0 = np.repeat(word_base[gcounts > 0], gcounts[gcounts > 0]) + \
        _ranges(gcounts[gcounts > 0])              # global idx of gram's word 0
    doc_of = np.repeat(np.arange(n)[gcounts > 0], gcounts[gcounts > 0])
    starts = ws[g0]
    ends = we[g0 + n_words - 1]
    return doc_of, segment_hash64(data, starts, ends)


# --- persisted incremental-dedup index -------------------------------------

def build_hash_index(ds, index_dir: str, text_col: str = "text",
                     id_col: str = "doc_id", num_buckets: int = 256) -> None:
    """Persisted exact-dup index for INCREMENTAL corpus operation: one
    (text_hash, doc_id) parquet layout partitioned by hash bucket
    (hive directories, the ivf_build_index pattern).  A later crawl
    shard dedups against the standing corpus by reading ONLY the
    buckets its own hashes land in — the untouched corpus share never
    leaves storage, and the index grows by appending each accepted
    shard's rows (same resumable-layout story as the IVF index)."""
    import os

    def mk(t: pa.Table) -> pa.Table:
        h = text_hash64(t[text_col]).astype(np.int64)
        bkt = (h.view(np.uint64) % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({
            "hash_bucket": pa.array(bkt, pa.int64()),
            "text_hash": pa.array(h, pa.int64()),
            id_col: pa.array(
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64()),
        })

    os.makedirs(index_dir, exist_ok=True)
    (ds.map_batches(mk, batch_format="pyarrow", batch_size=None,
                    zero_copy_batch=True)
     .write_parquet(os.path.join(index_dir, "buckets"),
                    partition_cols=["hash_bucket"]))


def dedup_new_against_index(new_ds, index_dir: str, text_col: str = "text",
                            id_col: str = "doc_id",
                            num_buckets: int = 256):
    """Anti-join a NEW shard against a build_hash_index layout: hash the
    shard, read ONLY the index buckets those hashes occupy (I/O-layer
    pruning), stream the probed buckets through a broadcast
    sorted-lookup that emits just the MATCHED hashes (bounded by the
    shard's cardinality, never the corpus's), and keep the shard rows
    whose hash never matched.  Returns their ids as a pandas frame —
    the new shard is the SMALL side by definition (one crawl increment
    vs the standing corpus), which is what licenses both driver
    collects.  Equality is 64-bit content-hash equality (collision
    odds ~n^2/2^64; the exact-dedup family's documented contract)."""
    import os

    import pandas as pd
    import ray.data as rd

    def hs(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pa.array(
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64()),
            "text_hash": pa.array(text_hash64(t[text_col]).astype(np.int64),
                                  pa.int64()),
        })

    hdf = (new_ds.map_batches(hs, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
           .to_pandas())  # the increment: small side by definition
    if len(hdf) == 0:  # empty shard: to_pandas may drop the schema
        return pd.DataFrame({id_col: np.empty(0, np.int64)})
    h = hdf["text_hash"].to_numpy(np.int64)
    probe = np.unique(h)
    buckets = np.unique(probe.view(np.uint64) % np.uint64(num_buckets))
    files = []
    for b in buckets.tolist():
        d = os.path.join(index_dir, "buckets", f"hash_bucket={int(b)}")
        if not os.path.isdir(d):
            continue
        files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    if files:
        def matched_only(t: pa.Table) -> pa.Table:
            ih = t["text_hash"].to_numpy(zero_copy_only=False)
            idx = np.minimum(np.searchsorted(probe, ih),
                             max(len(probe) - 1, 0))
            m = probe[idx] == ih if len(probe) else np.zeros(len(ih), bool)
            return pa.table({"text_hash": pa.array(np.unique(ih[m]),
                                                   pa.int64())})

        matched = np.unique(np.concatenate(
            [b["text_hash"].to_numpy(zero_copy_only=False)
             for b in rd.read_parquet(files, columns=["text_hash"])
             .map_batches(matched_only, batch_format="pyarrow",
                          batch_size=None)
             .iter_batches(batch_size=None, batch_format="pyarrow")]
            or [np.empty(0, np.int64)]))
    else:
        matched = np.empty(0, np.int64)
    keep = ~np.isin(h, matched)
    out = pd.DataFrame({id_col: hdf[id_col].to_numpy(np.int64)[keep]})
    return out.sort_values(id_col).reset_index(drop=True)


_MODP_BASE = 31


def segment_hash_modp(data: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray, p: int) -> np.ndarray:
    """Horner polynomial hash mod ``p`` over byte ranges [start, end):
    h = fold(h*31 + byte) % p, the EXACT value DuckDB's
    ``list_reduce(list_transform(regexp_extract_all(s,'.'),
    c -> unicode(c)), (a,b) -> (a*31+b) % p)`` computes for the same
    (ASCII) string — the cross-engine-shareable sibling of
    segment_hash64 (whose uint64 wraparound + mix64 SQL cannot
    express).  Bounds: p <= 2^40 keeps every term 127 * p < 2^47 and
    any realistic segment sum < 2^55, far inside int64.  Used for
    Bloom-filter bit positions where the hash VALUE (not just
    equality) must match the oracle."""
    starts = starts.astype(np.int64)
    ends = ends.astype(np.int64)
    n = len(starts)
    if n == 0:
        return np.empty(0, np.int64)
    lens = ends - starts
    max_len = int(lens.max()) if n else 0
    powers = np.ones(max(max_len, 1), dtype=np.int64)
    for i in range(1, max_len):
        # O(max segment length) scalar loop: cumprod would overflow
        # int64 past 31^13 BEFORE the mod could be applied
        powers[i] = powers[i - 1] * _MODP_BASE % p
    out = np.zeros(n, np.int64)
    nonempty = lens > 0
    total = int(lens.sum())
    if total:
        pos = np.repeat(starts, lens) + _ranges(lens)
        exp = np.repeat(ends, lens) - 1 - pos
        terms = data[pos].astype(np.int64) * powers[exp] % p
        # segment sums can exceed p (but not int64); one final mod
        seg_starts = (np.cumsum(lens) - lens)[nonempty]
        out[nonempty] = np.add.reduceat(terms, seg_starts) % p
    return out


def wordgram_spans(texts, n_words: int):
    """Word n-gram byte ranges per doc (the spans wordgram_hashes
    hashes): returns (data, doc_of_gram, starts, ends)."""
    data, doc_of_w, ws, we, n = word_spans(texts)
    wcounts = np.bincount(doc_of_w, minlength=n)
    gcounts = np.maximum(wcounts - n_words + 1, 0)
    total = int(gcounts.sum())
    if total == 0:
        return data, np.empty(0, np.int64), np.empty(0, np.int64), \
            np.empty(0, np.int64)
    word_base = np.cumsum(wcounts) - wcounts
    nz = gcounts > 0
    g0 = np.repeat(word_base[nz], gcounts[nz]) + _ranges(gcounts[nz])
    doc_of = np.repeat(np.arange(n)[nz], gcounts[nz])
    return data, doc_of, ws[g0], we[g0 + n_words - 1]


# --- persisted incremental NEAR-dup (MinHash) index -------------------------

def _band_keys(bh: np.ndarray) -> np.ndarray:
    """Pack (band, band_hash) into one int64 key: XOR each band column
    with a per-band mix64 seed (injective per band; cross-band key
    collisions are 2^-64, the hash-equality convention).  bh is
    (n_docs, bands) uint64 from lsh_band_hashes_batch."""
    seeds = mix64(np.arange(1001, 1001 + bh.shape[1], dtype=np.uint64))
    return (bh ^ seeds[None, :]).view(np.int64)


def build_minhash_index(ds, index_dir: str, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = 64,
                        bands: int = 16, k: int = 5,
                        num_buckets: int = 64) -> None:
    """Persisted NEAR-dup index (the MinHash sibling of
    build_hash_index, same incremental-corpus story): two parquet
    layouts under index_dir —

    - ``bands/``: one (band_key, doc_id) row per doc per band,
      hive-partitioned by band_key bucket.  A later crawl shard probes
      ONLY the buckets its own band keys occupy.
    - ``sigs/``: one (doc_id, sig fixed_size_list<int64>[num_perm]) row
      per doc, partitioned by doc_id bucket, read ONLY for the
      candidate ids the band probe surfaced (the verify stage).

    Both layouts append per accepted shard, like the exact index."""
    import os

    def mk_bands(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[text_col], num_perm=num_perm, k=k)
        keys = _band_keys(lsh_band_hashes_batch(sig, bands=bands))
        did = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat = keys.ravel()
        bkt = (flat.view(np.uint64) % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({
            "band_bucket": pa.array(bkt, pa.int64()),
            "band_key": pa.array(flat, pa.int64()),
            id_col: pa.array(np.repeat(did, bands), pa.int64()),
        })

    def mk_sigs(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[text_col], num_perm=num_perm, k=k)
        did = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = (did.view(np.uint64) % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({
            "id_bucket": pa.array(bkt, pa.int64()),
            id_col: pa.array(did, pa.int64()),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.ravel().view(np.int64), pa.int64()), num_perm),
        })

    os.makedirs(index_dir, exist_ok=True)
    (ds.map_batches(mk_bands, batch_format="pyarrow", batch_size=None,
                    zero_copy_batch=True)
     .write_parquet(os.path.join(index_dir, "bands"),
                    partition_cols=["band_bucket"]))
    (ds.map_batches(mk_sigs, batch_format="pyarrow", batch_size=None,
                    zero_copy_batch=True)
     .write_parquet(os.path.join(index_dir, "sigs"),
                    partition_cols=["id_bucket"]))


def _pruned_index_files(index_dir: str, sub: str, part_col: str,
                        buckets: np.ndarray) -> list:
    import os
    files = []
    for b in buckets.tolist():
        d = os.path.join(index_dir, sub, f"{part_col}={int(b)}")
        if not os.path.isdir(d):
            continue
        files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    return files


def neardup_new_against_index(new_ds, index_dir: str,
                              text_col: str = "text",
                              id_col: str = "doc_id",
                              num_perm: int = 64, bands: int = 16,
                              k: int = 5, num_buckets: int = 64,
                              threshold: float = 0.5) -> pd.DataFrame:
    """Probe a NEW shard against a build_minhash_index layout: shard
    signatures + band keys are computed driver-side (the increment is
    the small side by definition), the index's ``bands/`` layout is
    read ONLY in the buckets the shard's keys occupy, matched rows
    surface candidate (new, corpus) pairs, and ONLY the candidates'
    signatures are fetched from ``sigs/`` (second pruned read) for the
    verify: signature agreement >= threshold (the standard MinHash
    Jaccard estimator).  Returns one row per shard doc: doc_id,
    n_candidates (distinct corpus docs sharing >= 1 band),
    n_matched (agreement >= threshold), is_dup."""
    import pandas as pd
    import ray.data as rd

    sh = new_ds.to_pandas()
    if len(sh) == 0:
        return pd.DataFrame({id_col: np.empty(0, np.int64),
                             "n_candidates": np.empty(0, np.int64),
                             "n_matched": np.empty(0, np.int64),
                             "is_dup": np.empty(0, np.int64)})
    new_ids = sh[id_col].to_numpy(np.int64)
    sig_new = minhash_signatures(pa.array(sh[text_col].tolist()),
                                 num_perm=num_perm, k=k)
    keys_new = _band_keys(lsh_band_hashes_batch(sig_new, bands=bands))
    probe = np.unique(keys_new.ravel())
    kbuckets = np.unique(probe.view(np.uint64) % np.uint64(num_buckets))
    files = _pruned_index_files(index_dir, "bands", "band_bucket", kbuckets)

    hits = []
    if files:
        def matched_only(t: pa.Table) -> pa.Table:
            bk = t["band_key"].to_numpy(zero_copy_only=False)
            idx = np.minimum(np.searchsorted(probe, bk),
                             max(len(probe) - 1, 0))
            m = probe[idx] == bk
            return pa.table({"band_key": pa.array(bk[m], pa.int64()),
                             id_col: pa.array(
                                 t[id_col].to_numpy(zero_copy_only=False)
                                 .astype(np.int64)[m], pa.int64())})

        for b in (rd.read_parquet(files, columns=["band_key", id_col])
                  .map_batches(matched_only, batch_format="pyarrow",
                               batch_size=None)
                  .iter_batches(batch_size=None, batch_format="pyarrow")):
            hits.append((b["band_key"].to_numpy(zero_copy_only=False),
                         b[id_col].to_numpy(zero_copy_only=False)))

    # candidate (new_row, corpus_id) pairs — fully vectorized: sort
    # the shard's flat (key, row) pairs once, then searchsorted range
    # expansion per matched index row (the offsets-arithmetic idiom;
    # a per-matched-row Python loop is the scale bug when a hot band
    # collides broadly)
    flat_keys = keys_new.ravel()
    flat_rows = np.repeat(np.arange(keys_new.shape[0], dtype=np.int64),
                          keys_new.shape[1])
    korder = np.argsort(flat_keys, kind="stable")
    skeys, srows = flat_keys[korder], flat_rows[korder]

    n_cand = np.zeros(len(sh), np.int64)
    n_match = np.zeros(len(sh), np.int64)
    if hits:
        bk_all = np.concatenate([h[0] for h in hits])
        cid_all = np.concatenate([h[1] for h in hits]).astype(np.int64)
        lo = np.searchsorted(skeys, bk_all, side="left")
        hi = np.searchsorted(skeys, bk_all, side="right")
        cnt = hi - lo
        pr = srows[np.repeat(lo, cnt) + _ranges(cnt)]
        pc_ = np.repeat(cid_all, cnt)
        pairs = np.unique(np.stack([pr, pc_], axis=1), axis=0)
    else:
        pairs = np.empty((0, 2), np.int64)
    if len(pairs):
        cand_ids = np.unique(pairs[:, 1])
        sbuckets = np.unique(cand_ids.view(np.uint64)
                             % np.uint64(num_buckets))
        sfiles = _pruned_index_files(index_dir, "sigs", "id_bucket",
                                     sbuckets)

        def cand_only(t: pa.Table) -> pa.Table:
            did = t[id_col].to_numpy(zero_copy_only=False)
            m = np.isin(did, cand_ids)
            return t.filter(pa.array(m))

        got_ids, got_sigs = [], []
        for b in (rd.read_parquet(sfiles, columns=[id_col, "sig"])
                  .map_batches(cand_only, batch_format="pyarrow",
                               batch_size=None)
                  .iter_batches(batch_size=None, batch_format="pyarrow")):
            did = b[id_col].to_numpy(zero_copy_only=False)
            got_ids.append(did.astype(np.int64))
            got_sigs.append(b["sig"].combine_chunks().flatten().to_numpy(
                zero_copy_only=False).reshape(len(did), num_perm))
        cid_sorted = np.concatenate(got_ids)
        C = np.concatenate(got_sigs, axis=0)
        order = np.argsort(cid_sorted, kind="stable")
        cid_sorted, C = cid_sorted[order], C[order]
        cidx = np.searchsorted(cid_sorted, pairs[:, 1])
        need = int(np.ceil(threshold * num_perm))
        agree = (sig_new.view(np.int64)[pairs[:, 0]]
                 == C[cidx]).sum(axis=1)
        n_cand = np.bincount(pairs[:, 0], minlength=len(sh))
        n_match = np.bincount(pairs[:, 0][agree >= need],
                              minlength=len(sh))

    out = pd.DataFrame({id_col: new_ids, "n_candidates": n_cand,
                        "n_matched": n_match,
                        "is_dup": (n_match > 0).astype(np.int64)})
    return out.sort_values(id_col).reset_index(drop=True)
