"""Mergeable sketches for holistic aggregates at scale.

Exact holistic aggregates (quantiles) need every value of a group in
one place — fine at small scale (one map_groups task per group),
unworkable at 100 TB.  The scale path is a MERGEABLE sketch:
map_batches emits one partial per batch, partials add elementwise
(associative + commutative, so Ray can tree-reduce them), and a tiny
final merge answers the quantile with bounded error.
``HistogramSketch`` is the fixed-bin variant: error is bounded by the
bin width ((hi-lo)/nbins), merge is exact (counts add)."""

from __future__ import annotations

import numpy as np


class HistogramSketch:
    """Fixed-range binned quantile sketch.

    Counts per bin over [lo, hi); values outside clamp to the edge
    bins, preserving totals so quantile ranks stay exact even when the
    declared range is too tight (the estimate then saturates at the
    range edge — widen the range, not the code)."""

    def __init__(self, lo: float, hi: float, nbins: int = 4096,
                 counts: np.ndarray | None = None):
        if not hi > lo:
            raise ValueError("HistogramSketch needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.nbins = int(nbins)
        self.counts = (np.zeros(self.nbins, dtype=np.int64)
                       if counts is None else counts.astype(np.int64))

    def add(self, values: np.ndarray) -> "HistogramSketch":
        v = np.asarray(values, dtype=np.float64)
        v = v[np.isfinite(v)]
        idx = ((v - self.lo) / (self.hi - self.lo) * self.nbins).astype(np.int64)
        idx = np.clip(idx, 0, self.nbins - 1)
        self.counts += np.bincount(idx, minlength=self.nbins)
        return self

    def merge(self, other: "HistogramSketch") -> "HistogramSketch":
        assert (self.lo, self.hi, self.nbins) == (other.lo, other.hi, other.nbins)
        return HistogramSketch(self.lo, self.hi, self.nbins,
                               self.counts + other.counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def quantile(self, q: float) -> float:
        """Linear interpolation inside the containing bin; max error is
        one bin width."""
        n = self.n
        if n == 0:
            return float("nan")
        rank = q * (n - 1)
        cum = np.cumsum(self.counts)
        b = int(np.searchsorted(cum, rank, side="right"))
        b = min(b, self.nbins - 1)
        prev = cum[b - 1] if b > 0 else 0
        in_bin = self.counts[b]
        frac = ((rank - prev) / in_bin) if in_bin > 0 else 0.5
        width = (self.hi - self.lo) / self.nbins
        return self.lo + (b + frac) * width


def ds_group_quantiles(ds, key_col: str, val_col: str, q: float,
                       lo: float, hi: float, nbins: int = 4096):
    """Distributed approximate per-group quantile: map_batches partial
    sketches -> driver merge per key -> quantile.  One pass, no
    holistic shuffle; partials are (nbins) int64 vectors per key per
    batch, tree-reducible.  Returns {key: quantile_estimate}."""
    import pyarrow as pa

    def partial(t: pa.Table):
        keys = t[key_col].to_pylist()
        vals = np.asarray(t[val_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        out_k, out_c = [], []
        import pandas as pd

        for k, g in pd.DataFrame({"k": keys, "v": vals}).groupby("k"):
            sk = HistogramSketch(lo, hi, nbins).add(g["v"].to_numpy())
            out_k.append(k)
            out_c.append(sk.counts)
        return pa.table({"key": pa.array(out_k),
                         "counts": pa.array([c.tolist() for c in out_c],
                                            pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    merged: dict = {}
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        ks = b["key"].to_pylist()
        cs = b["counts"].to_pylist()
        for k, c in zip(ks, cs):
            sk = HistogramSketch(lo, hi, nbins, np.asarray(c, dtype=np.int64))
            merged[k] = merged[k].merge(sk) if k in merged else sk
    return {k: sk.quantile(q) for k, sk in merged.items()}


# ---------------------------------------------------------------------------
# t-digest (Dunning & Ertl, "Computing extremely accurate quantiles
# using t-digests") — a mergeable quantile sketch with NO fixed value
# range (removes HistogramSketch's lo/hi requirement) and relative
# accuracy concentrated at the tails via the k1 scale function.
# Deterministic: the merging-digest formulation (sort + single sweep),
# so identical inputs (in any partitioning) produce identical digests
# after the same merge tree.
# ---------------------------------------------------------------------------

class TDigest:
    """Mergeable t-digest. ``add`` batches of values, ``merge``
    partial digests (map_batches partials -> tree reduce), then
    ``quantile(q)``.  Compression parameter delta bounds the centroid
    count (~2*delta)."""

    def __init__(self, delta: int = 200, means=None, weights=None):
        self.delta = int(delta)
        self.means = (np.asarray(means, dtype=np.float64)
                      if means is not None else np.empty(0))
        self.weights = (np.asarray(weights, dtype=np.float64)
                        if weights is not None else np.empty(0))

    # k1 scale function: k(q) = delta/(2*pi) * asin(2q - 1)
    def _k(self, q):
        return self.delta / (2.0 * np.pi) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0))

    def _compress(self, means, weights):
        """Vectorized k-space binning: sort by mean, map each point's
        mid-cumulative quantile through the scale function, and merge
        runs falling in the same unit k-bin (np.add.reduceat) — each
        output centroid spans k-width <= 1, the t-digest invariant."""
        order = np.argsort(means, kind="mergesort")
        means = means[order]
        weights = weights[order]
        total = weights.sum()
        if len(means) == 0 or total == 0:
            return np.empty(0), np.empty(0)
        q = (np.cumsum(weights) - weights / 2.0) / total
        bins = np.floor(self._k(q))
        starts = np.flatnonzero(
            np.concatenate([[True], bins[1:] != bins[:-1]]))
        w_out = np.add.reduceat(weights, starts)
        m_out = np.add.reduceat(weights * means, starts) / w_out
        return m_out, w_out

    def add(self, values) -> "TDigest":
        v = np.asarray(values, dtype=np.float64)
        v = v[np.isfinite(v)]
        if v.size == 0:
            return self
        m = np.concatenate([self.means, v])
        w = np.concatenate([self.weights, np.ones(v.size)])
        self.means, self.weights = self._compress(m, w)
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        m = np.concatenate([self.means, other.means])
        w = np.concatenate([self.weights, other.weights])
        mm, ww = self._compress(m, w)
        return TDigest(self.delta, mm, ww)

    @property
    def count(self) -> float:
        return float(self.weights.sum())

    def quantile(self, q: float) -> float:
        """Interpolated quantile: centroid i covers the cumulative-
        weight interval centered at C_i = sum(w[:i]) + w[i]/2."""
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        total = self.weights.sum()
        target = np.clip(q, 0.0, 1.0) * total
        cum = np.cumsum(self.weights) - self.weights / 2.0
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        j = np.searchsorted(cum, target) - 1
        f = (target - cum[j]) / (cum[j + 1] - cum[j])
        return float(self.means[j] + f * (self.means[j + 1] - self.means[j]))

    def to_arrays(self):
        return self.means.copy(), self.weights.copy()


def ds_quantile_tdigest(ds, val_col: str, qs, delta: int = 200,
                        reduce_batch: int = 2048):
    """Distributed quantiles via t-digest: per-batch partial digests
    inside map_batches (each shipped as (means, weights) arrays — a
    few KB), tree-reduced through an intermediate merge level (one
    digest out per ``reduce_batch`` partials, so the driver sees
    #blocks/reduce_batch rows instead of #blocks — at 10^6 blocks the
    one-level merge would be GBs), then merged on the driver; the
    corpus itself is never collected.  Works with no prior knowledge
    of the value range.  The estimate depends on the merge tree (any
    correct tree satisfies the documented rank bound — what the
    events_value_quantiles certificate gates)."""
    import pyarrow as _pa

    def partial(t):
        d = TDigest(delta).add(t[val_col].to_numpy(zero_copy_only=False))
        m, w = d.to_arrays()
        return _pa.table({"means": _pa.array([m.tolist()]),
                          "weights": _pa.array([w.tolist()])})

    def merge_level(t):
        acc = TDigest(delta)
        for m, w in zip(t["means"].to_pylist(), t["weights"].to_pylist()):
            acc = acc.merge(TDigest(delta, m, w))
        m, w = acc.to_arrays()
        return _pa.table({"means": _pa.array([m.tolist()]),
                          "weights": _pa.array([w.tolist()])})

    parts = (ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=None)
             .map_batches(merge_level, batch_format="pyarrow",
                          batch_size=reduce_batch))
    acc = TDigest(delta)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for m, w in zip(b["means"].to_pylist(), b["weights"].to_pylist()):
            acc = acc.merge(TDigest(delta, m, w))
    return [acc.quantile(q) for q in np.atleast_1d(qs)]
