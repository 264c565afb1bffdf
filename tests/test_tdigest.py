"""t-digest: unbounded-range mergeable quantiles — accuracy vs exact,
merge-tree invariance of accuracy, tail precision, distributed path."""

import numpy as np
import pytest

from proj_ray.functions.sketch import TDigest, ds_quantile_tdigest


def _mixed_sample(n=60000, seed=4):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.normal(0, 1, n // 3),
        rng.lognormal(3, 2, n // 3),          # heavy right tail
        rng.uniform(-1e6, 1e6, n - 2 * (n // 3)),
    ])


def test_tdigest_accuracy_no_range_needed():
    x = _mixed_sample()
    d = TDigest(delta=200).add(x)
    assert len(d.means) < 500  # bounded size
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = d.quantile(q)
        # rank error: where does the estimate fall in the exact CDF?
        rank = (x <= est).mean()
        assert abs(rank - q) < 0.01, (q, est, rank)


def test_tdigest_tail_accuracy():
    """k1 scaling concentrates accuracy at the tails."""
    x = _mixed_sample()
    d = TDigest(delta=200).add(x)
    for q in (0.001, 0.999):
        rank = (x <= d.quantile(q)).mean()
        assert abs(rank - q) < 0.002, (q, rank)


def test_tdigest_merge_matches_single():
    """Partial digests merged in any tree stay within the same rank
    error as a single-shot digest (the mergeability contract)."""
    x = _mixed_sample()
    parts = np.array_split(x, 7)
    acc = TDigest(delta=200)
    for p in parts:
        acc = acc.merge(TDigest(delta=200).add(p))
    for q in (0.05, 0.5, 0.95):
        rank = (x <= acc.quantile(q)).mean()
        assert abs(rank - q) < 0.015, (q, rank)
    # deterministic: same inputs + merge order => identical digest
    acc2 = TDigest(delta=200)
    for p in parts:
        acc2 = acc2.merge(TDigest(delta=200).add(p))
    assert np.array_equal(acc.means, acc2.means)
    assert np.array_equal(acc.weights, acc2.weights)


def test_tdigest_edge_cases():
    assert np.isnan(TDigest().quantile(0.5))
    d = TDigest().add([42.0])
    assert d.quantile(0.0) == d.quantile(1.0) == 42.0
    d2 = TDigest().add([np.nan, np.inf, 1.0, 2.0])  # non-finite dropped
    assert d2.count == 2.0


def test_tdigest_distributed(ray_session, sf_dir):
    """map_batches partial digests + driver merge vs exact quantiles
    of the orders totals — no lo/hi range hint anywhere."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/orders.parquet"
    ds = rd.read_parquet(path, columns=["o_totalprice"]).repartition(6)
    got = ds_quantile_tdigest(ds, "o_totalprice", [0.1, 0.5, 0.9])
    x = pq.read_table(path, columns=["o_totalprice"])[
        "o_totalprice"].to_numpy()
    for q, est in zip([0.1, 0.5, 0.9], got):
        rank = (x <= est).mean()
        assert abs(rank - q) < 0.02, (q, rank)
