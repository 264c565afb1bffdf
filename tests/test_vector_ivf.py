"""IVF ANN: recall against the brute-force baseline + quantizer sanity."""

import duckdb
import numpy as np
import pytest

import ray

SF = "/root/testdata/sf0.001"


def _vectors(where, limit=None):
    q = f"SELECT embedding FROM '{SF}/embeddings.parquet' {where} ORDER BY vec_id"
    if limit:
        q += f" LIMIT {limit}"
    con = duckdb.connect()
    rows = con.sql(q).fetchall()
    con.close()
    return np.array([list(r[0]) for r in rows], dtype=np.float32)


def test_kmeans_deterministic_and_unit():
    from proj_ray.functions.vector import kmeans_cosine

    S = _vectors("WHERE vec_id % 5 = 0", limit=512)
    C1 = kmeans_cosine(S, 8)
    C2 = kmeans_cosine(S, 8)
    np.testing.assert_array_equal(C1, C2)  # fully deterministic
    np.testing.assert_allclose(np.linalg.norm(C1, axis=1), 1.0, atol=1e-5)


def test_ivf_recall_vs_bruteforce(ray_session):
    from proj_ray.functions.vector import ann_cosine_topk, ann_ivf_topk
    from proj_ray.pipelines.queries import read_table

    Q = _vectors("WHERE vec_id IN (0, 1, 2)")
    S = _vectors("WHERE vec_id % 7 = 0", limit=1024)
    ds = read_table(SF, "embeddings", columns=["vec_id", "embedding"])
    exact = ann_cosine_topk(ds, Q, k=10).to_pandas()
    approx = ann_ivf_topk(ds, Q, S, k=10, ncells=16, nprobe=8).to_pandas()
    recalls = []
    for qid in range(3):
        e = set(exact[exact.qid == qid].vec_id)
        a = set(approx[approx.qid == qid].vec_id)
        recalls.append(len(e & a) / len(e))
    # synthetic embeddings are near-isotropic (worst case for IVF), so
    # the operating point probes 8/16 cells for ~0.9 recall
    assert np.mean(recalls) >= 0.8, recalls
    # rank-1 hit must be the query vector itself (sim 1 with itself)
    assert (approx[approx["rank"] == 1].vec_id.to_numpy() == [0, 1, 2]).all()


def test_ds_group_quantiles_vs_exact(ray_session):
    """The sketch-based distributed quantile (100 TB path) agrees with
    the exact map_groups median within one bin width."""
    import duckdb

    from proj_ray.functions.sketch import ds_group_quantiles
    from proj_ray.pipelines.queries import read_table

    sf = "/root/testdata/sf0.001"
    ds = read_table(sf, "customer", columns=["c_mktsegment", "c_acctbal"])
    approx = ds_group_quantiles(ds, "c_mktsegment", "c_acctbal", 0.5,
                                lo=-1000.0, hi=10000.0, nbins=4096)
    con = duckdb.connect()
    rows = con.sql(
        f"SELECT c_mktsegment, list(c_acctbal) "
        f"FROM '{sf}/customer.parquet' GROUP BY 1").fetchall()
    con.close()
    width = 11000.0 / 4096
    assert set(approx) == {k for k, _ in rows}
    # the sketch guarantee: the estimate lies within one bin width of
    # the straddling order statistics (quantile_cont midpoints two
    # values that may be many bins apart when n is small)
    for k, vals in rows:
        v = np.asarray(vals, dtype=np.float64)
        lo_q = np.quantile(v, 0.5, method="lower") - width
        hi_q = np.quantile(v, 0.5, method="higher") + width
        assert lo_q - 1e-9 <= approx[k] <= hi_q + 1e-9, (k, approx[k], lo_q, hi_q)


def test_hyperplane_signatures_f64_matches_per_plane_dots():
    """The all-planes-per-dimension accumulation is bit-identical to a
    per-plane dot_f64_ordered loop (same per-element term order) — the
    property that lets scalar goldens reproduce every bucket id."""
    from proj_ray.functions.vector import (dot_f64_ordered,
                                           hyperplane_signatures_f64,
                                           make_planes)

    rng = np.random.default_rng(3)
    M = rng.standard_normal((2000, 64)).astype(np.float32)
    planes = make_planes(64, nbits=96, seed=99)
    got = hyperplane_signatures_f64(M, planes)
    sig = np.zeros(M.shape[0], dtype=np.int64)
    for b in range(planes.shape[0]):
        bits = dot_f64_ordered(M, planes[b]) > 0.0
        sig |= bits.astype(np.int64) << np.int64(b)
    assert np.array_equal(got, sig)


def test_capped_bucket_pairs_hot_bucket_splits_and_bounds_degree():
    """A hot bucket (one signature shared by many rows) must split by
    extension signatures before pairing: the pair set equals brute
    force WITHIN final sub-buckets, per-row candidate degree stays
    ~cap-bounded, and a last-level identical cluster still pairs in
    full (its output is legitimately quadratic)."""
    from proj_ray.functions.vector import capped_bucket_pairs

    rng = np.random.default_rng(12)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    sig = np.zeros(n, dtype=np.int64)       # ONE hot bucket
    ext1 = rng.integers(0, 64, n)           # level-0 extension: 64 keys
    ext2 = rng.integers(0, 64, n)           # level-1 extension

    def get_ext(level, rows):
        return (ext1 if level == 0 else ext2)[rows]

    ia, ib = capped_bucket_pairs(ids, sig, get_ext, 2, cap=32)
    # expected: brute force within (ext1, ext2) groups of size > cap
    # at level 0, within ext1 groups that already fit the cap
    got = set(zip(ia.tolist(), ib.tolist()))
    expected = set()
    import itertools
    for k1 in np.unique(ext1):
        rows = np.flatnonzero(ext1 == k1)
        if len(rows) <= 32:
            expected |= set(itertools.combinations(rows.tolist(), 2))
        else:
            for k2 in np.unique(ext2[rows]):
                sub = rows[ext2[rows] == k2].tolist()
                expected |= set(itertools.combinations(sub, 2))
    assert got == expected
    # identical cluster at the last level: still paired in full
    m = 50
    ids2 = np.arange(m, dtype=np.int64)
    z = np.zeros(m, dtype=np.int64)
    ia, ib = capped_bucket_pairs(ids2, z, lambda l, r: z[r], 2, cap=8)
    assert len(ia) == m * (m - 1) // 2


def test_capped_bucket_pairs_ids_ordering_and_empty():
    from proj_ray.functions.vector import capped_bucket_pairs

    ids = np.array([9, 3, 7, 1], dtype=np.int64)
    sig = np.array([5, 5, 5, 5], dtype=np.int64)
    ia, ib = capped_bucket_pairs(ids, sig, lambda l, r: None, 0, cap=10)
    assert (ids[ia] < ids[ib]).all()
    assert len(ia) == 6
    e = np.array([], dtype=np.int64)
    ia, ib = capped_bucket_pairs(e, e, lambda l, r: None, 0, cap=10)
    assert len(ia) == 0


def test_pq_encode_batching_invariance_and_determinism():
    """Codes are row-independent (batch splits cannot change them) and
    the trainer is deterministic."""
    from proj_ray.functions.vector import pq_encode, pq_train

    rng = np.random.default_rng(3)
    S = rng.normal(size=(200, 64)).astype(np.float32)
    M = rng.normal(size=(333, 64)).astype(np.float32)
    b1 = pq_train(S, m=8, ks=16)
    b2 = pq_train(S, m=8, ks=16)
    assert np.array_equal(b1, b2)
    whole = pq_encode(M, b1)
    parts = np.vstack([pq_encode(M[:100], b1), pq_encode(M[100:], b1)])
    assert np.array_equal(whole, parts)
    assert whole.min() >= 0 and whole.max() < 16


