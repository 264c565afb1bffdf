"""Distributed dedup machinery: vectorized hash-kernel parity with the
scalar definitions, distributed connected components, distributed LSH
bucket counting, and the label-attach paths."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from proj_ray.functions.dedup import (
    _M,
    CCNotConverged,
    attach_labels,
    attach_labels_join,
    cc_min_label,
    cc_min_label_distributed,
    minhash_signature,
    minhash_signatures,
    mix64,
    shingle_hashes,
    simhash64,
    simhash64_batch,
    text_hash64,
)

# ---------------------------------------------------------------------------
# Scalar reference implementations (the round-1 per-document definitions)
# — the vectorized batch kernels must reproduce them bit-for-bit.
# ---------------------------------------------------------------------------


def ref_text_hash64(texts):
    n = len(texts)
    out = np.empty(n, dtype=np.uint64)
    encoded = [(t or "").encode("utf-8") for t in texts]
    max_len = max((len(b) for b in encoded), default=0)
    BASE = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        powers = np.ones(max(max_len, 1), dtype=np.uint64)
        if max_len > 1:
            powers[1:] = BASE
            powers = np.cumprod(powers)
        for i, raw in enumerate(encoded):
            b = np.frombuffer(raw, dtype=np.uint8).astype(np.uint64)
            if b.size == 0:
                out[i] = np.uint64(0xCBF29CE484222325)
                continue
            out[i] = (b * powers[: b.size][::-1]).sum() ^ (np.uint64(b.size) * BASE)
    return mix64(out)


def ref_shingle_hashes(text, k=5):
    b = np.frombuffer((text or "").encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if b.size < k:
        return mix64(np.array([b.sum() if b.size else 0], dtype=np.uint64))
    with np.errstate(over="ignore"):
        n = b.size - k + 1
        acc = np.zeros(n, dtype=np.uint64)
        BASE = np.uint64(1099511628211)
        for j in range(k):
            acc = (acc * BASE + b[j:j + n]) & _M
        return mix64(acc)


def ref_minhash_signature(text, num_perm=64, k=5):
    sh = ref_shingle_hashes(text, k)
    seeds = mix64(np.arange(1, num_perm + 1, dtype=np.uint64))
    with np.errstate(over="ignore"):
        m = mix64(sh[:, None] ^ seeds[None, :])
    return m.min(axis=0)


def ref_simhash64(text, k=4):
    sh = ref_shingle_hashes(text, k)
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = bits.astype(np.int64).sum(axis=0) * 2 - sh.size
    out = np.uint64(0)
    for i in np.flatnonzero(votes > 0):
        out |= np.uint64(1) << np.uint64(i)
    return out


DOCS = ["hello world this is a test document", "", "ab", "abcd", "abcde",
        "x" * 300, "the quick brown fox jumps over the lazy dog " * 20,
        "unicode: éàü 日本語 テスト", "short",
        "hello world this is a test document"]


def test_vectorized_hash_parity_with_scalar():
    assert np.array_equal(text_hash64(DOCS), ref_text_hash64(DOCS))
    for d in DOCS:
        assert np.array_equal(shingle_hashes(d, 5), ref_shingle_hashes(d, 5))
        assert np.array_equal(minhash_signature(d), ref_minhash_signature(d))
        assert simhash64(d) == ref_simhash64(d)
    sigs = minhash_signatures(DOCS)
    for i, d in enumerate(DOCS):
        assert np.array_equal(sigs[i], ref_minhash_signature(d))
    assert np.array_equal(
        simhash64_batch(DOCS),
        np.array([ref_simhash64(d) for d in DOCS], dtype=np.uint64))


def test_vectorized_hash_arrow_inputs():
    """Arrow arrays (incl. nulls and non-zero slice offsets) hash the
    same as Python lists — the map_batches zero-copy path."""
    arr = pa.array(DOCS + [None])
    assert np.array_equal(text_hash64(arr), ref_text_hash64(DOCS + [None]))
    sl = arr.slice(2, 5)
    assert np.array_equal(text_hash64(sl), ref_text_hash64(DOCS[2:7]))
    assert np.array_equal(
        simhash64_batch(sl),
        np.array([ref_simhash64(d) for d in DOCS[2:7]], dtype=np.uint64))


# ---------------------------------------------------------------------------
# Distributed connected components
# ---------------------------------------------------------------------------


def _edges_ds(src, dst):
    import ray.data as rd

    return rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                   "dst": pa.array(dst, pa.int64())}))


def test_cc_distributed_chain_and_cycle(ray_session):
    """The Ray-join propagation rounds converge on a chain (multi-round
    diameter) + disjoint cycle, matching the driver path."""
    src = [1, 2, 3, 4, 11, 5, 6, 7]
    dst = [0, 1, 2, 3, 10, 6, 7, 5]
    labels = cc_min_label_distributed(_edges_ds(src, dst)).to_pandas()
    lab = labels.set_index("node")["label"]
    assert (lab.loc[[0, 1, 2, 3, 4]] == 0).all()
    assert (lab.loc[[10, 11]] == 10).all()
    assert (lab.loc[[5, 6, 7]] == 5).all()
    # byte-identical to the driver rounds
    drv = cc_min_label(pd.DataFrame({"src": src, "dst": dst}))
    merged = labels.sort_values("node").reset_index(drop=True)
    assert merged.equals(drv.sort_values("node").reset_index(drop=True))


def test_cc_dispatch_threshold(ray_session):
    """cc_min_label routes Dataset edge lists above the threshold
    through the distributed rounds (same labels either way)."""
    src = list(range(1, 8))
    dst = [i - 1 for i in range(1, 8)]  # one chain, diameter 7
    ds = _edges_ds(src, dst)
    via_dist = cc_min_label(ds, max_rounds=20, driver_threshold=0)
    via_driver = cc_min_label(ds, max_rounds=20, driver_threshold=10**9)
    a = via_dist.sort_values("node").reset_index(drop=True)
    b = via_driver.sort_values("node").reset_index(drop=True)
    assert a.equals(b)
    assert (a["label"] == 0).all()


def test_cc_nonconvergence_raises_and_warns(ray_session):
    chain = pd.DataFrame({"src": list(range(1, 30)),
                          "dst": list(range(0, 29))})
    # the driver path is union-find: exact for ANY diameter regardless
    # of max_rounds (the rounds budget only governs distributed rounds)
    out = cc_min_label(chain, max_rounds=2)
    assert len(out) == 30 and (out["label"] == 0).all()
    with pytest.raises(CCNotConverged):
        cc_min_label_distributed(_edges_ds(chain["src"].tolist(),
                                           chain["dst"].tolist()),
                                 max_rounds=2)


def test_attach_labels_vectorized():
    labels = pd.DataFrame({"node": [7, 3, 9], "label": [1, 1, 2]})
    ids = np.array([3, 4, 7, 8, 9, 100], dtype=np.int64)
    out = attach_labels(ids, labels)
    assert out.tolist() == [1, 4, 1, 8, 2, 100]
    # empty label table: everything a singleton
    empty = pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "label": pd.Series(dtype="int64")})
    assert attach_labels(ids, empty).tolist() == ids.tolist()


def test_attach_labels_join(ray_session):
    """Distributed attach (corpus left-joins the label table) matches
    the broadcast searchsorted attach."""
    import ray.data as rd

    corpus = rd.from_arrow(pa.table({"doc_id": pa.array([3, 4, 7, 8, 9, 100],
                                                        pa.int64())}))
    labels = rd.from_arrow(pa.table({"node": pa.array([7, 3, 9], pa.int64()),
                                     "label": pa.array([1, 1, 2], pa.int64())}))
    out = (attach_labels_join(corpus, labels).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["cluster"].tolist() == [1, 4, 1, 8, 2, 100]
    assert out["cluster"].dtype == np.int64


# ---------------------------------------------------------------------------
# Distributed LSH bucket counting
# ---------------------------------------------------------------------------


def test_lsh_partner_counts_parity(ray_session, sf_dir):
    """The distributed groupby+join bucket counting returns exactly the
    counts the (removed) driver-side pandas merge produced."""
    from proj_ray.functions.dedup import minhash_bands_batch
    from proj_ray.pipelines.queries import lsh_partner_counts
    from proj_ray.sources import read_table

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bands = ds.map_batches(lambda t: minhash_bands_batch(t),
                           batch_format="pyarrow", batch_size=None).materialize()
    got = (lsh_partner_counts(bands).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    allb = bands.to_pandas()  # test-only driver reference
    sizes = allb.groupby(["band_id", "band_hash"], as_index=False).size()
    merged = allb.merge(sizes, on=["band_id", "band_hash"])
    merged["partners"] = merged["size"] - 1
    want = (merged.groupby("doc_id", as_index=False)
            .agg(collision_partners=("partners", "sum"),
                 max_bucket_partners=("partners", "max"))
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=True)


# ---------------------------------------------------------------------------
# SimHash bands and hamming distance.
# ---------------------------------------------------------------------------


def test_simhash_bands_roundtrip_and_hamming():
    from proj_ray.functions.dedup import hamming64, simhash_bands

    rng = np.random.default_rng(7)
    u = rng.integers(0, 2**63, 50, dtype=np.int64)
    b = simhash_bands(u, n_bands=4)
    # bands reassemble to the original signature
    re = np.zeros(50, dtype=np.uint64)
    for i in range(4):
        re |= b[:, i].view(np.uint64) << np.uint64(16 * i)
    assert np.array_equal(re.view(np.int64), u)
    # hamming64 matches python int bit_count
    v = rng.integers(0, 2**63, 50, dtype=np.int64)
    got = hamming64(u, v)
    want = [(int(a) ^ int(c)).bit_count() for a, c in zip(u, v)]
    assert got.tolist() == want
    with pytest.raises(ValueError):
        simhash_bands(u, n_bands=5)


def test_scalar_jaccard_and_band_hash_views_match_batch_kernels():
    """The per-pair scalar `jaccard_ngrams` and single-signature
    `lsh_band_hashes` are the definitional twins of the segmented batch
    kernels the queries run; pin the equivalence on varied texts
    (empty, short-below-k, unicode, near-identical)."""
    import pyarrow as pa

    from proj_ray.functions.dedup import (jaccard_ngrams, jaccard_pairs,
                                          lsh_band_hashes,
                                          lsh_band_hashes_batch,
                                          minhash_signatures)

    texts = ["", "ab", "abcdef", "abcdeg", "the quick brown fox " * 4,
             "the quick brown fox " * 4 + "!", "héllo wörld ünïcode",
             "aaaaaaaaaaaa", "abababababab"]
    pairs = [(a, b) for a in texts for b in texts]
    got = jaccard_pairs(pa.array([p[0] for p in pairs]),
                        pa.array([p[1] for p in pairs]))
    want = np.array([jaccard_ngrams(a, b) for a, b in pairs])
    np.testing.assert_array_equal(got, want)

    sigs = minhash_signatures([t for t in texts if t])
    batch = lsh_band_hashes_batch(sigs)
    for i in range(sigs.shape[0]):
        assert (lsh_band_hashes(sigs[i]) == batch[i]).all()
