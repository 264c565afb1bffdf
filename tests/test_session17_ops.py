"""Round-5 session-17 operators: mod-p Horner hash kernel (the
DuckDB-shareable hash), word-gram spans."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

P1 = 2147483647
P2 = 2147483629


def _scalar_modp(s: str, p: int) -> int:
    h = 0
    for ch in s.encode():
        h = (h * 31 + ch) % p
    return h


# ---------------------------------------------------------------------------
# segment_hash_modp: scalar + DuckDB list_reduce parity
# ---------------------------------------------------------------------------

def test_segment_hash_modp_scalar_parity():
    from proj_ray.functions.dedup import segment_hash_modp

    texts = ["hello world", "", "x", "a" * 500,
             "the quick brown fox jumps over the lazy dog " * 20]
    data = np.frombuffer("".join(texts).encode(), np.uint8)
    lens = np.array([len(t) for t in texts], np.int64)
    ends = np.cumsum(lens)
    starts = ends - lens
    for p in (P1, P2, (1 << 40) - 87):
        got = segment_hash_modp(data, starts, ends, p)
        want = np.array([_scalar_modp(t, p) for t in texts], np.int64)
        assert np.array_equal(got, want), p


def test_segment_hash_modp_long_segment_no_overflow():
    # regression: powers were built with int64 cumprod, which wraps
    # past 31^13 BEFORE the mod — any segment > 13 bytes hashed wrong
    from proj_ray.functions.dedup import segment_hash_modp

    s = "abcdefghijklmnop"  # 16 bytes: inside the old broken regime
    data = np.frombuffer(s.encode(), np.uint8)
    got = segment_hash_modp(data, np.array([0]), np.array([16]), P1)
    assert got[0] == _scalar_modp(s, P1)


def test_segment_hash_modp_duckdb_parity():
    from proj_ray.functions.dedup import segment_hash_modp

    texts = ["one two three", "mixed Case And, punct. 123!",
             "a" * 100 + " tail"]
    data = np.frombuffer("".join(texts).encode(), np.uint8)
    lens = np.array([len(t) for t in texts], np.int64)
    ends = np.cumsum(lens)
    got = segment_hash_modp(data, ends - lens, ends, P1)
    con = duckdb.connect()
    want = [con.sql(
        "SELECT list_reduce(list_transform(regexp_extract_all(?, '.'),"
        " c -> CAST(unicode(c) AS BIGINT)),"
        f" (a,b) -> (a*31+b) % {P1})", params=[t]).fetchone()[0]
        for t in texts]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# wordgram_spans: spans equal the joined word n-grams
# ---------------------------------------------------------------------------

def test_wordgram_spans_match_strings():
    from proj_ray.functions.dedup import wordgram_spans

    texts = ["a b c d e", "one two", "", "solo", "w x y z"]
    n = 3
    data, doc_of, starts, ends = wordgram_spans(pa.array(texts), n)
    want = []
    for i, t in enumerate(texts):
        ws = t.split(" ")
        for j in range(len(ws) - n + 1):
            want.append((i, " ".join(ws[j:j + n])))
    got = [(int(d), bytes(data[s:e]).decode())
           for d, s, e in zip(doc_of, starts, ends)]
    assert got == want


# ---------------------------------------------------------------------------
# DuckDB oracle over the documents table
# ---------------------------------------------------------------------------

def _oracle(name):
    con = duckdb.connect()
    for t in ["documents"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    from proj_ray.pipelines.queries import QUERIES
    return con.sql(QUERIES[name]["sql"]).fetchdf()


# ---------------------------------------------------------------------------
# or_by_key: vectorized OR reduction invariants
# ---------------------------------------------------------------------------

def test_or_by_key_matches_dict_reference():
    from proj_ray.stages.agg import or_by_key

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, 2000).astype(np.int64)
    masks = (np.int64(1) << rng.integers(0, 20, 2000).astype(np.int64))
    want = {}
    for k, m in zip(keys, masks):
        want[int(k)] = want.get(int(k), 0) | int(m)
    k, m = or_by_key(keys, masks)
    assert sorted(k.tolist()) == k.tolist()
    assert {int(a): int(b) for a, b in zip(k, m)} == want


def test_or_by_key_split_merge_invariance():
    from proj_ray.stages.agg import or_by_key

    rng = np.random.default_rng(4)
    keys = rng.integers(0, 30, 500).astype(np.int64)
    masks = (np.int64(1) << rng.integers(0, 10, 500).astype(np.int64))
    k1, m1 = or_by_key(keys, masks)
    # partial OR over arbitrary splits, then re-reduce
    cut = 137
    ka, ma = or_by_key(keys[:cut], masks[:cut])
    kb, mb = or_by_key(keys[cut:], masks[cut:])
    k2, m2 = or_by_key(np.concatenate([ka, kb]), np.concatenate([ma, mb]))
    assert np.array_equal(k1, k2) and np.array_equal(m1, m2)


# ---------------------------------------------------------------------------
# incremental_neardup_new: persisted MinHash index probe vs the scalar
# reference (independent per-doc sigs + dict buckets), at sf0.001
# ---------------------------------------------------------------------------

def _neardup_scalar_expect(sf):
    import math

    import pyarrow.parquet as pq
    from tools.freeze_goldens import ref_band_hashes, ref_minhash_sig

    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    by_id = dict(zip(docs.doc_id.astype(int), docs.text))
    corpus = {d: t for d, t in by_id.items() if d % 5 != 0}
    shard = {}
    for d, t in by_id.items():
        if d % 5 != 0:
            continue
        if d % 15 == 0 and (d + 1) in by_id:
            dt = by_id[d + 1]
            shard[d] = "zz" + str(d) + (dt[dt.index(" "):]
                                        if " " in dt else "")
        else:
            shard[d] = t
    buckets, sig_c = {}, {}
    for d, t in corpus.items():
        sig = ref_minhash_sig(t)
        sig_c[d] = sig
        for b, h in enumerate(ref_band_hashes(sig)):
            buckets.setdefault((b, int(h)), []).append(d)
    need = int(math.ceil(0.5 * 64))
    rows = []
    for d in sorted(shard):
        sig = ref_minhash_sig(shard[d])
        cands = set()
        for b, h in enumerate(ref_band_hashes(sig)):
            cands.update(buckets.get((b, int(h)), []))
        nm = sum(1 for c in cands if int((sig == sig_c[c]).sum()) >= need)
        rows.append((d, len(cands), nm, 1 if nm > 0 else 0))
    return rows


def test_incremental_neardup_scalar_parity(ray_session, tmp_path):
    import os

    from proj_ray.pipelines.queries import incremental_neardup_new

    idx = str(tmp_path / "ndidx")
    got = incremental_neardup_new(SF, index_dir=idx)
    want = _neardup_scalar_expect(SF)
    assert [tuple(r) for r in got.itertuples(index=False)] == want
    assert got.is_dup.sum() > 0          # seeded near-dups were caught
    # the persisted layout is the two pruned-probe partitionings
    assert any(d.startswith("band_bucket=")
               for d in os.listdir(os.path.join(idx, "bands")))
    assert any(d.startswith("id_bucket=")
               for d in os.listdir(os.path.join(idx, "sigs")))


def test_neardup_empty_shard(ray_session, tmp_path):
    import ray.data as rd
    from proj_ray.functions.dedup import (build_minhash_index,
                                          neardup_new_against_index)
    from proj_ray.pipelines.queries import read_table

    idx = str(tmp_path / "ndidx2")
    build_minhash_index(
        read_table(SF, "documents", columns=["doc_id", "text"]), idx)
    empty = rd.from_pandas(pd.DataFrame({"doc_id": np.empty(0, np.int64),
                                         "text": np.empty(0, str)}))
    out = neardup_new_against_index(empty, idx)
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "n_candidates", "n_matched",
                                 "is_dup"]


# ---------------------------------------------------------------------------
# rendezvous_shard: oracle parity + the HRW stability invariant
# ---------------------------------------------------------------------------

def test_rendezvous_shard_oracle_and_stability(ray_session):
    from proj_ray.pipelines.queries import _HRW_S, rendezvous_shard

    got = rendezvous_shard(SF).reset_index(drop=True)
    want = _oracle("rendezvous_shard").reset_index(drop=True)
    for c in ["doc_id", "shard", "shard_no0"]:
        assert np.array_equal(got[c].to_numpy(np.int64),
                              want[c].to_numpy(np.int64)), c
    # HRW stability: removing shard 0 reassigns ONLY shard-0 docs
    moved = got.shard != got.shard_no0
    assert (got.shard[moved] == 0).all()
    assert (got.shard[moved].count() == (got.shard == 0).sum())
    # every shard sees traffic (sanity of the score distribution)
    assert set(got.shard.unique()) == set(range(_HRW_S))


# ---------------------------------------------------------------------------
# convex_hull_ccw kernel + cluster_convex_hull invariants at sf0.001
# ---------------------------------------------------------------------------

def test_convex_hull_kernel_properties():
    from proj_ray.kernels.hull import _cross, convex_hull_ccw

    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(3, 60))
        pts = (np.round(rng.uniform(-5, 5, (n, 2)), 2) if trial % 2
               else rng.normal(size=(n, 2)))
        h = convex_hull_ccw(pts[:, 0], pts[:, 1])
        if len(h) < 3:
            continue
        # CCW with strict turns at every corner
        m = len(h)
        for i in range(m):
            o, a, b = h[i], h[(i + 1) % m], h[(i + 2) % m]
            assert _cross(o[0], o[1], a[0], a[1], b[0], b[1]) > 0
        # every input point inside or on the hull (left of every edge)
        for px, py in pts:
            assert all(_cross(h[i][0], h[i][1],
                              h[(i + 1) % m][0], h[(i + 1) % m][1],
                              px, py) >= -1e-9 for i in range(m))
        # starts at the lexicographically smallest vertex
        assert tuple(h[0]) == min(map(tuple, h))


def test_convex_hull_degenerate_inputs():
    from proj_ray.kernels.hull import convex_hull_ccw

    # all collinear: the 2-vertex extent segment
    x = np.array([0.0, 1.0, 2.0, 3.0])
    h = convex_hull_ccw(x, 2 * x)
    assert h.tolist() == [[0.0, 0.0], [3.0, 6.0]]
    # fewer than 3 distinct points: passthrough sorted
    h = convex_hull_ccw(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert h.tolist() == [[1.0, 2.0]]


def test_cluster_convex_hull_empty_sf_keeps_schema(ray_session):
    # sf0.001 has no cluster with >= 3 distinct coords: typed empty out
    from proj_ray.pipelines.queries import cluster_convex_hull

    hull = cluster_convex_hull(SF)
    assert len(hull) == 0
    assert list(hull.columns) == ["cluster", "ord", "lon", "lat"]


def test_cluster_convex_hull_contains_members(ray_session):
    from proj_ray.kernels.hull import _cross
    from proj_ray.pipelines.queries import (cluster_convex_hull,
                                            lonlat_numpy, spatial_clusters)

    sf01 = "/root/testdata/sf0.01"
    hull = cluster_convex_hull(sf01)
    assert len(hull) > 0
    lbl = spatial_clusters(sf01)
    if not isinstance(lbl, pd.DataFrame):
        lbl = lbl.to_pandas()
    lbl = lbl.drop_duplicates("pid")
    lon, lat = lonlat_numpy(lbl["pid"].to_numpy(np.int64))
    lbl = lbl.assign(lon=lon, lat=lat)
    for cl, h in list(hull.groupby("cluster"))[:50]:
        hx = h.sort_values("ord")[["lon", "lat"]].to_numpy()
        m = len(hx)
        if m < 3:
            continue
        mem = lbl[lbl.cluster == cl]
        for px, py in mem[["lon", "lat"]].to_numpy():
            assert all(_cross(hx[i][0], hx[i][1],
                              hx[(i + 1) % m][0], hx[(i + 1) % m][1],
                              px, py) >= -1e-9 for i in range(m)), cl


# ---------------------------------------------------------------------------
# cluster_diameter: hull reduction == brute force; empty-SF schema
# ---------------------------------------------------------------------------

def test_diameter_hull_reduction_equals_bruteforce():
    from proj_ray.kernels.hull import convex_hull_ccw

    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(3, 80))
        P = (np.round(rng.uniform(-3, 3, (n, 2)), 2) if trial % 2
             else rng.normal(size=(n, 2)))
        P = np.unique(P, axis=0)
        if len(P) < 3:
            continue
        dx = P[:, None, 0] - P[None, :, 0]
        dy = P[:, None, 1] - P[None, :, 1]
        brute = (dx * dx + dy * dy).max()
        h = convex_hull_ccw(P[:, 0], P[:, 1])
        hx = h[:, None, 0] - h[None, :, 0]
        hy = h[:, None, 1] - h[None, :, 1]
        assert (hx * hx + hy * hy).max() == brute


def test_cluster_diameter_empty_sf_keeps_schema(ray_session):
    from proj_ray.pipelines.queries import cluster_diameter

    out = cluster_diameter(SF)
    assert len(out) == 0
    assert list(out.columns) == ["cluster", "n_distinct", "d2_deg"]


# ---------------------------------------------------------------------------
# triangle_count_per_node: forced-path parity (broadcast vs join)
# ---------------------------------------------------------------------------

def test_triangle_paths_agree(ray_session):
    from proj_ray.pipelines.queries import triangle_count_per_node

    # sf0.001's radius graph is triangle-free: both paths typed-empty
    b = triangle_count_per_node(SF, path="broadcast")
    j = triangle_count_per_node(SF, path="join")
    assert b.equals(j) and len(b) == 0
    # sf0.01 has real triangles: exact parity
    sf01 = "/root/testdata/sf0.01"
    b = triangle_count_per_node(sf01, path="broadcast")
    j = triangle_count_per_node(sf01, path="join")
    assert len(b) > 0 and b.equals(j)
    with pytest.raises(ValueError):
        triangle_count_per_node(SF, path="nope")


# ---------------------------------------------------------------------------
# geohash_cell_agg: oracle parity + reference geohash encoding check
# ---------------------------------------------------------------------------

def _ref_geohash(lon, lat, nchars):
    # textbook bisection geohash (independent of the bit-interleave
    # implementation): alternate lon/lat halvings, 5 bits per char
    alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
    lo_x, hi_x, lo_y, hi_y = -180.0, 180.0, -90.0, 90.0
    bits, even, out, ch = 0, True, "", 0
    nbits = 0
    while len(out) < nchars:
        if even:
            mid = (lo_x + hi_x) / 2
            bit = lon >= mid
            lo_x, hi_x = (mid, hi_x) if bit else (lo_x, mid)
        else:
            mid = (lo_y + hi_y) / 2
            bit = lat >= mid
            lo_y, hi_y = (mid, hi_y) if bit else (lo_y, mid)
        ch = (ch << 1) | int(bit)
        nbits += 1
        even = not even
        if nbits == 5:
            out += alpha[ch]
            ch, nbits = 0, 0
    return out


def test_geohash_cell_agg_oracle_and_reference(ray_session):
    from proj_ray.pipelines.queries import geohash_cell_agg, lonlat_numpy
    import pyarrow.parquet as pq

    got = geohash_cell_agg(SF).reset_index(drop=True)
    want = _orc_tables(["lineitem"], "geohash_cell_agg")
    assert got["gh4"].tolist() == want["gh4"].tolist()
    for c in ["n_points", "min_pid"]:
        assert np.array_equal(got[c].to_numpy(np.int64),
                              want[c].to_numpy(np.int64)), c
    # the 20-bit prefix equals the textbook bisection geohash's first
    # 4 chars for every aggregated cell's min_pid representative
    lon, lat = lonlat_numpy(got["min_pid"].to_numpy(np.int64))
    for g, x, y in zip(got["gh4"], lon, lat):
        assert g == _ref_geohash(float(x), float(y), 4)


def _orc_tables(tables, name):
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    from proj_ray.pipelines.queries import QUERIES
    return con.sql(QUERIES[name]["sql"]).fetchdf()


# ---------------------------------------------------------------------------
# tile_pyramid_counts: pyramid consistency invariants
# ---------------------------------------------------------------------------

def test_tile_pyramid_consistency(ray_session):
    import pyarrow.parquet as pq
    from proj_ray.pipelines.queries import (_PYR_ZMAX, _PYR_ZMIN,
                                            tile_pyramid_counts)

    out = tile_pyramid_counts(SF)
    li = pq.read_table(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    total = li.num_rows
    for z in range(_PYR_ZMIN, _PYR_ZMAX + 1):
        lvl = out[out.z == z]
        assert int(lvl.n_points.sum()) == total, z
    # every parent equals the sum of its <= 4 children
    for z in range(_PYR_ZMIN, _PYR_ZMAX):
        par = out[out.z == z].set_index(["tx", "ty"]).n_points
        ch = out[out.z == z + 1].copy()
        roll = (ch.assign(tx=ch.tx // 2, ty=ch.ty // 2)
                .groupby(["tx", "ty"]).n_points.sum())
        assert par.sort_index().equals(roll.sort_index()), z


def test_minhash_index_append_equals_whole(ray_session, tmp_path):
    # the docstring's incremental claim: building the index in two
    # shard appends answers probes identically to one whole build
    import ray.data as rd
    from proj_ray.functions.dedup import (build_minhash_index,
                                          neardup_new_against_index)
    from proj_ray.pipelines.queries import read_table

    docs = read_table(SF, "documents",
                      columns=["doc_id", "text"]).to_pandas()
    whole, appended = str(tmp_path / "w"), str(tmp_path / "a")
    build_minhash_index(rd.from_pandas(docs), whole)
    build_minhash_index(rd.from_pandas(docs.iloc[:250]), appended)
    build_minhash_index(rd.from_pandas(docs.iloc[250:]), appended)
    probe = rd.from_pandas(docs.iloc[100:120])
    assert neardup_new_against_index(probe, whole).equals(
        neardup_new_against_index(probe, appended))


# ---------------------------------------------------------------------------
# hard_negatives_topk: label exclusion + scalar replica at sf0.001
# ---------------------------------------------------------------------------

def test_hard_negatives_excludes_own_label(ray_session):
    import pyarrow.parquet as pq
    from proj_ray.pipelines.queries import hard_negatives_topk

    got = hard_negatives_topk(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "label"]).to_pandas()
    lab_of = dict(zip(emb.vec_id.astype(int), emb.label.astype(int)))
    qlab = {j: lab_of[j] for j in range(3)}
    assert len(got) == 30
    for _, r in got.iterrows():
        assert lab_of[int(r.vec_id)] != qlab[int(r.qid)]
        assert int(r.vec_id) != int(r.qid)
    # scalar replica: full matrix argsort with the same comparator
    M = np.array(pq.read_table(f"{SF}/embeddings.parquet")
                 .to_pandas().sort_values("vec_id").embedding.tolist(),
                 dtype=np.float32)
    vid = np.arange(len(M))
    lab = np.array([lab_of[i] for i in vid])
    Q = M[:3]
    Qn = (Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True),
                         1e-30)).astype(np.float32)
    norms = np.where(np.linalg.norm(M, axis=1) == 0, 1.0,
                     np.linalg.norm(M, axis=1))
    sims = (M @ Qn.T) / norms[:, None]
    for j in range(3):
        ok = (lab != lab[j]) & (vid != j)
        s, ids = sims[:, j][ok], vid[ok]
        sel = np.lexsort((ids, -s))[:10]
        want = ids[sel].tolist()
        assert got[got.qid == j].sort_values("rank").vec_id.tolist() \
            == want, j
