"""Session-16 operators: web link-graph extraction, char-diversity
(Simpson), association lift, and the feature-hashed quality
classifier.  Each pinned against an independent
scalar / pure-Python reference computed straight from the parquet —
no shared code with the engine's vectorized path."""

import collections

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(
        f"{SF}/documents.parquet",
        columns=["doc_id", "text"]).to_pandas()


# ---------------------------------------------------------------------------
# link_graph_edges: scalar link generator + str.find href walk
# ---------------------------------------------------------------------------

def test_link_graph_edges_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import (_LINK_DOMS, _LINK_MOD,
                                            link_graph_edges)

    edges = collections.Counter()
    for did in docs["doc_id"]:
        did = int(did)
        for j in range(1, 2 + did % 4):
            dst = (did * 97 + j * 131) % _LINK_MOD
            edges[(did % _LINK_DOMS, dst % _LINK_DOMS)] += 1
    want = (pd.DataFrame(
        [(a, b, n) for (a, b), n in edges.items()],
        columns=["src_domain", "dst_domain", "n_links"])
        .sort_values(["src_domain", "dst_domain"]).reset_index(drop=True))
    got = link_graph_edges(SF)
    pd.testing.assert_frame_equal(got, want.astype(np.int64))


def test_link_extraction_parses_real_href_bytes(ray_session, docs):
    """The extraction must read the html BYTES, not regenerate: spot-walk
    one page's anchors with str.find and check its edge contributions."""
    from proj_ray.pipelines.queries import (_LINK_DOMS, _LINK_MOD,
                                            link_graph_edges)

    did = int(docs["doc_id"].iloc[7])
    k = 1 + did % 4
    html = "<html><body>x" + "".join(
        '<a href="https://site%d.example/page/%d">l</a>'
        % ((did * 97 + j * 131) % _LINK_MOD % _LINK_DOMS,
           (did * 97 + j * 131) % _LINK_MOD)
        for j in range(1, k + 1)) + "</body></html>"
    # str.find walk over the literal bytes
    found = []
    i = 0
    while True:
        i = html.find('href="', i)
        if i < 0:
            break
        j = html.find('"', i + 6)
        url = html[i + 6:j]
        found.append(int(url.split("site")[1].split(".")[0]))
        i = j
    assert len(found) == k
    got = link_graph_edges(SF)
    mine = got[got["src_domain"] == did % _LINK_DOMS]
    for d in found:
        assert ((mine["dst_domain"] == d).any())


# ---------------------------------------------------------------------------
# char_diversity_stats: collections.Counter reference
# ---------------------------------------------------------------------------

def test_char_diversity_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import char_diversity_stats

    got = char_diversity_stats(SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got = got.set_index("doc_id")
    for did, text in list(zip(docs["doc_id"], docs["text"]))[:50]:
        c = collections.Counter(text.encode())
        n = len(text)
        sum_sq = sum(v * v for v in c.values())
        row = got.loc[int(did)]
        assert int(row["n_chars"]) == n
        assert int(row["distinct_chars"]) == len(c)
        assert int(row["sum_sq"]) == sum_sq
        assert float(row["simpson"]) == np.float64(sum_sq) / (
            np.float64(n) * np.float64(n))


# ---------------------------------------------------------------------------
# cooc_lift_assoc: scalar pair walk + marginal lift
# ---------------------------------------------------------------------------

def test_cooc_lift_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import _LIFT_MIN_COOC, cooc_lift_assoc

    pairs = collections.Counter()
    for text in docs["text"]:
        ws = text.split()
        for d in (1, 2):
            for a, b in zip(ws, ws[d:]):
                pairs[(a, b)] += 1
    r1 = collections.Counter()
    c2 = collections.Counter()
    for (a, b), n in pairs.items():
        r1[a] += n
        c2[b] += n
    total = sum(pairs.values())
    rows = [(a, b, n,
             float(np.float64(n) * np.float64(total)
                   / np.int64(r1[a]) / np.int64(c2[b])))
            for (a, b), n in pairs.items() if n >= _LIFT_MIN_COOC]
    want = (pd.DataFrame(rows, columns=["w1", "w2", "n_cooc", "lift"])
            .sort_values(["w1", "w2"]).reset_index(drop=True))
    want["n_cooc"] = want["n_cooc"].astype(np.int64)
    got = cooc_lift_assoc(SF).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


# ---------------------------------------------------------------------------
# hashed_quality_classifier: per-word scalar Horner hash
# ---------------------------------------------------------------------------

def _scalar_word_hash(w, dim, seed):
    h = seed
    for ch in w.encode():
        h = (h * 31 + ch) % dim
    return h


def test_hashed_classifier_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import (_HC_DIM, _HC_MIX, _HC_SEED,
                                            hashed_quality_classifier)

    got = hashed_quality_classifier(SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got = got.set_index("doc_id")
    for did, text in list(zip(docs["doc_id"], docs["text"]))[:50]:
        ws = text.split(" ")
        raw = sum((_scalar_word_hash(w, _HC_DIM, _HC_SEED) * _HC_MIX)
                  % _HC_DIM - _HC_DIM // 2 for w in ws)
        row = got.loc[int(did)]
        assert int(row["n_words"]) == len(ws)
        assert int(row["raw_score"]) == raw
        assert float(row["score"]) == np.float64(raw) / np.int64(len(ws))
        assert int(row["keep"]) == (1 if raw >= 0 else 0)


# ---------------------------------------------------------------------------
# domain_link_pagerank: scalar dict-based weighted PageRank
# ---------------------------------------------------------------------------

def test_domain_pagerank_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import (_DPR_ITERS, _DPR_SCALE,
                                            _LINK_DOMS, _LINK_MOD,
                                            domain_link_pagerank)

    edges = collections.Counter()
    for did in docs["doc_id"]:
        did = int(did)
        for j in range(1, 2 + did % 4):
            dst = (did * 97 + j * 131) % _LINK_MOD
            edges[(did % _LINK_DOMS, dst % _LINK_DOMS)] += 1
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    wu = collections.Counter()
    for (u, _), w in edges.items():
        wu[u] += w
    base = _DPR_SCALE * 15 // 100
    pr = {n: _DPR_SCALE for n in nodes}
    for _ in range(_DPR_ITERS):
        infl = collections.Counter()
        for (u, v), w in edges.items():
            infl[v] += pr[u] * w // wu[u]
        pr = {n: base + infl[n] * 85 // 100 for n in nodes}
    got = domain_link_pagerank(SF).set_index("domain")
    assert len(got) == len(nodes)
    for n in nodes:
        assert int(got.loc[n, "pr"]) == pr[n]


# ---------------------------------------------------------------------------
# link_reciprocity: scalar set-membership reference
# ---------------------------------------------------------------------------

def test_link_reciprocity_scalar(ray_session, docs):
    from proj_ray.pipelines.queries import (_LINK_DOMS, _LINK_MOD,
                                            link_reciprocity)

    eset = set()
    for did in docs["doc_id"]:
        did = int(did)
        for j in range(1, 2 + did % 4):
            dst = (did * 97 + j * 131) % _LINK_MOD
            eset.add((did % _LINK_DOMS, dst % _LINK_DOMS))
    out_edges = collections.Counter()
    recip = collections.Counter()
    for u, v in eset:
        out_edges[u] += 1
        if (v, u) in eset:
            recip[u] += 1
    got = link_reciprocity(SF).set_index("src_domain")
    for u in out_edges:
        assert int(got.loc[u, "n_out_edges"]) == out_edges[u]
        assert int(got.loc[u, "n_reciprocal"]) == recip[u]
