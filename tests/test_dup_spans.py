"""dup_span_stats: island-merge kernel vs scalar."""

import numpy as np

from proj_ray.functions.text import merge_dup_spans


def _scalar_spans(d, p, n):
    """Per-doc interval merge, one Python loop (reference)."""
    out = {}
    by_doc = {}
    for di, pi in zip(d, p):
        by_doc.setdefault(di, []).append(pi)
    for di, ps in by_doc.items():
        spans = []
        for pi in sorted(ps):
            if spans and pi - spans[-1][1] <= n:
                spans[-1][1] = pi
            else:
                spans.append([pi, pi])
        out[di] = (len(spans), sum(b - a + n for a, b in spans))
    return out


def test_merge_dup_spans_matches_scalar():
    rng = np.random.default_rng(11)
    d = np.sort(rng.integers(0, 12, 400)).astype(np.int64)
    p = np.concatenate([np.sort(rng.choice(200, size=(d == i).sum(),
                                           replace=False))
                        for i in np.unique(d)]).astype(np.int64)
    got = merge_dup_spans(d, p, 5)
    want = _scalar_spans(d.tolist(), p.tolist(), 5)
    assert len(got) == len(want)
    for _, r in got.iterrows():
        ns, tok = want[r["doc_id"]]
        assert (r["n_spans"], r["dup_tokens"]) == (ns, tok)
