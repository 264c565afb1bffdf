"""Scalar-reference tests for the round-4 text/window additions:
Gopher-style repetition signals (functions.text.repetition_batch) and
the hopping-window aggregate (pipelines.queries.events_hopping_agg).

Both also carry full SQL oracles in the query registry; these tests pin
the kernels against INDEPENDENT per-row Python implementations so the
vectorized paths can't drift together with their oracle."""

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from proj_ray.functions.text import repetition_batch


def _scalar_repetition(text: str) -> dict:
    lines = text.split("\n")
    n_lines = len(lines)
    n_dup_lines = n_lines - len(set(lines))
    line_chars = sum(len(l) for l in lines)
    distinct_line_chars = sum(len(l) for l in set(lines))
    words = re.findall(r"\S+", text)
    n_words = len(words)
    top_word = max(Counter(words).values()) if words else 0
    bigrams = [words[i] + " " + words[i + 1] for i in range(len(words) - 1)]
    n_bigrams = len(bigrams)
    top_bigram = max(Counter(bigrams).values()) if bigrams else 0

    def frac(a, b):
        return float(a) / float(max(b, 1))

    return {
        "n_lines": n_lines,
        "n_dup_lines": n_dup_lines,
        "dup_line_frac": frac(n_dup_lines, n_lines),
        "dup_line_char_frac": frac(line_chars - distinct_line_chars,
                                   line_chars),
        "n_words": n_words,
        "top_word_count": top_word,
        "top_word_frac": frac(top_word, n_words),
        "n_bigrams": n_bigrams,
        "top_bigram_count": top_bigram,
        "top_bigram_frac": frac(top_bigram, n_bigrams),
    }


def _check_docs(texts):
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = repetition_batch(t).to_pandas()
    for i, txt in enumerate(texts):
        want = _scalar_repetition(txt)
        row = got.iloc[i]
        for k, v in want.items():
            assert row[k] == v, (i, k, row[k], v, repr(txt[:60]))


def test_repetition_crafted_cases():
    _check_docs([
        "",                                   # one empty line, no words
        " \t \n  ",                           # whitespace only
        "single",
        "a b a b\na b a b\nx",                # dup line + dominant bigram
        "w w w w w w",                        # one word repeated
        "l1\nl1\nl1\nl2",                     # 3-fold dup line
        "tab\tsep  words\nnew line words",    # mixed whitespace
        "x\n" * 5,                            # trailing-newline empties
        "unicode é é über\nüber é",
    ])


def test_repetition_random_docs():
    rng = np.random.default_rng(42)
    vocab = ["the", "cat", "sat", "on", "mat", "a", "b", "zz"]
    texts = []
    for _ in range(200):
        n_lines = int(rng.integers(0, 6))
        lines = []
        for _ in range(n_lines):
            k = int(rng.integers(0, 8))
            lines.append(" ".join(rng.choice(vocab, size=k)))
        texts.append("\n".join(lines))
    _check_docs(texts)


def test_repetition_batch_boundary_independence():
    # splitting the doc set across batches must not change any row
    texts = ["a a a\nb", "c d c d", "", "e\ne\ne"] * 10
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    whole = repetition_batch(t).to_pandas()
    parts = pd.concat([repetition_batch(t.slice(0, 7)).to_pandas(),
                       repetition_batch(t.slice(7)).to_pandas()],
                      ignore_index=True)
    pd.testing.assert_frame_equal(whole, parts)


HOP_US = 900_000_000
K = 4


def _scalar_hopping(ts_us, etypes, cents):
    acc = {}
    for t, e, c in zip(ts_us, etypes, cents):
        b = t // HOP_US
        for k in range(K):
            key = (e, b - k)
            n, s = acc.get(key, (0, 0))
            acc[key] = (n + 1, s + c)
    return acc


def test_hopping_window_agg_matches_scalar(ray_session):
    from proj_ray.pipelines.queries import QUERIES

    fn = QUERIES["events_hopping_agg"]["fn"]
    got = fn("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_type", "ts", "value"])
    ts_us = ev["ts"].astype("int64").to_numpy()
    cents = np.floor(ev["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    want = _scalar_hopping(ts_us, ev["event_type"].to_numpy(), cents)
    assert len(got) == len(want)
    for row in got.itertuples(index=False):
        n, s = want[(row.event_type, row.win_idx)]
        assert (row.n_events, row.sum_value_cents) == (n, s)
    # every event really lands in K windows
    assert got["n_events"].sum() == K * len(ev)


def test_rolling_7d_matches_scalar(ray_session):
    from proj_ray.pipelines.queries import QUERIES, _ROLL_WIN_US

    fn = QUERIES["user_rolling_7d"]["fn"]
    sf = "/root/testdata/sf0.001"
    got = fn(sf).to_pandas().set_index("event_id")
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    tu = ev["ts"].astype("int64").to_numpy()
    cents = np.floor(ev["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    assert len(got) == len(ev)
    # brute-force per-row reference (value-based inclusive window)
    for row in ev.sample(n=300, random_state=7).itertuples():
        m = (ev["user_id"].to_numpy() == row.user_id) & \
            (tu >= tu[row.Index] - _ROLL_WIN_US) & (tu <= tu[row.Index])
        assert got.loc[row.event_id, "roll_cents"] == cents[m].sum()
        assert got.loc[row.event_id, "n_in_window"] == m.sum()


def test_dup_ngram_zero_gram_docs_covered(ray_session):
    """Documents with fewer than n words appear with zero counts on
    BOTH dispatch paths (the join path's union branch)."""
    import ray.data as rd

    from proj_ray.functions.text import doc_ngram_freqs

    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": ["one two", "", "a b c a b c"]})
    out = doc_ngram_freqs(t, 3).to_pandas()
    assert set(out["doc_id"]) == {3}
    assert out["tf"].sum() == 4  # 4 trigram positions in doc 3
