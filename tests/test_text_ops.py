"""Scalar-reference tests for the round-4 text additions: Gopher-style
repetition signals (functions.text.repetition_batch).

These tests pin the kernel against INDEPENDENT per-row Python
implementations so the vectorized path can't drift together with its
oracle."""

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
