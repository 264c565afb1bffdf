"""Text-analysis kernels over Arrow string columns — all vectorized via
pyarrow.compute (RE2) with zero Python-per-row work.

These are the large-scale training-data-pipeline ops: token counting,
quality scoring, language-marker id, document fingerprinting. Counting
is done with RE2 patterns whose semantics an ANSI-SQL oracle reproduces
exactly (DuckDB regexp_* is also RE2), so ratios computed from the same
integers divide to bit-identical doubles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def repetition_batch(batch: pa.Table, text_col="text",
                     id_col="doc_id") -> pa.Table:
    """Gopher-style repetition quality signals per document (the web-text
    filtering rules of Rae et al. 2021 §A1.1, public paper): duplicate-line
    fraction (by line count and by characters), most-frequent-word
    fraction and most-frequent-word-2-gram fraction.

    Everything is computed from exploded (doc, token) pairs with pandas
    C-path groupbys inside ONE batch — a document's lines/words never
    leave the UDF invocation, so the stage is an embarrassingly parallel
    map with no shuffle (100-TB shape: per-doc state is bounded by the
    doc itself).

    Exactness vs the SQL oracle: every count is an identical integer on
    both sides (lines = split on chr(10); words = RE2 ``\\S+`` tokens,
    reproduced here as split-on-``\\s+`` minus empties; bigrams = adjacent
    word pairs joined by one space), and every ratio is a single
    int->double division with a greatest(x, 1) guard, so the doubles are
    bit-identical.
    """
    import pandas as pd

    n = batch.num_rows
    out_ids = batch[id_col]

    # ---- lines: string_split(text, chr(10)) semantics
    lines = pc.split_pattern(batch[text_col], "\n")
    lflat = pc.list_flatten(lines)
    lpar = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    lchars = pc.utf8_length(lflat).to_numpy(zero_copy_only=False).astype(np.int64)
    ldf = pd.DataFrame({"d": lpar, "line": lflat.to_pandas(), "c": lchars})
    n_lines = np.zeros(n, np.int64)
    n_distinct_lines = np.zeros(n, np.int64)
    line_chars = np.zeros(n, np.int64)
    distinct_line_chars = np.zeros(n, np.int64)
    if len(ldf):
        lg = ldf.groupby("d")
        s = lg.size()
        n_lines[s.index.to_numpy()] = s.to_numpy()
        u = lg["line"].nunique()
        n_distinct_lines[u.index.to_numpy()] = u.to_numpy()
        t = lg["c"].sum()
        line_chars[t.index.to_numpy()] = t.to_numpy()
        du = ldf.drop_duplicates(["d", "line"]).groupby("d")["c"].sum()
        distinct_line_chars[du.index.to_numpy()] = du.to_numpy()

    # ---- words: RE2 \S+ tokens == split on \s+ runs, empties dropped
    wsplit = pc.split_pattern_regex(batch[text_col], r"\s+")
    wflat = pc.list_flatten(wsplit)
    wpar = pc.list_parent_indices(wsplit).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(pc.utf8_length(wflat), 0).to_numpy(zero_copy_only=False)
    words = wflat.to_pandas().to_numpy()[keep]
    wpar = wpar[keep]
    n_words = np.bincount(wpar, minlength=n).astype(np.int64)
    top_word = np.zeros(n, np.int64)
    if len(words):
        tc = (pd.DataFrame({"d": wpar, "w": words})
              .groupby(["d", "w"]).size().groupby(level=0).max())
        top_word[tc.index.to_numpy()] = tc.to_numpy()

    # ---- word 2-grams: adjacent same-doc pairs, joined by one space
    n_bigrams = np.maximum(n_words - 1, 0)
    top_bigram = np.zeros(n, np.int64)
    if len(words) > 1:
        adj = wpar[1:] == wpar[:-1]
        if adj.any():
            bd = wpar[:-1][adj]
            bg = (pd.Series(words[:-1][adj])
                  .str.cat(pd.Series(words[1:][adj]), sep=" ").to_numpy())
            bc = (pd.DataFrame({"d": bd, "b": bg})
                  .groupby(["d", "b"]).size().groupby(level=0).max())
            top_bigram[bc.index.to_numpy()] = bc.to_numpy()

    n_dup_lines = n_lines - n_distinct_lines

    def frac(num, den):
        return num.astype(np.float64) / np.maximum(den, 1).astype(np.float64)

    return pa.table({
        id_col: out_ids,
        "n_lines": pa.array(n_lines, pa.int64()),
        "n_dup_lines": pa.array(n_dup_lines, pa.int64()),
        "dup_line_frac": pa.array(frac(n_dup_lines, n_lines), pa.float64()),
        "dup_line_char_frac": pa.array(
            frac(line_chars - distinct_line_chars, line_chars), pa.float64()),
        "n_words": pa.array(n_words, pa.int64()),
        "top_word_count": pa.array(top_word, pa.int64()),
        "top_word_frac": pa.array(frac(top_word, n_words), pa.float64()),
        "n_bigrams": pa.array(n_bigrams, pa.int64()),
        "top_bigram_count": pa.array(top_bigram, pa.int64()),
        "top_bigram_frac": pa.array(frac(top_bigram, n_bigrams), pa.float64()),
    })


def _doc_words(batch: pa.Table, text_col: str, id_col: str):
    """(words, word->doc parent index, doc ids) for a batch — the shared
    RE2-``\\S+``-equivalent word stream (split on \\s+, empties dropped,
    order preserved) used by the term/ngram exploders."""
    wsplit = pc.split_pattern_regex(batch[text_col], r"\s+")
    wflat = pc.list_flatten(wsplit)
    wpar = pc.list_parent_indices(wsplit).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(pc.utf8_length(wflat), 0).to_numpy(zero_copy_only=False)
    words = wflat.to_pandas().to_numpy()[keep]
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return words, wpar[keep], ids


def _doc_ngrams(batch: pa.Table, n: int, text_col: str, id_col: str):
    """Space-joined word n-grams per document: (grams, gram->doc parent
    index, doc ids). A position starts a gram iff all n words share the
    document; grams match the SQL ``ws[k] || ' ' || ... || ws[k+n-1]``
    spelling exactly."""
    words, wpar, ids = _doc_words(batch, text_col, id_col)
    m = words.size - (n - 1)
    if m <= 0:
        return (np.empty(0, dtype=object), np.empty(0, dtype=np.int64), ids)
    valid = wpar[: m] == wpar[n - 1:]
    grams = words[: m]
    for k in range(1, n):
        grams = grams + " "
        grams = grams + words[k: m + k]
    return grams[valid], wpar[: m][valid], ids


def merge_dup_spans(d: np.ndarray, p: np.ndarray, n: int) -> "pd.DataFrame":
    """Gaps-and-islands merge of length-``n`` gram hits into maximal
    spans: hits at positions p, p' of the SAME doc merge when
    p' - p <= n (overlapping or contiguous coverage).  Input must be
    sorted by (doc, pos).  Returns per-doc (doc_id, n_spans,
    dup_tokens) where dup_tokens counts covered WORD positions —
    exactly the SQL lag()/running-sum island query."""
    import pandas as pd

    if d.size == 0:
        return pd.DataFrame({"doc_id": np.empty(0, np.int64),
                             "n_spans": np.empty(0, np.int64),
                             "dup_tokens": np.empty(0, np.int64)})
    brk = np.r_[True, (d[1:] != d[:-1]) | (p[1:] - p[:-1] > n)]
    starts = np.flatnonzero(brk)
    ends = np.r_[starts[1:], d.size] - 1
    spans = pd.DataFrame({"doc_id": d[starts].astype(np.int64),
                          "covered": (p[ends] - p[starts] + n)
                          .astype(np.int64)})
    return spans.groupby("doc_id", as_index=False).agg(
        n_spans=("covered", "size"), dup_tokens=("covered", "sum"))


def doc_ngram_freqs(batch: pa.Table, n: int = 3, text_col="text",
                    id_col="doc_id") -> pa.Table:
    """Explode a batch into (doc_id, gram, tf) rows — one row per
    DISTINCT word n-gram per document, tf = number of positions. Docs
    are rows, so counts are globally correct with no shuffle."""
    import pandas as pd

    grams, gpar, ids = _doc_ngrams(batch, n, text_col, id_col)
    g = (pd.DataFrame({"doc_id": ids[gpar], "gram": grams})
         .groupby(["doc_id", "gram"], as_index=False).size())
    return pa.table({
        "doc_id": pa.array(g["doc_id"].to_numpy(np.int64), pa.int64()),
        "gram": pa.array(g["gram"].to_numpy(), pa.string()),
        "tf": pa.array(g["size"].to_numpy(np.int64), pa.int64()),
    })


def winnow_selections(texts, k: int = 16, w: int = 8):
    """Winnowing fingerprint selection (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS document-fingerprinting algorithm): over
    each document's k-gram hash sequence slide a w-window and select
    the window's minimum hash, breaking ties by the RIGHTMOST
    position; consecutive windows re-selecting the same position
    collapse to one selection.  Documents with fewer than w grams are
    one whole-doc window (dedup._window_hashes gives every doc >= 1
    gram; short docs carry the degenerate byte-sum gram).  Guarantee
    (the paper's correctness property): any substring match of length
    >= k + w - 1 contributes at least one identical selected
    fingerprint to both documents.

    Vectorized across the batch: one flat k-gram hash pass
    (dedup._window_hashes), one strided sliding-window min +
    rightmost-argmin over the concatenated hash array with per-doc
    boundary masking, one np.unique position dedup — no per-doc
    Python.  Returns (doc_idx, pos, fp, n_grams): per-SELECTION doc
    index / gram position / uint64 fingerprint arrays (sorted by doc,
    then position) plus the per-DOC gram counts."""
    from .dedup import _ranges, _utf8_buffer, _window_hashes

    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    wh, woff = _window_hashes(data, off, k)
    counts = (woff[1:] - woff[:-1]).astype(np.int64)
    if n == 0:
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(0, np.uint64), counts
    picks = []
    long_m = counts >= w
    if long_m.any():
        # windows fully inside one doc: starts i in [woff[d], woff[d+1]-w]
        S = np.lib.stride_tricks.sliding_window_view(wh, w)
        rpos = (w - 1) - np.argmin(S[:, ::-1], axis=1)
        nwin = counts[long_m] - w + 1
        i = np.repeat(woff[:-1][long_m], nwin) + _ranges(nwin)
        picks.append(i + rpos[i])
    short_m = ~long_m
    if short_m.any():
        # one whole-doc window: rightmost position of the per-doc min
        mins = np.minimum.reduceat(wh, woff[:-1])
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        is_min = (wh == mins[doc_of]) & short_m[doc_of]
        cand = np.where(is_min, np.arange(wh.size, dtype=np.int64), -1)
        best = np.maximum.reduceat(cand, woff[:-1])
        picks.append(best[short_m])
    sel = np.unique(np.concatenate(picks))
    doc_idx = np.searchsorted(woff, sel, side="right") - 1
    return doc_idx, sel - woff[doc_idx], wh[sel], counts


def cdc_chunk_spans(texts, k: int = 16, bbits: int = 6):
    """Content-defined chunking (the LBFS / rsync / FastCDC family,
    Muthitacharoen et al. SOSP 2001): cut each document after byte
    position p whenever the k-gram hash ENDING at p has its low
    ``bbits`` bits all zero — boundaries depend only on local content,
    so an insertion early in a doc shifts, but does not rewrite, the
    chunking of everything after the next boundary (the property that
    makes chunk-level dedup robust to edits).  Expected chunk length
    ~= 2^bbits bytes (+ the k-gram ramp); no min/max clamp, so the
    definition stays stateless and batch-vectorizable.  Docs shorter
    than k (or with no qualifying gram) are one whole-doc chunk; empty
    docs one empty chunk.

    Returns (data, doc_of, starts, ends, n_docs): the flat uint8
    buffer plus per-CHUNK doc index and [start, end) byte ranges,
    chunks in document order."""
    from .dedup import _ranges, _utf8_buffer, _window_hashes

    data, off = _utf8_buffer(texts)
    n = len(off) - 1
    lens = (off[1:] - off[:-1]).astype(np.int64)
    if n == 0:
        z = np.zeros(0, np.int64)
        return data, z, z, z, 0
    wh, woff = _window_hashes(data, off, k)
    long_m = lens >= k
    mask = np.uint64((1 << bbits) - 1)
    doc_of_gram = np.repeat(np.arange(n, dtype=np.int64),
                            (woff[1:] - woff[:-1]).astype(np.int64))
    # gram i (local) covers bytes [i, i+k); a qualifying gram cuts
    # AFTER its last byte -> local cut position i + k, valid if < len
    local = np.arange(wh.size, dtype=np.int64) - woff[:-1][doc_of_gram]
    cut_m = ((wh & mask) == 0) & long_m[doc_of_gram] \
        & (local + k < lens[doc_of_gram])
    cut_doc = doc_of_gram[cut_m]
    cut_pos = off[:-1][cut_doc] + local[cut_m] + k  # global byte pos
    # per-doc chunk assembly: starts = doc start + cuts; ends = cuts +
    # doc end (cut arrays are already in (doc, position) order)
    n_cuts = np.bincount(cut_doc, minlength=n)
    n_chunks = n_cuts + 1
    coff = np.concatenate([np.zeros(1, np.int64), np.cumsum(n_chunks)])
    total = int(coff[-1])
    starts = np.empty(total, np.int64)
    ends = np.empty(total, np.int64)
    starts[coff[:-1]] = off[:-1]
    ends[coff[1:] - 1] = off[1:]
    if cut_pos.size:
        at = np.repeat(coff[:-1], n_cuts) + _ranges(n_cuts)
        starts[at + 1] = cut_pos
        ends[at] = cut_pos
    doc_of = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
    return data, doc_of, starts, ends, n
