"""Distributed BPE merge training (the published byte-pair-encoding
vocabulary-learning algorithm: Sennrich, Haddow & Birch 2016, "Neural
Machine Translation of Rare Words with Subword Units").

Two-level shape:

1. The CORPUS is touched exactly once — a distributed word count
   (per-batch pandas partials -> coarse-bucket aggregate, no
   per-distinct-key groupby cliff).  Everything after operates on the
   DISTINCT-WORD vocabulary, which is orders of magnitude smaller than
   the corpus (~10^7 rows at crawl scale vs 10^12 documents).
2. K merge rounds over the vocabulary.  Size-dispatched:
   - vocab <= threshold: collected once and iterated driver-side on a
     flat numpy representation (int32 symbol codes + word-id per
     position) — every round is vectorized pair counting + vectorized
     greedy merge, no Python per word.
   - above threshold: the vocab stays a Dataset of
     (word_id, syms: list<int32>, n); each round runs a map_batches
     pair-count partial -> bounded combine (distinct-pair cardinality,
     vocab-bounded, never corpus-bounded) -> driver top-1 -> a
     broadcast (pair, new_code) merge applied in map_batches, with the
     rewritten vocab materialized per round so the lazy plan does not
     re-execute from scratch (O(K) passes over the small table, not
     O(K^2)).

Semantics pinned to the published algorithm (and the independent
scalar reference in tests/test_bpe.py): pair statistics count EVERY
adjacent occurrence including overlaps ('aaa' contributes ('a','a')
twice), merges apply greedily left-to-right (so 'aaa' merges once into
'aa'+'a'), ties on count break to the lexicographically smallest
(left, right) string pair.  No end-of-word marker (documented choice,
shared by reference and engine).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .text import _doc_words

_PAIR_SHIFT = np.int64(32)


def word_count_ds(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus -> Dataset of (word, n). One pass, one coarse shuffle."""
    from ..stages.agg import bucket_aggregate

    def partial(batch: pa.Table) -> pd.DataFrame:
        words, _, _ = _doc_words(batch, text_col, id_col)
        return pd.DataFrame({"word": words, "n": np.ones(len(words), np.int64)}
                            ).groupby("word", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return bucket_aggregate(parts, ["word"], {"n": "sum"})


# --- flat vectorized kernel (shared by both dispatch paths) ---------------

def _flatten_vocab(words, counts):
    """words -> (sym int32 flat, wid int64 flat, wcount, symtable list).

    The per-distinct-word character split is the only Python loop —
    vocab-bounded one-time setup, not per merge round."""
    table: list = []
    code: dict = {}
    sym_rows = []
    for w in words:
        row = []
        for ch in w:
            c = code.get(ch)
            if c is None:
                c = code[ch] = len(table)
                table.append(ch)
            row.append(c)
        sym_rows.append(np.array(row, np.int32))
    sym = (np.concatenate(sym_rows) if sym_rows
           else np.empty(0, np.int32))
    wid = (np.repeat(np.arange(len(words), dtype=np.int64),
                     [len(r) for r in sym_rows]) if sym_rows
           else np.empty(0, np.int64))
    return sym, wid, np.asarray(counts, np.int64), table


def pair_count_flat(sym: np.ndarray, wid: np.ndarray, wcount: np.ndarray):
    """All adjacent same-word pairs (incl. overlaps) -> (left, right, cnt)."""
    if sym.size < 2:
        return (np.empty(0, np.int32),) * 2 + (np.empty(0, np.int64),)
    valid = wid[:-1] == wid[1:]
    left = sym[:-1][valid].astype(np.int64)
    right = sym[1:][valid].astype(np.int64)
    w = wcount[wid[:-1][valid]]
    key = (left << _PAIR_SHIFT) | right
    if key.size == 0:  # single-char words only: no adjacent pairs
        return (np.empty(0, np.int32),) * 2 + (np.empty(0, np.int64),)
    # sort + reduceat keeps the accumulation in int64 the whole way:
    # bincount(weights=) sums in float64, which silently loses exactness
    # above 2^53 — real at crawl-scale weighted counts, and exact
    # integer ties are load-bearing for the tie-break rule
    order = np.argsort(key, kind="stable")
    ks = key[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    uk = ks[starts]
    cnt = np.add.reduceat(w[order], starts)
    return (uk >> _PAIR_SHIFT).astype(np.int32), \
        (uk & np.int64(0xFFFFFFFF)).astype(np.int32), cnt


def _greedy_match_mask(pos: np.ndarray) -> np.ndarray:
    """Left-to-right greedy selection among ascending match positions:
    drop a match that immediately follows a KEPT match (only reachable
    when left==right, e.g. 'aaa')."""
    if pos.size == 0:
        return np.zeros(0, bool)
    # consecutive positions form runs; within a run keep alternating
    run_start = np.zeros(pos.size, bool)
    run_start[0] = True
    run_start[1:] = pos[1:] != pos[:-1] + 1
    idx_in_run = np.arange(pos.size) - np.maximum.accumulate(
        np.where(run_start, np.arange(pos.size), 0))
    return (idx_in_run % 2) == 0


def apply_merge_flat(sym, wid, a: int, b: int, new_code: int):
    """Replace greedy (a,b) occurrences with new_code. Vectorized."""
    if sym.size < 2:
        return sym, wid
    m = (sym[:-1] == a) & (sym[1:] == b) & (wid[:-1] == wid[1:])
    pos = np.flatnonzero(m)
    pos = pos[_greedy_match_mask(pos)]
    if pos.size == 0:
        return sym, wid
    out = sym.copy()
    out[pos] = new_code
    drop = np.zeros(sym.size, bool)
    drop[pos + 1] = True
    return out[~drop], wid[~drop]


def bpe_merges_driver(words, counts, num_merges: int) -> pd.DataFrame:
    """Driver-side merge loop on the flat representation."""
    sym, wid, wcount, table = _flatten_vocab(words, counts)
    out = []
    for rank in range(1, num_merges + 1):
        l, r, c = pair_count_flat(sym, wid, wcount)
        if c.size == 0:
            break
        best = _select_best(l, r, c, table)
        if best is None:
            break
        a, b, cnt = best
        new_code = len(table)
        table.append(table[a] + table[b])
        out.append((rank, table[a], table[b], table[a] + table[b], cnt))
        sym, wid = apply_merge_flat(sym, wid, a, b, new_code)
    return pd.DataFrame(out, columns=["rank", "left", "right", "merged",
                                      "pair_count"]).astype(
        {"rank": np.int64, "pair_count": np.int64})


def _select_best(l, r, c, table):
    """Max count; ties to lexicographically smallest (left, right)."""
    if c.size == 0:
        return None
    cmax = c.max()
    if cmax <= 0:
        return None
    cand = np.flatnonzero(c == cmax)
    best = min(cand, key=lambda i: (table[l[i]], table[r[i]]))
    return int(l[best]), int(r[best]), int(cmax)


# --- distributed path ------------------------------------------------------

def bpe_merges_distributed(vocab_ds, num_merges: int) -> pd.DataFrame:
    """K rounds over a (word, n) Dataset that stays distributed.

    Per round: pair-count partials (the same flat kernel per batch) ->
    combine bounded by distinct-pair cardinality (vocab-bounded, never
    corpus-bounded) -> driver top-1 -> a broadcast (pair, new_code)
    merge applied per batch; the rewritten vocab is materialized so
    round k+1 reads it directly (O(K) passes over the small table,
    not a lazily growing O(K^2) plan).  Per-word symbol rows live in
    an Arrow list<int32> column (zero-copy flat values + offsets —
    exactly the kernel's representation); the symbol table is
    driver-held (initial charset + K merge outputs).  Codes are
    assigned from a bounded global charset pass so batches agree on
    code identity."""
    from ..stages.agg import combine_partials

    # pin the input: encode() below KeyErrors on any character absent
    # from the charset pass, so the vocab must be IDENTICAL between the
    # charset scan and the encode scan — materializing here makes that
    # hold even for a caller handing a lazy dataset with
    # nondeterministic upstream stages
    vocab_ds = vocab_ds.materialize()

    # one bounded pass: the distinct CHARACTER set (tiny domain) fixes
    # initial codes globally before any per-batch work
    def charset_partial(t: pa.Table) -> pd.DataFrame:
        chars = sorted(set("".join(t["word"].to_pylist())))
        return pd.DataFrame({"ch": chars,
                             "cnt": np.ones(len(chars), np.int64)})

    chars_df = combine_partials(
        vocab_ds.map_batches(charset_partial, batch_format="pyarrow",
                             batch_size=None),
        ["ch"], {"cnt": "sum"})
    table = sorted(chars_df["ch"].tolist())
    code = {ch: i for i, ch in enumerate(table)}

    def _list_col(rows):
        # int64 offsets (large_list): an int32 offset column wraps
        # silently past 2^31 total symbols in a batch, corrupting rows
        lens = np.fromiter((len(r) for r in rows), np.int64, len(rows))
        offsets = np.zeros(len(rows) + 1, np.int64)
        offsets[1:] = np.cumsum(lens)
        values = (np.concatenate(rows).astype(np.int32) if rows
                  else np.empty(0, np.int32))
        return pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()),
                                             pa.array(values, pa.int32()))

    def encode(t: pa.Table) -> pa.Table:
        rows = [np.fromiter((code[c] for c in w), np.int32, len(w))
                for w in t["word"].to_pylist()]
        return pa.table({"syms": _list_col(rows),
                         "n": t["n"].cast(pa.int64())})

    vocab = vocab_ds.map_batches(encode, batch_format="pyarrow",
                                 batch_size=None).materialize()

    def _flat(t: pa.Table):
        import pyarrow.compute as _pc

        syms = t["syms"].combine_chunks()
        sym = syms.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
        wid = _pc.list_parent_indices(syms).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return sym, wid, t["n"].to_numpy(zero_copy_only=False)

    out = []
    for rank in range(1, num_merges + 1):
        def count_partial(t: pa.Table) -> pd.DataFrame:
            sym, wid, n = _flat(t)
            l, r, c = pair_count_flat(sym, wid, n)
            return pd.DataFrame({"l": l.astype(np.int64),
                                 "r": r.astype(np.int64), "cnt": c})

        pairs = combine_partials(
            vocab.map_batches(count_partial, batch_format="pyarrow",
                              batch_size=None),
            ["l", "r"], {"cnt": "sum"})
        if not len(pairs):
            break
        best = _select_best(pairs["l"].to_numpy().astype(np.int32),
                            pairs["r"].to_numpy().astype(np.int32),
                            pairs["cnt"].to_numpy().astype(np.int64), table)
        if best is None:
            break
        a, b, cnt = best
        new_code = len(table)
        table.append(table[a] + table[b])
        out.append((rank, table[a], table[b], table[a] + table[b], int(cnt)))

        def apply(t: pa.Table, a=a, b=b, new_code=new_code) -> pa.Table:
            sym, wid, n = _flat(t)
            sym2, wid2 = apply_merge_flat(sym, wid, a, b, new_code)
            # rebuild offsets: a merge never empties a word, so row
            # count and the n column are unchanged
            lens = np.bincount(wid2, minlength=len(t)).astype(np.int64)
            offsets = np.zeros(len(t) + 1, np.int64)
            offsets[1:] = np.cumsum(lens)
            syms = pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()), pa.array(sym2, pa.int32()))
            return pa.table({"syms": syms, "n": pa.array(n, pa.int64())})

        vocab = vocab.map_batches(apply, batch_format="pyarrow",
                                  batch_size=None).materialize()
    return pd.DataFrame(out, columns=["rank", "left", "right", "merged",
                                      "pair_count"]).astype(
        {"rank": np.int64, "pair_count": np.int64})


def bpe_encode_counts(ds, merges: pd.DataFrame, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Corpus Dataset -> per-doc (doc_id, n_words, n_bpe_tokens) under a
    trained merge table.

    Encode semantics: iteratively merge the LOWEST-RANK pair present,
    applying it greedily left-to-right, until no ranked pair remains —
    the published GPT-2-tokenizer encode loop (it also catches a
    lower-rank pair that only becomes adjacent after a later-rank
    merge, which a single in-order replay would miss).  The scalar
    golden implements the identical loop.

    Per batch: the word stream explodes once, the DISTINCT words encode
    through a per-task cache (vocab-bounded Python, like every
    tokenizer's word cache), and per-doc totals come from one bincount
    — no shuffle at all (docs are rows)."""
    ranks = {(l, r): k for k, (l, r) in
             enumerate(zip(merges["left"], merges["right"]))}
    # rank -> pair lookup is what encode_word scans; precompute the
    # inverse list once so the scan is O(pairs present), not O(table)
    pair_of = list(ranks)

    def _encode(word: str, _cache={}) -> int:
        n = _cache.get(word)
        if n is None:
            n = _cache[word] = _encode_ranked(word)
        return n

    def _encode_ranked(word: str) -> int:
        seq = list(word)
        if len(seq) < 2:
            return len(seq)
        while True:
            best = None
            for i in range(len(seq) - 1):
                r = ranks.get((seq[i], seq[i + 1]))
                if r is not None and (best is None or r < best):
                    best = r
            if best is None:
                return len(seq)
            a, b = pair_of[best]
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq = out

    def per_batch(t: pa.Table) -> pa.Table:
        words, wpar, ids = _doc_words(t, text_col, id_col)
        uniq, inv = np.unique(words, return_inverse=True) if words.size \
            else (np.empty(0, object), np.empty(0, np.int64))
        lens = np.fromiter((_encode(w) for w in uniq), np.int64, len(uniq))
        per_word = lens[inv] if words.size else np.empty(0, np.int64)
        n_tok = np.bincount(wpar, weights=None, minlength=t.num_rows)
        n_bpe = np.zeros(t.num_rows, np.int64)
        np.add.at(n_bpe, wpar, per_word)
        return pa.table({
            "doc_id": pa.array(
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64()),
            "n_words": pa.array(n_tok.astype(np.int64), pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
        })

    return ds.map_batches(per_batch, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)


def bpe_train(ds, num_merges: int = 40, text_col: str = "text",
              id_col: str = "doc_id", collect_threshold: int = 200_000,
              force_path: str | None = None) -> pd.DataFrame:
    """Corpus Dataset -> top-K BPE merge table (rank, left, right,
    merged, pair_count). Size-dispatched on the distinct-word count."""
    vocab = word_count_ds(ds, text_col=text_col, id_col=id_col)
    vocab = vocab.materialize()
    nvocab = vocab.count()
    path = force_path or (
        "driver" if nvocab <= collect_threshold else "distributed")
    if path == "driver":
        df = vocab.to_pandas()  # size-dispatched: <= collect_threshold rows
        return bpe_merges_driver(df["word"].astype(str).to_numpy(),
                                 df["n"].to_numpy(np.int64), num_merges)
    return bpe_merges_distributed(vocab, num_merges)
