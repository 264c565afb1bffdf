"""Winnowing (MOSS) fingerprints and content-defined chunking."""

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# winnowing (MOSS) fingerprints
# ---------------------------------------------------------------------------

def _scalar_winnow(t, k=16, w=8):
    import sys
    sys.path.insert(0, "/root/repo/tools")
    from freeze_goldens import ref_winnow_selections

    return ref_winnow_selections(t, k, w)


def test_winnow_kernel_matches_scalar_ref():
    """Batch strided kernel == per-window scalar loop on the sf0.001
    corpus (positions, fingerprints and gram counts)."""
    import pyarrow.parquet as pq
    from proj_ray.functions.text import winnow_selections

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = docs["text"].to_pylist()
    d, pos, fp, n_grams = winnow_selections(texts, 16, 8)
    for i, t in enumerate(texts):
        sels, g = _scalar_winnow(t)
        assert int(n_grams[i]) == g, i
        got = {(int(p), int(v)) for p, v in zip(pos[d == i], fp[d == i])}
        want = {(p, int(v)) for p, v in sels.items()}
        assert got == want, i


def test_winnow_substring_guarantee():
    """The paper's detection property: a shared substring of length
    >= k + w - 1 always yields a shared selected fingerprint."""
    from proj_ray.functions.text import winnow_selections

    core = "The quick brown fox jumps over the lazy dog!"  # 45 >= 16+8-1
    a = "PREFIX-A ::: " + core + " ::: SUFFIX-AAAA"
    b = "totally different lead-in " + core + " and another tail"
    d, _, fp, _ = winnow_selections([a, b], 16, 8)
    assert set(fp[d == 0]) & set(fp[d == 1])


def test_winnow_short_and_empty_docs():
    from proj_ray.functions.text import winnow_selections

    d, pos, fp, n_grams = winnow_selections(["", "ab", "x" * 15], 16, 8)
    # every doc gets exactly one degenerate selection at position 0
    assert list(n_grams) == [1, 1, 1]
    assert list(d) == [0, 1, 2]
    assert list(pos) == [0, 0, 0]


# ---------------------------------------------------------------------------
# content-defined chunking
# ---------------------------------------------------------------------------

def test_cdc_kernel_matches_scalar_ref():
    """Batch span kernel == scalar substring-materializing reference on
    the sf0.001 corpus (chunk boundaries and contents)."""
    import sys

    import pyarrow.parquet as pq

    sys.path.insert(0, "/root/repo/tools")
    from freeze_goldens import ref_cdc_chunks

    from proj_ray.functions.text import cdc_chunk_spans

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = docs["text"].to_pylist()
    data, d, s, e, n = cdc_chunk_spans(texts)
    for i, t in enumerate(texts):
        want = ref_cdc_chunks(t)
        got = [data[a:b].tobytes() for a, b in zip(s[d == i], e[d == i])]
        assert got == [bytes(c) for c in want], i


def test_cdc_edit_shift_robustness():
    """The CDC property: prepending bytes changes only the chunks up
    to the first boundary — later chunk CONTENTS are preserved."""
    from proj_ray.functions.text import cdc_chunk_spans

    # genuinely varied (non-periodic) content so boundary grams occur
    import hashlib

    base = "".join(hashlib.sha256(str(j).encode()).hexdigest()
                   for j in range(40))
    edited = "INSERTED PREFIX >> " + base
    data, d, s, e, n = cdc_chunk_spans([base, edited])
    c0 = {data[a:b].tobytes() for a, b in zip(s[d == 0], e[d == 0])}
    c1 = {data[a:b].tobytes() for a, b in zip(s[d == 1], e[d == 1])}
    assert len(c0) > 2
    # every chunk of the original except (possibly) its first reappears
    first = data[s[d == 0][0]:e[d == 0][0]].tobytes()
    assert (c0 - {first}) <= c1


