"""Round-4 session-10 operators: line and word-gram hashes, hex spatial
index."""

import numpy as np
import duckdb
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


def _sorted(df, by):
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    return df.sort_values(by).reset_index(drop=True)


def _oracle(qname, tables, sf=SF01):
    from proj_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    return con.sql(QUERIES[qname]["sql"]).fetchdf()


# -- segment / span helpers -------------------------------------------------

def test_segment_hash_equals_text_hash():
    from proj_ray.functions.dedup import (line_spans, segment_hash64,
                                          text_hash64, word_spans)

    texts = pa.array(["a b c d e", "xx yy", "", "one",
                      "w1 w2 w3 w4 w5 w6 w7 w8 w9"])
    data, doc_of, s, e = line_spans(texts, 8)
    lines = [bytes(data[a:b]).decode() for a, b in zip(s, e)]
    assert lines == ["a b c d e", "xx yy", "", "one",
                     "w1 w2 w3 w4 w5 w6 w7 w8", "w9"]
    assert np.array_equal(segment_hash64(data, s, e),
                          text_hash64(pa.array(lines)))
    d2, dw, ws, we, n = word_spans(texts)
    words = [bytes(d2[a:b]).decode() for a, b in zip(ws, we)]
    assert words[:5] == ["a", "b", "c", "d", "e"]
    assert n == 5


def test_wordgram_hashes_match_joined_strings():
    from proj_ray.functions.dedup import text_hash64, wordgram_hashes

    doc = "q w e r t y u"
    doc_of, gh = wordgram_hashes(pa.array([doc, "too short"]), 3)
    words = doc.split()
    grams = [" ".join(words[i:i + 3]) for i in range(len(words) - 2)]
    assert np.array_equal(gh, text_hash64(pa.array(grams)))
    assert (doc_of == 0).all()  # 2-word doc has no 3-gram


# -- queries ----------------------------------------------------------------


def test_hex_cell_agg_matches_oracle(ray_session):
    from proj_ray.pipelines.queries import hex_cell_agg

    got = _sorted(hex_cell_agg(SF01), ["hex_q", "hex_r"])
    want = _sorted(_oracle("hex_cell_agg", ["lineitem"]), ["hex_q", "hex_r"])
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    assert got["n_points"].sum() == 60000  # every point assigned once
    assert len(got) > 1000  # real spatial spread


def test_hex_cube_rounding_invariant(ray_session):
    # every assigned cell must satisfy the cube constraint q+r+s=0
    # after rounding: reconstruct from the fixed (hq, hr)
    from proj_ray.pipelines.queries import hex_cell_agg

    got = hex_cell_agg(SF)
    assert ((got["hex_q"] + got["hex_r"]).abs() < 10_000).all()
    # cells are contiguous-ish ints, not garbage floats
    assert got["hex_q"].dtype == np.int64 and got["hex_r"].dtype == np.int64
