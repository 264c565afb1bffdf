"""GeoparseStage against RE2: each row's first ``COORD_RE`` match through
``pc.extract_regex`` + ``pc.cast(float64)``, bit for bit, with the same
rows kept, over every page-text coordinate, a seeded random corpus,
literal edge cases and the array layouts a batch can arrive in."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from proj_ray.stages.geoparse import COORD_RE, GeoparseStage, _coord_tables

EXTRACT = pc.extract_regex  # the reference, whatever the fixture patches

ALPHABET = list("()-.,0123456789 abé")
LITERALS = ["(-0.00, -0.00)", "(1234.56, 1.00)", "x(1.2, 3.45)(7.89, -1.00)",
            "((1.23, 4.56)", "(12.34,5.67)", "(12.34, 5.67", "(é)(-12.34, 5.67)",
            "(", "", None, "(0.00, 0.00)", "(-999.99, 9999.99)", "(-1234.56, 1.00)",
            "a (00.10, -07.50) b", "(1.00, 2.00)x", "(-1.00, -2.00))"]


@pytest.fixture
def regex_rows(monkeypatch):
    """Counts the rows the stage hands to ``pc.extract_regex``."""
    seen = [0]
    extract = pc.extract_regex

    def counting(strings, *args, **kwargs):
        seen[0] += len(strings)
        return extract(strings, *args, **kwargs)

    monkeypatch.setattr(pc, "extract_regex", counting)
    return seen


def _re2(text):
    ex = EXTRACT(text, COORD_RE)
    return (pc.cast(pc.struct_field(ex, "glat"), pa.float64()),
            pc.cast(pc.struct_field(ex, "glon"), pa.float64()))


def _assert_like_re2(text):
    """The stage keeps exactly the rows RE2 matches, with RE2's doubles;
    returns how many rows matched."""
    lat, lon = _re2(text)
    i = pa.array(np.arange(len(text)))
    got = GeoparseStage(keep=("i",))(pa.table({"i": i, "text": text}))
    assert got.column_names == ["i", "lat", "lon"]
    assert got.schema.field("lat").type == pa.float64()
    found = pc.is_valid(lat)
    assert got["i"].to_numpy().tolist() == pc.filter(i, found).to_pylist()
    for col, want in (("lat", lat), ("lon", lon)):
        assert (got[col].to_numpy().tobytes()
                == pc.filter(want, found).to_numpy().tobytes()), col
    return got.num_rows


def test_every_page_text_coordinate_parses_without_re2(regex_rows):
    """Every lat and lon centi-value of the page-text tables, each in the
    page's " Coordinates: (lat, lon)" form, parses bit for bit like RE2
    + cast, and no row reaches RE2."""
    lat, lon = _coord_tables()
    i = np.arange(len(lon))
    text = pc.binary_join_element_wise(lat.take(pa.array(i % len(lat))),
                                       lon.take(pa.array(i)), "")
    assert _assert_like_re2(text) == len(text)
    assert regex_rows[0] == 0


def _noise(rng, n, most):
    """n random strings over ALPHABET, 0 to most - 1 characters each."""
    cuts = np.cumsum(rng.integers(0, most, n))
    flat = "".join(np.array(ALPHABET)[rng.integers(0, len(ALPHABET), cuts[-1])])
    return [flat[a:b] for a, b in zip(np.r_[0, cuts[:-1]], cuts)]


def _near_mentions(rng, n):
    """n strings shaped like noise "(" number sep number close noise,
    each part drawn so that some of them hold a mention."""
    def numbers():
        sign = rng.choice(["", "-"] * 4 + ["--"], n)
        whole = ["".join(map(str, rng.integers(0, 10, k)))
                 for k in rng.choice([1, 2, 3] * 3 + [0, 4, 14], n)]
        frac = ["." + "".join(map(str, rng.integers(0, 10, k)))
                for k in rng.choice([2] * 9 + [1, 3], n)]
        return [a + b + c for a, b, c in zip(sign, whole, frac)]

    parts = (_noise(rng, n, 4), rng.choice(["("] * 8 + ["((", "é("], n),
             numbers(), rng.choice([", "] * 8 + [",", ",  "], n),
             numbers(), rng.choice([")"] * 8 + ["", "))"], n),
             _noise(rng, n, 4))
    return ["".join(p) for p in zip(*parts)]


def test_random_corpus_matches_re2(regex_rows):
    """A seeded corpus of 120k random strings over the parser's alphabet:
    half drawn character by character, half shaped like near-mentions.
    A row with a '(' that does not reach RE2 is one the parser matched;
    both paths see more than 5k rows."""
    rng = np.random.default_rng(20)
    text = pa.array(_noise(rng, 60_000, 25) + _near_mentions(rng, 60_000))
    found = _assert_like_re2(text)
    with_paren = pc.sum(pc.match_substring(text, "(")).as_py()
    assert with_paren - regex_rows[0] > 5_000
    assert regex_rows[0] > 5_000
    assert found > with_paren - regex_rows[0]


def test_literal_cases_match_re2():
    """A '-0.00' pair, a four-digit run, a first '(' that opens no
    mention, a missing space or ')', a non-ASCII byte before the
    mention, a lone '(', an empty and a null row."""
    assert _assert_like_re2(pa.array(LITERALS)) == 11


@pytest.mark.parametrize("layout", ["empty", "sliced", "chunked", "large_string",
                                    "all_null"])
def test_array_layouts_match_re2(layout):
    rng = np.random.default_rng(5)
    body = [LITERALS[j] for j in rng.integers(0, len(LITERALS), 40_000)]
    text = {
        "empty": pa.array([], pa.string()),
        "sliced": pa.array(body).slice(7, 30_000),
        "chunked": pa.chunked_array([pa.array(body[:3]), pa.array([], pa.string()),
                                     pa.array(body[3:25_000]), pa.array(body[25_000:])]),
        "large_string": pa.array(body, pa.large_string()),
        "all_null": pa.array([None] * 5, pa.string()),
    }[layout]
    if layout == "sliced":
        assert text.offset == 7
    _assert_like_re2(text)
