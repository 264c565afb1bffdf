"""Web-page synthesis + geoparsing stages.

``synth_pages_stage`` turns a keyed table into the Common-Crawl-style
pages shape from BASELINE.json's input_hint
(url:string, warc_ts:timestamp, html:binary, text:string, lang:string),
embedding deterministic coordinate mentions in ``text``. Each page's
coordinates are integer centi-degrees of its pid, and their text is
gathered from per-centi-value tables formatted once with printf('%.2f'),
so an independent SQL oracle reproduces the text byte-for-byte.

``GeoparseStage`` extracts each row's first "(lat, lon)" mention, the
leftmost match of ``COORD_RE``. It parses the bytes at the row's first
``(`` with whole-column numpy word operations; only a row whose first
``(`` does not open a mention the parser can read goes through
``pyarrow.compute.extract_regex``. The ``text`` column itself is NEVER
rewritten downstream of synthesis: the per-row invariant "byte-identical
extracted text per url" falls out of passthrough (SURVEY.md §1.4).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..pipelines.derive import lonlat_numpy

COORD_RE = r"\((?P<glat>-?\d+\.\d\d), (?P<glon>-?\d+\.\d\d)\)"


@functools.lru_cache(maxsize=None)
def _coord_tables() -> tuple[pa.Array, pa.Array]:
    """The page's coordinate text per centi-value, built once per process:
    LAT[v + 8000] = ' Coordinates: (%.2f, ' % (v / 100) for lat centi v in
    [-8000, 8000), LON[v + 18000] = '%.2f)' % (v / 100) for lon centi v in
    [-18000, 18000). Python's '%.2f' is C printf; about 0.7 MB."""
    lat = pa.array([" Coordinates: (%.2f, " % (v / 100) for v in range(-8000, 8000)],
                   pa.string())
    lon = pa.array(["%.2f)" % (v / 100) for v in range(-18000, 18000)], pa.string())
    return lat, lon


def page_text(pid: np.ndarray, base=None) -> pa.Array:
    """Page text per int64 pid: [base text +] ' Coordinates: (lat, lon)'.

    The coordinate text is two gathers from the per-centi-value tables of
    ``_coord_tables`` and one ``binary_join_element_wise``. ``base`` is a
    string array without nulls, or None for no base text."""
    lat, lon = _coord_tables()
    cols = [lat.take(pa.array(pid * 7919 % 16000)),     # lat centi-value + 8000
            lon.take(pa.array(pid * 104729 % 36000))]   # lon centi-value + 18000
    if base is not None:
        cols.insert(0, base)
    return pc.binary_join_element_wise(*cols, "")


def synth_pages_batch(batch: pa.Table, pid_col: str, text_col=None) -> pa.Table:
    """One page per input row, in the pages shape; ``text`` is
    ``page_text`` over the ``text_col`` base text (nulls read as '')."""
    pid = batch[pid_col].to_numpy(zero_copy_only=False).astype(np.int64)
    base = None
    if text_col is not None:
        base = pc.fill_null(batch[text_col], "")
        if isinstance(base, pa.ChunkedArray):
            base = base.combine_chunks()
    text = page_text(pid, base)
    url = pc.binary_join_element_wise(
        "https://site", pc.cast(pa.array(pid % 1000, pa.int64()), pa.string()),
        ".example/page/", pc.cast(pa.array(pid, pa.int64()), pa.string()), "")
    langs = np.array(["en", "de", "fr", "es", "pt", "it", "nl", "pl"])
    lang = langs[(pid % 8).astype(np.int64)]
    warc_ts = (np.int64(1577836800_000000) + pid * np.int64(1_000_003)).astype(
        "datetime64[us]")
    html = pc.cast(
        pc.binary_join_element_wise("<html><body>", text, "</body></html>", ""),
        pa.binary())
    return pa.table({
        "pid": pa.array(pid, pa.int64()),
        "url": url,
        "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
        "html": html,
        "text": text,
        "lang": pa.array(lang, pa.string()),
    })


def synth_pages_stage(ds, pid_col: str, text_col=None, batch_size=None):
    def fn(batch: pa.Table) -> pa.Table:
        return synth_pages_batch(batch, pid_col, text_col)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


# The parser reads 8-byte little-endian words at any byte offset of a
# row's text (byte 0 is the lowest byte). One number, -?\d+\.\d\d, takes
# at most four bytes before its '.' (a sign and three digits, or four
# digits); a longer run is left to RE2.
_U = np.uint64
_ASCII_0 = _U(0x3030303030303030)
_LOW7, _HIGH = _U(0x7F7F7F7F7F7F7F7F), _U(0x8080808080808080)
_PLUS_118 = _U(0x7676767676767676)  # 0x76 + 10 = 0x80
_BYTE_INDEX = _U(0x0001020304050607)  # (256**b * _BYTE_INDEX) >> 56 == b
_DECIMALS = _U(0x0080800000000000)  # bytes 5-6
_NIBBLES = _U(0x000F0F000F0F0F0F)  # bytes 0-3 and 5-6
_WORD_PAD = 32  # bytes past the last row that a word or check may read
_SLICE = 16_384  # rows per parser pass: its temporaries stay in cache


def _nondigit(x):
    """Bit 7 of each byte of ``x`` set where that byte is not '0'-'9'."""
    t = x ^ _ASCII_0  # a digit byte becomes 0-9
    return (((t & _LOW7) + _PLUS_118) | t) & _HIGH


def _number(x):
    r"""The number ``-?\d+\.\d\d`` at byte 1 of each word of ``x``:
    (float64 value, whether it parsed, byte index of its '.' in ``x``).

    The value is ``±(centi-integer) / 100``, the correctly rounded double
    that Arrow's string -> float64 cast gives ('-0.00' gives -0.0)."""
    x = x >> _U(8)
    neg = (x & _U(0xFF)) == 0x2D
    x = x + neg * _U(3)  # '-' reads as a leading '0'
    flags = _nondigit(x)  # byte 7 is 0, so some byte is flagged
    low = flags & (~flags + _U(1))  # the first non-digit's flag alone
    run = ((low >> _U(7)) * _BYTE_INDEX) >> _U(56)  # sign + integer digits
    ok = (run > neg) & (run <= 4)
    shift = _U(32) - _U(8) * np.minimum(run, _U(4))
    y = x << shift  # the '.' on byte 4, the decimals on bytes 5-6
    ok &= (((y >> _U(32)) & _U(0xFF)) == 0x2E) & (((flags << shift) & _DECIMALS) == 0)
    # the six digits, most significant first, on bytes 2-7
    v = y & _NIBBLES
    v = ((v & _U(0xFFFFFFFF)) << _U(16)) | ((v >> _U(40)) << _U(48))
    # eight decimal digits -> their integer (three multiply-shift steps)
    v = (v * _U(2561)) >> _U(8)
    v = ((v & _U(0x00FF00FF00FF00FF)) * _U(6553601)) >> _U(16)
    v = ((v & _U(0x0000FFFF0000FFFF)) * _U(42949672960001)) >> _U(32)
    return v / np.where(neg, -100.0, 100.0), ok, run.astype(np.int64) + 1


def _first_parens(arr: pa.Array):
    """The non-null rows of a string array that hold a '(', the offset of
    each one's first '(' and of its end in the array's value bytes, and
    those bytes, zero-padded."""
    n = len(arr)
    none = np.empty(0, np.int64)
    if n == 0:
        return none, none, none, None
    width = np.dtype(np.int64 if pa.types.is_large_string(arr.type) else np.int32)
    off = np.frombuffer(arr.buffers()[1], width, n + 1, arr.offset * width.itemsize)
    off = off.astype(np.int64)
    if off[-1] == off[0]:
        return none, none, none, None
    raw = np.frombuffer(arr.buffers()[2], np.uint8, int(off[-1] - off[0]), int(off[0]))
    off -= off[0]
    hits = np.flatnonzero(raw == 0x28)
    row = np.searchsorted(off, hits, "right") - 1
    first = np.flatnonzero(np.diff(row, prepend=-1))
    rows, pos = row[first], hits[first]
    if arr.null_count:
        keep = arr.is_valid().to_numpy(zero_copy_only=False)[rows]
        rows, pos = rows[keep], pos[keep]
    return rows, pos, off[1:][rows], np.concatenate([raw, np.zeros(_WORD_PAD, np.uint8)])


def _mentions(arr: pa.Array):
    """float64 lat, lon and a found mask per row of a string array: the
    first ``COORD_RE`` match of each row, as ``extract_regex`` + cast."""
    n = len(arr)
    lat, lon, found = np.empty(n), np.empty(n), np.zeros(n, bool)
    rows, pos, end, buf = _first_parens(arr)
    if not rows.size:
        return lat, lon, found
    words = np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))  # word i: bytes i..i+7
    la, ok, dot = _number(words[pos])  # '(' on byte 0
    comma = pos + dot + 3
    second = words[comma + 1]
    lo, ok2, dot = _number(second)  # ' ' on byte 0
    close = comma + 1 + dot + 3
    ok &= (ok2 & (buf[comma] == 0x2C) & ((second & _U(0xFF)) == 0x20)
           & (buf[close] == 0x29) & (close < end))
    lat[rows], lon[rows], found[rows] = la, lo, ok
    # a match must start at a '(' and is unique from a given start, so only
    # a row whose first '(' opens no parsed mention needs RE2
    redo = rows[~ok]
    if redo.size:
        ex = pc.extract_regex(arr.take(pa.array(redo)), COORD_RE)
        glat = pc.cast(pc.struct_field(ex, "glat"), pa.float64())
        lat[redo] = glat.to_numpy(zero_copy_only=False)
        lon[redo] = pc.cast(pc.struct_field(ex, "glon"), pa.float64()).to_numpy(
            zero_copy_only=False)
        found[redo] = pc.is_valid(glat).to_numpy(zero_copy_only=False)
    return lat, lon, found


class GeoparseStage:
    """Geoparser over one batch of pages: the first "(lat, lon)" mention
    of each ``text`` (the leftmost ``COORD_RE`` match) as float64
    ``lat``/``lon`` columns beside the ``keep`` columns; rows without a
    mention are dropped. Stateless: passed to ``map_batches`` as an
    instance, it runs as a task pool, not an actor pool."""

    def __init__(self, keep=("pid", "url", "text")):
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        parts = [_mentions(c.slice(s, _SLICE))
                 for c in getattr(text, "chunks", [text])
                 for s in range(0, len(c), _SLICE)]
        lat, lon, found = (np.concatenate(p) for p in zip(*parts)) if parts else (
            np.empty(0), np.empty(0), np.empty(0, bool))
        cols = {k: batch[k] for k in self.keep if k in batch.column_names}
        cols["lat"] = pa.array(lat)
        cols["lon"] = pa.array(lon)
        out = pa.table(cols)
        return out if found.all() else out.filter(pa.array(found))
