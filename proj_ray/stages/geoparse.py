"""Web-page synthesis + geoparsing stages.

``synth_pages_stage`` turns a keyed table into the Common-Crawl-style
pages shape from BASELINE.json's input_hint
(url:string, warc_ts:timestamp, html:binary, text:string, lang:string),
embedding deterministic coordinate mentions in ``text``. Each page's
coordinates are integer centi-degrees of its pid, and their text is
gathered from per-centi-value tables formatted once with printf('%.2f'),
so an independent SQL oracle reproduces the text byte-for-byte.

``GeoparseStage`` extracts "(lat, lon)" mentions with an RE2 regex via
``pyarrow.compute.extract_regex`` — fully vectorized, no Python-per-row.
The ``text`` column itself is NEVER rewritten downstream of synthesis:
the per-row invariant "byte-identical extracted text per url" falls out
of passthrough (SURVEY.md §1.4).
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


class GeoparseStage:
    """Geoparser over one batch of pages: the RE2 pattern's "(lat, lon)"
    mentions as float64 ``lat``/``lon`` columns beside the ``keep``
    columns; rows without a mention are dropped. Stateless: passed to
    ``map_batches`` as an instance, it runs as a task pool, not an actor
    pool."""

    def __init__(self, pattern: str = COORD_RE, text_col="text", keep=("pid", "url", "text")):
        self.pattern = pattern
        self.text_col = text_col
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch[self.text_col], self.pattern)
        lat = pc.cast(pc.struct_field(ex, "glat"), pa.float64())
        lon = pc.cast(pc.struct_field(ex, "glon"), pa.float64())
        cols = {k: batch[k] for k in self.keep if k in batch.column_names}
        cols["lat"] = lat
        cols["lon"] = lon
        out = pa.table(cols)
        ok = pc.and_(pc.is_valid(out["lat"]), pc.is_valid(out["lon"]))
        return out.filter(ok)
