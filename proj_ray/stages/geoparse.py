"""Web-page synthesis + geoparsing stages.

``synth_pages_stage`` turns a keyed table into the Common-Crawl-style
pages shape from BASELINE.json's input_hint
(url:string, warc_ts:timestamp, html:binary, text:string, lang:string),
embedding deterministic coordinate mentions in ``text``. Everything is
exact integer arithmetic + C printf formatting (np.char.mod), so an
independent SQL oracle reproduces the text byte-for-byte.

``GeoparseStage`` extracts "(lat, lon)" mentions with an RE2 regex via
``pyarrow.compute.extract_regex`` — fully vectorized, no Python-per-row.
The ``text`` column itself is NEVER rewritten downstream of synthesis:
the per-row invariant "byte-identical extracted text per url" falls out
of passthrough (SURVEY.md §1.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..pipelines.derive import lonlat_numpy

COORD_RE = r"\((?P<glat>-?\d+\.\d\d), (?P<glon>-?\d+\.\d\d)\)"


def _fixed2_str(centi: np.ndarray) -> pa.Array:
    """int centi-units -> '%.2f'-identical decimal strings, built from
    integer parts with Arrow kernels (no per-row printf)."""
    neg = centi < 0
    a = np.abs(centi)
    ip = pc.cast(pa.array(a // 100, pa.int64()), pa.string())
    # zero-padded 2-digit fraction via the '1xx' slice trick
    frac3 = pc.cast(pa.array(a % 100 + 100, pa.int64()), pa.string())
    frac = pc.utf8_slice_codeunits(frac3, 1, 3)
    sign = pc.if_else(pa.array(neg), pa.scalar("-"), pa.scalar(""))
    return pc.binary_join_element_wise(sign, ip, ".", frac, "")


def page_text(pid: np.ndarray, base=None) -> pa.Array:
    """Page text per int64 pid: [base text +] ' Coordinates: (lat, lon)'.

    All string assembly is Arrow-native (binary_join_element_wise /
    casts) — ~20x faster than numpy.char; the coordinate decimals are
    byte-identical to printf('%.2f') by integer construction. ``base``
    is a string array without nulls, or None for no base text."""
    lon_centi = pid * 104729 % 36000 - 18000
    lat_centi = pid * 7919 % 16000 - 8000
    return pc.binary_join_element_wise(
        "" if base is None else base, " Coordinates: (",
        _fixed2_str(lat_centi), ", ", _fixed2_str(lon_centi), ")", "")


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
    """Actor-pool geoparser: the RE2 pattern is compiled once per actor
    (pyarrow caches compiled regexes per call site, but the actor form
    also carries optional custom patterns / gazetteers at scale)."""

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
