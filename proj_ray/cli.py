"""Command-line equivalents of the reference's ``cs2cs``, ``proj`` and
``geod`` filters: line-at-a-time text streaming with the same grammar —
DMS or decimal fields (src/dmstor.c), '#'-prefixed passthrough lines
(src/proj.c:78-82), trailing-z + rest-of-line echo (src/cs2cs.c:97,156),
'*' error sentinel output (src/proj.c:115-148), '+to' argument split
(src/cs2cs.c:296-316).

Usage:
    python -m proj_ray.cs2cs +proj=latlong +datum=NAD27 +to +proj=utm +zone=11 +datum=WGS84 [-E] [-f fmt] < pts.txt
    python -m proj_ray.proj  +proj=merc +datum=WGS84 [-I] [-f fmt] < pts.txt
    python -m proj_ray.geod  +ellps=WGS84 [-I] < pairs.txt

Input is read in 32,768-line chunks, and each tool has one path per
chunk: tag lines pass through, lanes of plain decimals are parsed in
bulk, every other lane goes through the dmstor/strtod grammar into the
same arrays, then ONE transform (or geodesic) call covers all data
lanes and one formatter writes the chunk.  The kernels are the ones
the Dataset pipeline uses — the CLI is a thin text boundary, not a
second engine.
"""

from __future__ import annotations

import re
import sys
import warnings
from collections import namedtuple

import numpy as np

from .crs import dmstor, rtodms
from .kernels.common import DEG_TO_RAD, HALFPI, PI, RAD_TO_DEG
from .transform import Transform, make_transform


class _PjFwdFilter:
    """The plain proj program's transform: raw pj_fwd / pj_inv
    (src/proj.c:429-434) — NOT pj_transform.  No geocentric
    conversion (geocent stays the identity pseudo-projection, scaled
    by a), no axis denormalization, no datum step.  Geographic
    degrees in, projected out; ``inverse`` runs the other way."""

    def __init__(self, P, inverse):
        self.P = P
        self.inverse = inverse

    def __call__(self, u, v, z=None):
        from .kernels.projections import generic_fwd, generic_inv

        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if self.inverse:
                lam, phi = generic_inv(self.P, u, v)
                x, y = lam * RAD_TO_DEG, phi * RAD_TO_DEG
            else:
                x, y = generic_fwd(self.P, u * DEG_TO_RAD, v * DEG_TO_RAD)
        if z is None:
            z = np.zeros_like(x)
        return x, y, z


def block_lazy_pandas():
    """CLI-process startup hook: keep pyarrow's pandas shim from lazily
    importing pandas (~0.27 s) on the first ``pa.array`` call.

    The text filters never use pandas; pyarrow's ``_PandasAPIShim``
    catches the ImportError once and caches "unavailable", after which
    every Arrow kernel the fast paths use (split/cast/format/join,
    primitive ``to_numpy``) works normally.  Installed only by the
    ``python -m proj_ray.{cs2cs,proj,geod,...}`` entry modules — a
    no-op in library use, and harmless if pandas is already imported
    (sys.modules wins before meta_path is consulted)."""
    import importlib.abc

    class _BlockPandas(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "pandas" or name.startswith("pandas."):
                raise ImportError("pandas blocked in proj_ray CLI process")

    sys.meta_path.insert(0, _BlockPandas())


def _c_float_str(v, fmt):
    """C printf for one double: glibc prints 'nan'/'-nan' (sign bit
    kept) and 'inf'/'-inf'; Python's %-format drops the nan sign."""
    if np.isnan(v):
        return "-nan" if np.signbit(v) else "nan"
    return fmt % v


def _tag_of(flags) -> str:
    """The -t column-one tag char (default '#', proj.c:290-293)."""
    return next((k[2] for k in flags
                 if k.startswith("-t") and len(k) > 2), "#")


def _parse_coord(tok: str) -> float:
    try:
        return dmstor(tok)
    except (ValueError, IndexError):
        return float("nan")


def _proj_mscale(flags):
    """-m cartesian multiplier (proj.c:364-377): '1:x'/'1/x' -> 1/x;
    applied post-projection forward, pre-projection (inverted) inverse."""
    if "-m" not in flags:
        return None
    mtxt = flags["-m"]
    if mtxt.startswith(("1/", "1:")):
        return 1.0 / float(mtxt[2:])
    return float(mtxt)


# C strtod's decimal prefix (leading blanks skipped)
_STRTOD = re.compile(r"\s*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN = re.compile(r"\S+")
# a whole token strtod and dmstor both read as one plain decimal
_PLAIN_TOKEN = r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$"
# a token strtod reads at least in part
_NUMERIC_START = r"^[+-]?\.?\d"
_FMT_FIXED = re.compile(r"^%(?:\.(\d+))?f$")


def _fast_fixed_format(v: np.ndarray, ndigits: int):
    """Byte-exact '%.Nf' formatting, vectorized via integer math.

    printf rounds the infinite decimal expansion of the binary double;
    round(|v| * 10^N) agrees with that except when the computed product
    sits within a couple of ulps of a half-integer rounding boundary
    (the multiply's 0.5-ulp error can then flip the decision).  Those
    lanes — ~1e-6 of uniform inputs — are redone with Python's
    correctly-rounded %-formatting; everything else is Arrow int->str.
    Returns an Arrow string array, or None when the values are too
    large for exact int64 scaling (caller falls back wholesale)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    scale = 10.0 ** ndigits
    absn = np.abs(v) * scale
    if not ndigits <= 18 or (absn.size and float(np.max(absn)) >= 2.0 ** 53):
        return None
    frac = np.abs(absn - np.floor(absn) - 0.5)
    risky = frac <= 4.0 * np.spacing(absn)
    ival = np.rint(absn).astype(np.int64)
    iscale = 10 ** ndigits
    ipart = pc.cast(pa.array(ival // iscale), pa.string())
    neg = pc.if_else(pa.array(np.signbit(v)), pa.scalar("-"), pa.scalar(""))
    if ndigits:
        fpart = pc.utf8_lpad(pc.cast(pa.array(ival % iscale), pa.string()),
                             ndigits, "0")
        joined = pc.binary_join_element_wise(neg, ipart, pa.scalar("."),
                                             fpart, pa.scalar(""))
    else:
        joined = pc.binary_join_element_wise(neg, ipart, pa.scalar(""))
    bad = np.flatnonzero(risky)
    if bad.size:
        fmt = f"%.{ndigits}f"
        repl = pa.array([fmt % v[i] for i in bad], pa.string())
        joined = pc.replace_with_mask(joined, pa.array(risky), repl)
    return joined


def _join_lines(joined):
    """Join an Arrow string array into ONE newline-separated Python
    string with a single kernel call (no per-row as_py round trips)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = (joined.combine_chunks() if isinstance(joined, pa.ChunkedArray)
           else joined)
    offsets = pa.array([0, len(arr)], pa.int32())
    lst = pa.ListArray.from_arrays(offsets, arr)
    return pc.binary_join(lst, pa.scalar("\n"))[0].as_py()


def _coord_consume(s, pos, latlong):
    """One input field with the reference's consumption semantics.
    latlong -> dmstor (dmstor.c:27-77): leading whitespace skipped, a
    token parses iff it starts (after optional sign) with a digit/dot
    (lone hemisphere letter consumes one char, value +-0); a failed or
    missing parse returns 0.0 WITHOUT advancing; overflow returns inf
    with rs left at the ORIGINAL position (early return keeps the
    initial *rs).  Projected -> C strtod: garbage parses as 0.0
    without advancing, overflow consumes and returns inf."""
    n = len(s)
    p2 = pos
    while p2 < n and s[p2].isspace():
        p2 += 1
    if not latlong:
        m = _STRTOD.match(s, pos)
        if m:
            return float(m.group(0)), m.end()
        return 0.0, pos
    mt = _TOKEN.match(s, p2)
    if not mt:
        return 0.0, p2  # trailing whitespace IS consumed (dmstor.c:27)
    tok = mt.group(0)
    body = tok[1:] if tok[:1] in "+-" else tok
    if body[:1].isdigit() or body[:1] == ".":
        v = _parse_coord(tok)
        if not np.isfinite(v):
            return v, pos  # dmstor overflow: *rs keeps start position
        return v, mt.end()
    if tok[0] in "NnEeSsWw":
        return (-0.0 if tok[0] in "SsWw" else 0.0), p2 + 1
    return 0.0, p2  # garbage: whitespace consumed, token not


def _parse_line(line, fields, opt):
    """One lane through the reference's field grammar: each of
    ``fields`` with _coord_consume (dmstor when True, strtod when
    False), then, with ``opt``, one strtod field that reads 0.0 when
    absent (cs2cs's z, cs2cs.c:88-97; geod's distance, geod.c:76-86).
    Returns the raw values and the end of the consumed text."""
    vals = []
    pos = 0
    for latlong in fields:
        v, pos = _coord_consume(line, pos, latlong)
        vals.append(v)
    if opt:
        m = _STRTOD.match(line, pos)
        vals.append(float(m.group(0)) if m else 0.0)
        pos = m.end() if m else pos
    return vals, pos


def _cast_plain(tokens):
    """Arrow string tokens -> float64; NaN where a token is not one
    plain decimal.  Arrow's cast is correctly rounded like strtod; the
    per-token match runs only when the one cast over all tokens fails."""
    import pyarrow as pa
    import pyarrow.compute as pc

    try:
        return pc.cast(tokens, pa.float64()).to_numpy(zero_copy_only=False)
    except pa.ArrowInvalid:
        ok = pc.match_substring_regex(tokens, _PLAIN_TOKEN)
        vals = np.full(len(tokens), np.nan)
        vals[ok.to_numpy(zero_copy_only=False)] = pc.cast(
            tokens.filter(ok), pa.float64()).to_numpy(zero_copy_only=False)
        return vals


def _parse_chunk(chunk, tag, fields, opt, echo):
    """The parse half of the line path, for one chunk of lines.

    Lines whose first char is ``tag`` pass through (proj.c:78).  A
    data lane whose fields are all finite plain decimals is parsed in
    bulk: one whitespace split, one cast, and a dmstor field is the
    token times DMS_DEG, as in dmstor's plain-decimal branch.  Such a
    lane is printable ASCII (tab and CR count as blanks); the tail and
    the -E consumed text are cut out by regex only on the lanes that
    have a tail.  Every other data lane goes through _parse_line, and so
    does a lane whose bulk value is not finite (dmstor's overflow rule).

    Returns the chunk as an Arrow array, the indices of its data lanes,
    their raw field values as rows (radians for dmstor fields), and per
    data lane the consumed text (None without ``echo``) and the tail
    (None when no lane has one)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .kernels.common import DMS_DEG

    n, nf = len(chunk), len(fields)
    arr = pa.array(chunk, pa.string())
    data = ~pc.starts_with(arr, tag).to_numpy(zero_copy_only=False)
    parts = pc.utf8_split_whitespace(arr)
    first = parts.offsets.to_numpy()
    lens = np.diff(first)
    toks = parts.values
    offs = np.frombuffer(arr.buffers()[1], np.int32, n + 1)
    raw = np.frombuffer(arr.buffers()[2] or b"", np.uint8)[:offs[-1]]
    bulk = data & (lens >= nf)
    odd = np.flatnonzero(raw - np.uint8(32) > 94)
    odd = odd[(raw[odd] != 9) & (raw[odd] != 13)]
    bulk[np.searchsorted(offs, odd, "right") - 1] = False

    vals = np.zeros((nf + opt, n))
    ntok = np.full(n, nf)
    bi = np.flatnonzero(bulk)
    if bi.size == n and bool((lens == nf).all()):
        got = _cast_plain(toks)
    else:
        got = _cast_plain(toks.take(pa.array(
            (first[bi, None] + np.arange(nf)).ravel())))
    vals[:nf, bi] = got.reshape(-1, nf).T
    if opt:
        has = bi[lens[bi] > nf]
        if has.size:
            otok = toks.take(pa.array(first[has] + nf))
            ov = _cast_plain(otok)
            fin = np.isfinite(ov)
            vals[nf, has[fin]] = ov[fin]
            ntok[has[fin]] = nf + 1
            if not fin.all():
                # a token strtod reads only in part, or as overflow,
                # goes per line; any other token is the tail
                part = pc.match_substring_regex(
                    otok.filter(pa.array(~fin)), _NUMERIC_START)
                bulk[has[~fin][part.to_numpy(zero_copy_only=False)]] = False
    bulk &= np.isfinite(vals).all(axis=0)
    for j, latlong in enumerate(fields):
        if latlong:
            vals[j] *= DMS_DEG

    tail = cons = None
    if echo:
        cons = np.array(chunk, dtype=object)
    last = raw[np.maximum(offs[1:] - 1, 0)] if raw.size else np.zeros(n)
    blank_end = (offs[1:] > offs[:-1]) & ((last == 32) | (last == 9)
                                          | (last == 13))
    ti = np.flatnonzero(bulk & ((lens > ntok) | blank_end))
    slow = np.flatnonzero(data & ~bulk)
    if ti.size or slow.size:
        tail = np.full(n, "", dtype=object)
    for k in np.unique(ntok[ti]):
        sel = ti[ntok[ti] == k]
        ext = pc.extract_regex(arr.take(pa.array(sel)),
                               rf"^(?P<c>\s*\S+(?:\s+\S+){{{k - 1}}})"
                               r"(?P<t>.*)$")
        tail[sel] = pc.struct_field(ext, "t").to_numpy(zero_copy_only=False)
        if echo:
            cons[sel] = pc.struct_field(ext, "c").to_numpy(
                zero_copy_only=False)
    for i in slow:
        line = chunk[i]
        row, end = _parse_line(line, fields, opt)
        vals[:, i] = row
        tail[i] = line[end:]
        if echo:
            cons[i] = line[:end]
    di = np.flatnonzero(data)
    return (arr, di, vals[:, di], None if cons is None else cons[di],
            None if tail is None else tail[di])


def _quiet(fn, *args, **kw):
    """One vectorized kernel call with numpy's floating-point warnings
    off: a non-finite lane shows in the output (and, for cs2cs, in its
    emess), never as a RuntimeWarning."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kw)


def _fmt_cols(cols, fmt, c_nan=False):
    """printf(fmt) of each float column as an Arrow string array, in
    one pass over all of them: integer math for '%.Nf'
    (_fast_fixed_format), np.char.mod for any other format.  A
    non-finite lane prints as Python's %-format does, or with ``c_nan``
    as glibc does ('-nan' keeps the sign bit)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(cols[0])
    v = np.concatenate(cols)
    fin = np.isfinite(v)
    m = _FMT_FIXED.match(fmt)
    s = (_fast_fixed_format(np.where(fin, v, 0.0), int(m.group(1) or 6))
         if m else None)
    if s is None:
        s = pa.array(np.char.mod(fmt, v), pa.string())
    if not fin.all():
        odd = [_c_float_str(a, fmt) if c_nan else fmt % a for a in v[~fin]]
        s = pc.replace_with_mask(s, pa.array(~fin), pa.array(odd, pa.string()))
    return [s.slice(k * n, n) for k in range(len(cols))]


def _dms_col(v_deg, pos, neg, prec, fixed):
    """rtodms of each lane of a degree column (the reference's default
    latlong output), as an Arrow string array."""
    import pyarrow as pa

    return pa.array([rtodms(r, pos, neg, prec, fixed)
                     for r in np.radians(v_deg).tolist()], pa.string())


def _emit(arr, di, pieces, cons, tail):
    """The end of the line path: join each data lane's formatted
    pieces between its -E consumed text + TAB and its verbatim tail,
    put the tag lines back at their places, and return the chunk as one
    string."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if cons is not None:
        pieces = [pa.array(cons, pa.string()), "\t"] + pieces
    if tail is not None:
        pieces = pieces + [pa.array(tail, pa.string())]
    out = pc.binary_join_element_wise(
        *[p if isinstance(p, pa.Array) else pa.scalar(p) for p in pieces],
        pa.scalar(""))
    if di.size < len(arr):
        mask = np.zeros(len(arr), dtype=bool)
        mask[di] = True
        out = pc.replace_with_mask(arr, pa.array(mask), out)
    return _join_lines(out)


def _process_proj_lines(lines, transform: _PjFwdFilter, flags):
    """proj.c-style line processing (src/proj.c:60-150): consume exactly
    two coordinate fields, echo ONLY the consumed text under -E, print
    x TAB y (no z — proj is 2-D), then the unconsumed remainder verbatim
    (which is how test27/test83 carry expected values + labels through).
    Unprojectable input emits the "*\\t*" oterr sentinel (proj.c:43).
    Yields one output string per input chunk."""
    for chunk in _iter_line_chunks(lines):
        yield _proj_chunk(chunk, transform, flags)


def _proj_chunk(chunk, transform, flags):
    """One chunk through proj's line path.  With -S each data lane
    ends, after its tail, with the scale factors of the projection at
    the lane's geographic point: the input forward, the output inverse
    (src/proj.c:104-108,213-218)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    inverse = transform.inverse
    src_ll = not inverse
    arr, di, vals, cons, tail = _parse_chunk(
        chunk, _tag_of(flags), (src_ll, src_ll), False, "-E" in flags)
    if not di.size:
        return _join_lines(arr)
    u, v = vals
    if "-r" in flags:
        u, v = v, u
    lam, phi = u, v  # radians when forward (dmstor fields)
    if src_ll:
        u, v = u * RAD_TO_DEG, v * RAD_TO_DEG
    u = np.where(np.isfinite(v), u, np.inf)
    fscale = _proj_mscale(flags)
    if fscale is not None and inverse:
        pre = 1.0 / fscale
        u, v = u * pre, v * pre
    x, y, _z = _quiet(transform, u, v, np.zeros_like(u))
    if inverse:
        lam, phi = x * DEG_TO_RAD, y * DEG_TO_RAD
    if fscale is not None and not inverse:
        x, y = x * fscale, y * fscale
    # oterr fires on data.u == HUGE_VAL ONLY (proj.c:115); nan / -inf
    # lanes print through printf like the C
    err = x == np.inf
    fmt = flags.get("-f")
    ox, oy = _fmt_cols([np.where(err, 0.0, x), y], fmt or "%.2f", c_nan=True)
    if inverse and fmt is None:
        dms = np.isfinite(x) & np.isfinite(y)
        if dms.any():
            mask = pa.array(dms)
            prec, fixed = flags.get("-w", 3), flags.get("-Wfixed", False)
            ox = pc.replace_with_mask(ox, mask, _dms_col(x[dms], "E", "W",
                                                         prec, fixed))
            oy = pc.replace_with_mask(oy, mask, _dms_col(y[dms], "N", "S",
                                                         prec, fixed))
    if "-s" in flags:
        ox, oy = oy, ox
    body = pc.binary_join_element_wise(ox, pa.scalar("\t"), oy,
                                       pa.scalar(""))
    if err.any():
        body = pc.if_else(pa.array(err), pa.scalar(flags.get("-e", "*\t*")),
                          body)
    pieces = [body]
    if "-S" in flags:
        if tail is not None:
            pieces.append(pa.array(tail, pa.string()))
        pieces.append(_factors_text(transform.P, lam, phi))
        tail = None
    return _emit(arr, di, pieces, cons, tail)


def _factors_text(P, lam, phi):
    """proj -S's '\t<h k s omega a b>' per lane, %g-printed (proj.c:213),
    from one factors() call over the lanes' radians; '\t<* * * * * *>'
    where the point is not finite."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .kernels.factors import factors

    ok = np.isfinite(lam) & np.isfinite(phi)
    fac = _quiet(factors, P, np.where(ok, lam, 0.0), np.where(ok, phi, 0.0),
                 radians=True)
    cols = _fmt_cols([fac["h"], fac["k"], fac["s"], fac["omega"] * RAD_TO_DEG,
                      fac["a"], fac["b"]], "%g")
    text = pc.binary_join_element_wise(
        "\t<", pc.binary_join_element_wise(*cols, " "), ">", "")
    return pc.if_else(pa.array(ok), text, pa.scalar("\t<* * * * * *>"))


def _pj_transform_lane_errno(transform: Transform, lane, lon_d, lat_d):
    """Best-effort per-point pj_transform errno for lane ``lane`` of the
    transform's last call, which failed (cs2cs calls pj_transform one
    point at a time, so every failure carries a cause,
    src/cs2cs.c:117-119).  The transform records the lanes that
    selected a catalog entry without its grid (-38,
    src/pj_gridcatalog.c:137-152).  The engine's vectorized kernels
    mark other bad lanes HUGE without a per-lane errno, so the
    dominant causes are reconstructed from the inputs: the pj_fwd
    latitude range check (src/pj_fwd.c:12-14) and the tmerc/utm
    |lam| > pi/2 guard (src/PJ_tmerc.c:31-36, the only kernel that
    raises -14 itself); anything else reports the F_ERROR/I_ERROR
    default -20 (src/projects.h:337)."""
    from .kernels.common import adjlon as _adjlon

    if transform.missing_grid is not None and transform.missing_grid[lane]:
        return -38
    if transform.src.is_latlong and np.isfinite(lat_d):
        if abs(lat_d) * DEG_TO_RAD - HALFPI > 1e-12:
            return -14
        dst = transform.dst
        if (not dst.is_latlong and dst.proj_name in ("tmerc", "utm")
                and np.isfinite(lon_d)):
            dlam = float(_adjlon(np.array([lon_d * DEG_TO_RAD
                                           - dst.lam0]))[0])
            if dlam < -HALFPI or dlam > HALFPI:
                return -14
    # deferred grid-load failure (lazy C semantics): the datum /
    # vgrid step poisoned the lane with the recorded errno
    if transform.lane_errno is not None:
        return transform.lane_errno
    return -20


def _lane_emess(stderr, transform, lane, lon_d, lat_d, line_no,
                file_name="<stdin>"):
    from .errors import pj_strerrno

    code = _pj_transform_lane_errno(transform, lane, lon_d, lat_d)
    emess(-3, f"pj_transform(): {pj_strerrno(code)}", "cs2cs", stderr,
          file_name, line_no)


def _process_lines(lines, transform: Transform, flags, stderr=None,
                   file_name="<stdin>"):
    """cs2cs.c-exact line processing (src/cs2cs.c:60-160): consume two
    coordinate fields + an optional numeric z (strtod semantics), echo
    ONLY the consumed text under -E, transform, print x TAB y SPACE z
    then the unconsumed remainder verbatim.  Without -f, projected /
    geocentric output defaults to oform %.2f (applied to z as well);
    latlong output is trimmed rtodms DMS with z at %.3f.  Failed
    transform lanes additionally emit the reference's per-line
    emess(-3, "pj_transform(): <cause>") to stderr (cs2cs.c:119).
    Yields one output string per input chunk."""
    stderr = stderr or sys.stderr
    base = 0
    for chunk in _iter_line_chunks(lines):
        yield _cs2cs_chunk(chunk, transform, flags, stderr, base, file_name)
        base += len(chunk)


def _cs2cs_chunk(chunk, transform, flags, stderr, base, file_name):
    import pyarrow as pa
    import pyarrow.compute as pc

    src_ll, dst_ll = transform.src.is_latlong, transform.dst.is_latlong
    arr, di, vals, cons, tail = _parse_chunk(
        chunk, _tag_of(flags), (src_ll, src_ll), True, "-E" in flags)
    if not di.size:
        return _join_lines(arr)
    u, v, z = vals
    if "-r" in flags:
        u, v = v, u
    if src_ll:
        # dmstor returns radians; the Transform expects degrees
        u, v = u * RAD_TO_DEG, v * RAD_TO_DEG
    u = np.where(np.isfinite(v), u, np.inf)  # v == HUGE -> u = HUGE (:98)
    x, y, z = _quiet(transform, u, v, z)
    ok = np.isfinite(x) & np.isfinite(y)
    # parse-failed lanes skip pj_transform entirely (cs2cs.c:108-117):
    # only transform failures emess
    for i in np.flatnonzero(~ok & np.isfinite(u) & np.isfinite(v)):
        _lane_emess(stderr, transform, i, u[i], v[i], base + int(di[i]) + 1,
                    file_name)
    x, y = np.where(ok, x, 0.0), np.where(ok, y, 0.0)
    # cs2cs.c main: oform defaults to %.2f unless the output is latlong,
    # which prints rtodms DMS with z at %.3f
    fmt = flags.get("-f") or (None if dst_ll else "%.2f")
    if fmt:
        ox, oy, oz = _fmt_cols([x, y, z], fmt)
    else:
        prec, fixed = flags.get("-w", 3), flags.get("-Wfixed", False)
        ox = _dms_col(x, "E", "W", prec, fixed)
        oy = _dms_col(y, "N", "S", prec, fixed)
        (oz,) = _fmt_cols([z], "%.3f")
    if "-s" in flags:
        ox, oy = oy, ox
    body = pc.binary_join_element_wise(ox, pa.scalar("\t"), oy,
                                       pa.scalar(""))
    if not ok.all():
        body = pc.if_else(pa.array(~ok), pa.scalar(flags.get("-e", "*\t*")),
                          body)
    return _emit(arr, di, [body, " ", oz], cons, tail)


def _iter_line_chunks(lines, CHUNK=32768):
    """Yield lists of newline-stripped lines.  File-like inputs take the
    bulk path: read 4 MB blocks and split once — a 2M-line stream costs
    ~60 Python-level splits instead of 2M rstrip/append iterations;
    semantics identical (split('\\n') strips exactly the '\\n' the
    per-line path rstrips)."""
    reader = getattr(lines, "read", None)
    if reader is not None:
        pend = ""
        while True:
            block = reader(1 << 22)
            if not block:
                break
            rows = (pend + block).split("\n")
            pend = rows.pop()
            for i in range(0, len(rows), CHUNK):
                yield rows[i:i + CHUNK]
        if pend:
            yield [pend]
        return

    chunk = []
    for line in lines:
        chunk.append(line.rstrip("\n"))
        if len(chunk) >= CHUNK:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


PJ_RELEASE = "Rel. 4.9.1, 04 March 2015"  # src/pj_release.c:5


def emess(code, msg, prog, stderr, file_name=None, file_line=0,
          sys_errno=None):
    """The reference's error reporter (src/emess.c:19-56): release
    banner + '<prog>: ', optional 'while processing file: F, line N',
    a 'Sys errno' line when |code| == 2 (this build prints the
    '<system mess. texts unavail.>' variant), the message, then either
    the abort trailer (code > 0 — raises SystemExit(code)) or a final
    newline (code < 0 — continue)."""
    stderr.write(f"{PJ_RELEASE}\n<{prog}>: ")
    if file_name:
        stderr.write(f"while processing file: {file_name}")
        stderr.write(f", line {file_line}\n" if file_line > 0 else "\n")
    else:
        stderr.write("\n")
    if code in (2, -2):
        stderr.write(f"Sys errno: {sys_errno or 0}:"
                     " <system mess. texts unavail.>\n")
    stderr.write(msg)
    if code > 0:
        stderr.write("\nprogram abnormally terminated\n")
        raise SystemExit(code)
    stderr.write("\n")



class _ListingExit(Exception):
    """Raised when a -l listing printed and the tool exits 0 mid-args
    (the C exit(0) inside the 'l' case)."""


def _c_args(prog, argv, stdout, stderr):
    """Replicate the reference run-line loops char-for-char
    (proj.c:260-410, cs2cs.c:183-290, geod.c:142-215): combined
    single-dash flags ('-rs'), inline -t<char> / -w<digit> / -l<sub>,
    next-argv values (-f/-e/-m/-T/-F), '+' parameter collection, and
    everything else as input FILE names ('-' = stdin).  Raises
    SystemExit via emess(1, ...) on invalid options, _ListingExit
    after a listing."""
    spec = {
        "proj": dict(bools="bioIESrs", mon="v", nxt="eTmf"),
        "cs2cs": dict(bools="IErs", mon="v", nxt="ef"),
        "geod": dict(bools="aIp", mon="", nxt="fF"),
    }[prog]
    flags = {}
    plus = []
    files = []
    i = 0
    n = len(argv)

    def em(msg):
        emess(1, msg, prog, stderr)

    while i < n:
        a = argv[i]
        if a == "-":
            files.append("-")
        elif a.startswith("-"):
            j = 1
            while j < len(a):
                c = a[j]
                if c in spec["bools"] or c in spec["mon"]:
                    flags["-" + c] = True
                elif c == "V" and prog == "proj":
                    # case 'V' falls through into 'S' (proj.c:285-289)
                    flags["-V"] = True
                    flags["-v"] = True
                elif c == "t":
                    if j + 1 < len(a):
                        j += 1
                        flags["-t" + a[j]] = True
                    else:
                        em("missing -t col. 1 tag")
                elif c in "wW":
                    d = a[j + 1:j + 2]
                    if d.isdigit():
                        flags["-w"] = int(d)
                        if c == "W":
                            flags["-Wfixed"] = True
                        j += 1
                    else:
                        em("-W argument missing or non-digit")
                elif c == "l":
                    sub = a[j + 1:]
                    valid = (("", "p", "P", "e", "u", "d")
                             if prog != "geod" else ("", "e", "u"))
                    if not (sub in valid or sub.startswith("=")):
                        em(f"invalid list option: l{sub[0]}")
                    lf = {("-l" + sub) if sub else "-l": True}
                    if prog == "geod" and "-l" in lf:
                        lf = {"-le": True}  # bare geod -l (geod.c:176)
                    _print_listings(lf, stdout)
                    raise _ListingExit
                elif c in spec["nxt"]:
                    if i + 1 >= n:
                        em(f"missing argument for -{c}")
                    i += 1
                    val = argv[i]
                    if c == "m":
                        # atof validation (proj.c:366-377)
                        num = val[2:] if val[:2] in ("1/", "1:") else val
                        mm = _STRTOD.match(num)
                        if not (mm and mm.group(0).strip()
                                and float(mm.group(0)) != 0.0):
                            em("invalid scale argument")
                    flags["-" + c] = val
                else:
                    em(f"invalid option: -{c}")
                j += 1
        elif a.startswith("+"):
            plus.append(a)
        else:
            files.append(a)
        i += 1
    return flags, plus, files


def _open_inputs(files, stdin, prog, stderr):
    """Yield (file_name, file_object) for each input; '-' is stdin
    ('<stdin>' in emess context).  A file that fails to open reports
    emess(-2, <name>, ...) — the C passes the NAME as the format
    string (cs2cs.c:420) — and is skipped."""
    for fname in files or ["-"]:
        if fname == "-":
            yield "<stdin>", stdin
            continue
        try:
            f = open(fname)
        except OSError as exc:
            emess(-2, fname, prog, stderr, sys_errno=exc.errno)
            continue
        try:
            yield fname, f
        finally:
            f.close()


_USAGE = {  # exact usage banners (proj.c:44-45, cs2cs.c:52-54, geod.c:21-22)
    "proj": "usage: %s [ -beEfiIlormsStTvVwW [args] ]"
            " [ +opts[=arg] ] [ files ]",
    "cs2cs": "usage: %s [ -eEfIlrstvwW [args] ] [ +opts[=arg] ]\n"
             "                   [+to [+opts[=arg] [ files ]",
    "geod": "usage: %s [ -afFIptTwW [args] ] [ +opts[=arg] ] [ files ]",
}


def _usage_exit(prog, stderr):
    """argc <= 1: print the usage banner to stderr, exit 0
    (proj.c:254-258, cs2cs.c:177-181, geod.c:136-140)."""
    print(f"{PJ_RELEASE}\n" + _USAGE[prog] % prog, file=stderr or sys.stderr)
    return 0


def _init_failure(prog, exc, stderr=None, msg=None, rc=3):
    """Reference-style init diagnostic: proj/cs2cs abort with
    emess(3, "projection initialization failure\\ncause: <pj_strerrno>")
    (proj.c:420, cs2cs.c:353); geod aborts with emess(1, "ellipse
    setup failure") (geod_set.c:24)."""
    from .errors import errno_from_exception, pj_strerrno

    from .log import PJ_LOG_ERROR, pj_log

    stderr = stderr or sys.stderr
    code = errno_from_exception(exc)
    cause = pj_strerrno(code) if code is not None else str(exc)
    pj_log(PJ_LOG_ERROR, f"{prog} initialization failure: {cause}")
    if msg is None:
        msg = f"projection initialization failure\ncause: {cause}"
    try:
        emess(rc, msg, prog, stderr)
    except SystemExit:
        pass
    return rc


def cs2cs_main(argv=None, stdin=None, stdout=None, stderr=None):
    argv = sys.argv[1:] if argv is None else argv
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if not argv:
        return _usage_exit("cs2cs", stderr)
    try:
        flags, plus, files = _c_args("cs2cs", argv, stdout, stderr)
    except _ListingExit:
        return 0
    except SystemExit as exc:
        return exc.code
    if "+to" in plus:
        k = plus.index("+to")
        from_def = " ".join(plus[:k])
        to_def = " ".join(plus[k + 1:])
    else:
        from_def, to_def = " ".join(plus), ""
    if not to_def:
        # no +to: destination = base geographic CRS of source
        # (pj_latlong_from_proj semantics, src/cs2cs.c:357-369)
        to_def = _latlong_from(from_def)

    if "-I" in flags:
        # inverse reverses the argv lists BEFORE init (cs2cs.c:321-324)
        from_def, to_def = to_def, from_def
    # per-side init so a failure attributes its side: the C prints
    # 'Using from/to definition: <args>' to STDOUT before the emess
    # abort (cs2cs.c:346-388)
    from .crs import CRS as _CRS
    for side, sdef in (("from", from_def), ("to", to_def)):
        try:
            _CRS(sdef)
        except (ValueError, FileNotFoundError) as exc:
            args_txt = " ".join(tok.lstrip("+") for tok in sdef.split())
            print(f"Using {side} definition: " + (args_txt + " "
                                                  if args_txt else ""),
                  file=stdout)
            return _init_failure("cs2cs", exc, stderr)
    try:
        t = make_transform(from_def, to_def)
    except (ValueError, FileNotFoundError) as exc:
        return _init_failure("cs2cs", exc, stderr)
    if "-v" in flags:
        # monitor dump of both systems (src/cs2cs.c:395-400)
        tag = _tag_of(flags)
        print(f"{tag} ---- From Coordinate System ----", file=stdout)
        _pr_list(t.src, stdout)
        print(f"{tag} ---- To Coordinate System ----", file=stdout)
        _pr_list(t.dst, stdout)
    for fname, fobj in _open_inputs(files, stdin, "cs2cs", stderr):
        for out in _process_lines(fobj, t, flags, stderr, fname):
            print(out, file=stdout)
    return 0


def _latlong_from(defn: str) -> str:
    """Derive the underlying geographic CRS (pj_latlong_from_proj,
    src/pj_utils.c:118-173): keep datum/ellps/towgs84/nadgrids/pm."""
    keep = ("datum", "ellps", "a", "b", "rf", "es", "e", "towgs84",
            "nadgrids", "pm", "R")
    toks = ["+proj=latlong"]
    for tok in defn.split():
        t = tok.lstrip("+")
        k = t.split("=", 1)[0]
        if k in keep:
            toks.append("+" + t)
    return " ".join(toks)


def _print_listings(flags, stdout) -> bool:
    """proj -l / -lp / -lP / -l=id / -le / -lu / -ld registry listings
    (src/proj.c:296-360 formats).  Returns True if one was printed."""
    from .crs import (DATUM_COMMENTS, DATUMS, ELLPS, ELLPS_NAMES, UNITS,
                      UNITS_NAMES)

    eq = next((k[3:] for k in flags if k.startswith("-l=")), None)
    if eq is not None:
        # -l=<id>: '%9s : <full multiline descr>' (src/proj.c:318-326)
        from .kernels.descr import DESCR

        if eq in DESCR:
            print("%9s : %s" % (eq, DESCR[eq]), file=stdout)
        return True
    if "-le" in flags:
        for eid, (major, ell) in ELLPS.items():
            print("%9s %-16s %-16s %s" % (eid, major, ell,
                                          ELLPS_NAMES.get(eid, "")),
                  file=stdout)
        return True
    if "-lu" in flags:
        for uid, to_m in UNITS.items():
            print("%12s %-20s %s" % (uid, to_m, UNITS_NAMES.get(uid, "")),
                  file=stdout)
        return True
    if "-ld" in flags:
        print("__datum_id__ __ellipse___ "
              "__definition/comments______________________________",
              file=stdout)
        for did, (dfn, eid) in DATUMS.items():
            print("%12s %-12s %-30s" % (did, eid, dfn), file=stdout)
            comment = DATUM_COMMENTS.get(did, "")
            if comment:
                print("%25s %s" % (" ", comment), file=stdout)
        return True
    if "-l" in flags or "-lp" in flags or "-lP" in flags:
        # iterate in pj_list.h ORDER; skip only the latlong/longlat/
        # geocent specials (latlon/lonlat STAY) (src/proj.c:296-317)
        from .kernels.descr import DESCR, PJ_LIST

        do_long = "-lP" in flags
        for pid in PJ_LIST:
            if pid in ("latlong", "longlat", "geocent"):
                continue
            d = DESCR[pid]
            print("%s : %s" % (pid, d if do_long else d.split("\n", 1)[0]),
                  file=stdout)
        return True
    return False


def _vprocess_lines(lines, t_fwd, t_inv, P, flags, stdout,
                    stderr=None, file_name="<stdin>"):
    """proj -V verbose per-point factor report (src/proj.c:152-244):
    tag passthrough, two-field consume + remainder echo, per-line
    emess(-1) diagnostics to stderr with the '<stdin>, line N' context,
    and the factor block on success."""
    from .errors import pj_strerrno
    from .kernels.factors import factors

    stderr = stderr or sys.stderr
    # main leaves oform NULL in inverse mode (vprocess then defaults
    # to %.3f) but sets %.2f for forward (src/proj.c:459-464,158-159)
    oform = flags.get("-f") or ("%.3f" if "-I" in flags else "%.2f")
    inv_default = "-I" in flags
    tag = _tag_of(flags)
    line_no = 0

    def err(msg):
        emess(-1, msg, "proj", stderr, file_name, line_no)

    for line in lines:
        line_no += 1
        line = line.rstrip("\n")
        if line[:1] == tag:  # pass on data (proj.c:172-175)
            print(line, file=stdout)
            continue
        s = line
        linvers = inv_default
        if s[:1] in ("I", "i"):
            linvers = True
            s = s[1:]
        if linvers:
            # strtod semantics (proj.c:189-196): garbage parses as 0.0
            # and is NOT an error; only overflow (HUGE_VAL) fails
            m1 = _STRTOD.match(s)
            x = float(m1.group(0)) if m1 else 0.0
            pos = m1.end() if m1 else 0
            m2 = _STRTOD.match(s, pos)
            y = float(m2.group(0)) if m2 else 0.0
            rest = s[m2.end() if m2 else pos:]
            if np.isinf(x) or np.isinf(y):
                err("lon-lat input conversion failure\n")
                continue
            lon, lat, _ = t_inv(np.array([x]), np.array([y]))
            lon_d, lat_d = lon[0], lat[0]
            px, py = x, y
            if not (np.isfinite(lon_d) and np.isfinite(lat_d)):
                # pj_inv I_ERROR -> errno -20 (proj.c:204-207)
                err(pj_strerrno(-20))
                continue
        else:
            # dmstor consumption (dmstor.c:27-77); overflow and
            # malformed tokens read as non-finite and fail below
            lon_r, ppos = _coord_consume(s, 0, True)
            lat_r, ppos = _coord_consume(s, ppos, True)
            rest = s[ppos:]
            lon_d = lon_r * RAD_TO_DEG
            lat_d = lat_r * RAD_TO_DEG
            if not (np.isfinite(lon_d) and np.isfinite(lat_d)):
                err("lon-lat input conversion failure\n")
                continue
            xx, yy, _ = t_fwd(np.array([lon_d]), np.array([lat_d]))
            px, py = xx[0], yy[0]
            if not (np.isfinite(px) and np.isfinite(py)):
                # pj_fwd range check -> -14, else F_ERROR -> -20
                code = -14 if abs(lat_r) - HALFPI > 1e-12 else -20
                err(pj_strerrno(code))
                continue
        if linvers:
            # pj_inv output re-enters pj_factors as radians
            fac = factors(P, np.array([lon_d * DEG_TO_RAD]),
                          np.array([lat_d * DEG_TO_RAD]), radians=True)
        else:
            # pass dmstor's radians straight through (vprocess does);
            # a deg round-trip perturbs the last ulp
            fac = factors(P, np.array([lon_r]), np.array([lat_r]),
                          radians=True)
        if not fac["ok"][0]:
            err("failed to conpute factors\n\n")  # (sic, proj.c:215)
            continue
        if rest:  # unconsumed remainder echo (proj.c:219-220)
            print(rest, file=stdout)
        print("Longitude: %s [ %.11g ]" % (
            rtodms(lon_d * DEG_TO_RAD, "E", "W"), lon_d), file=stdout)
        print("Latitude:  %s [ %.11g ]" % (
            rtodms(lat_d * DEG_TO_RAD, "N", "S"), lat_d), file=stdout)
        print("Easting (x):   " + (oform % px), file=stdout)
        print("Northing (y):  " + (oform % py), file=stdout)
        h, k = fac["h"][0], fac["k"][0]
        s_ = fac["s"][0]
        from .kernels.factors import IS_ANAL_CONV, IS_ANAL_HK
        hk_c = "*" if fac["code"] & IS_ANAL_HK else " "
        cv_c = "*" if fac["code"] & IS_ANAL_CONV else " "
        print("Meridian scale (h)%s: %.8f  ( %.4g %% error )"
              % (hk_c, h, (h - 1.0) * 100.0), file=stdout)
        print("Parallel scale (k)%s: %.8f  ( %.4g %% error )"
              % (hk_c, k, (k - 1.0) * 100.0), file=stdout)
        print("Areal scale (s):     %.8f  ( %.4g %% error )"
              % (s_, (s_ - 1.0) * 100.0), file=stdout)
        print("Angular distortion (w): %.3f"
              % (fac["omega"][0] * RAD_TO_DEG), file=stdout)
        print("Meridian/Parallel angle: %.5f"
              % (fac["thetap"][0] * RAD_TO_DEG), file=stdout)
        print("Convergence%s: %s [ %.8f ]" % (
            cv_c, rtodms(fac["conv"][0]), fac["conv"][0] * RAD_TO_DEG),
            file=stdout)
        print("Max-min (Tissot axis a-b) scale error: %.5f %.5f"
              % (fac["a"][0], fac["b"][0]), file=stdout)
        print("", file=stdout)


def _gen_cheby(flags, defn, stdout, stderr=None, argv=None):
    """proj -T: C-exact gen_cheb port (src/gen_cheb.c + mk_cheby.c
    family, kernels/mkcheby.py) — same parameter grammar (dmstor
    forward / strtod inverse, strtol res/NU/NV so '1e-3' reads as 1,
    ',P' power-series suffix), same header/audit/coefficient-dump
    bytes as the binary (the run-line argv echo differs only in the
    program path)."""
    from .crs import CRS
    from .kernels.mkcheby import mk_cheby, p_series
    from .kernels.projections import generic_fwd, generic_inv

    stderr = stderr or sys.stderr
    inverse = "-I" in flags
    spec = flags["-T"]
    pos = 0
    vals = []
    errin = 0

    def _consume_num(pos):
        if inverse:
            m = _STRTOD.match(spec, pos)
            if m and m.group(0).strip():
                return float(m.group(0)), m.end()
            return 0.0, pos
        # dmstor stops at the ',' separator (not in its grammar):
        # parse the comma-delimited segment
        end = spec.find(",", pos)
        if end < 0:
            end = len(spec)
        seg = spec[pos:end]
        return (_parse_coord(seg) if seg else 0.0), end

    for k in range(4):
        if k == 0:
            if pos < len(spec):
                v, pos = _consume_num(pos)
                vals.append(v)
            else:
                errin += 1
        else:
            if pos < len(spec) and spec[pos] == ",":
                v, pos = _consume_num(pos + 1)
                vals.append(v)
            else:
                errin += 1
    if errin:
        try:
            emess(16, "null or absent -T parameters", "proj", stderr)
        except SystemExit as exc:
            return exc.code
    low_u, upp_u, low_v, upp_v = vals
    res, nu, nv = -1, 15, 15
    for name in ("res", "NU", "NV"):
        if pos < len(spec) and spec[pos] == ",":
            pos += 1
            if pos < len(spec) and spec[pos] != ",":
                m = _re_strtol(spec, pos)
                if name == "res":
                    res = m[0]
                elif name == "NU":
                    nu = m[0]
                else:
                    nv = m[0]
                pos = m[1]
        else:
            break
    pwr = spec[pos:] == ",P"

    print("#proj_%s\n#    run-line:" % ("Power" if pwr else "Chebyshev"),
          file=stdout)
    if argv:
        # audit of non-'+' argv tokens, wrapped past column 50
        # (gen_cheb.c:33-44); argv[0] is this program, not the C path
        n = 0
        line = ""
        for arg in ["proj"] + list(argv):
            if arg.startswith("+"):
                continue
            if n == 0:
                line += "#"
                n = 1
            tok = f" {arg}"
            line += tok
            n += len(tok)
            if n > 50:
                line += "\n"
                n = 0
        if n:
            line += "\n"
        stdout.write(line)
    print("# projection parameters", file=stdout)
    P = CRS(defn)
    _pr_list(P, stdout)
    try:
        if low_u == upp_u or low_v >= upp_v:
            emess(16, "approx. argument range error", "proj", stderr)
        if low_u > upp_u:
            low_u -= 2.0 * PI
        if nu < 2 or nv < 2:
            emess(16, f"approx. work dimensions ({nu} {nv}) too small",
                  "proj", stderr)
    except SystemExit as exc:
        return exc.code

    fscale = _proj_mscale(flags)
    prescale = fscale is not None and inverse
    postscale = fscale is not None and not inverse
    if prescale:
        fscale = 1.0 / fscale

    def func(u, v):
        # int_proj (src/proj.c:51-58): optional -m scale around the
        # full pj_fwd / pj_inv wrapper
        if prescale:
            u, v = u * fscale, v * fscale
        if inverse:
            x, y = generic_inv(P, u, v)
        else:
            x, y = generic_fwd(P, u, v)
        if postscale:
            ok = np.isfinite(x)
            x = np.where(ok, x * fscale, x)
            y = np.where(ok, y * fscale, y)
        return x, y

    T, resid = mk_cheby((low_u, low_v), (upp_u, upp_v),
                        (10.0 ** res) * 0.5, func, nu, nv, pwr)
    if T is None:
        try:
            emess(16, "generation of approx failed\nreason: %s\n"
                  % "tolerance condition error", "proj", stderr)
        except SystemExit as exc:
            return exc.code
    print("%c,%.12g,%.12g,%.12g,%.12g,%.12g" % (
        "I" if inverse else "F", P.lam0 * RAD_TO_DEG,
        low_u * (1.0 if inverse else RAD_TO_DEG),
        upp_u * (1.0 if inverse else RAD_TO_DEG),
        low_v * (1.0 if inverse else RAD_TO_DEG),
        upp_v * (1.0 if inverse else RAD_TO_DEG)), file=stdout)
    if pwr:
        fmt = "%.15g"
    elif res <= 0:
        fmt = f"%.{-res + 1}f"
    else:
        fmt = "%.0f"
    p_series(T, fmt, stdout.write)
    print("# |u,v| sums %g %g\n#end_proj_%s"
          % (resid[0], resid[1], "Power" if pwr else "Chebyshev"),
          file=stdout)
    return 0


def _re_strtol(s, pos):
    """C strtol: optional sign + decimal digits; (value, end)."""
    m = re.match(r"[+-]?\d+", s[pos:])
    if not m:
        return 0, pos
    return int(m.group(0)), pos + m.end()


def _pr_list(P, stdout, oform=None, very_verby=False):
    """-v monitor dump (pj_pr_list, src/pj_pr_list.c:6-45 + the
    very-verby Earth-figure block of proj.c:442-458): '#'-prefixed
    projection description, the used parameter list wrapped at 72
    columns, and (for -V) the final ellipsoid figure."""
    from .kernels.descr import DESCR

    descr = DESCR[P.proj_name]
    # pj_pr_list prints the FULL multiline descr, '#' after every \n
    print("#" + descr.replace("\n", "\n#"), file=stdout)

    def params_pass(not_used):
        # pr_list (src/pj_pr_list.c:7-28): n counts strlen(param)+1
        # (the printed ' ' but NOT the '+'), wraps when n + l > 72;
        # iterates the FULL paralist incl. shadowed duplicates (which
        # are never marked used)
        flag = False
        n = 1
        line = "#"
        for k, v, shadow in P.pl.entries:
            entry_used = (not shadow) and k in P.pl.used
            if entry_used == (not not_used):
                param = f"{k}={v}" if v else k
                l = len(param) + 1
                if n + l > 72:
                    print(line, file=stdout)
                    line = "#"
                    n = 2
                line += " +" + param
                n += l
            else:
                flag = True
        if n > 1:
            print(line, file=stdout)
        return flag

    if params_pass(False):
        print("#--- following specified but NOT used", file=stdout)
        params_pass(True)
    if very_verby:
        f = oform or "%.3f"
        if P.es:
            print("#Final Earth figure: ellipsoid", file=stdout)
            print("#  Major axis (a): " + (f % P.a), file=stdout)
            print("#  1/flattening: %.6f"
                  % (1.0 / (1.0 - np.sqrt(1.0 - P.es))), file=stdout)
            print("#  squared eccentricity: %.12f" % P.es, file=stdout)
        else:
            print("#Final Earth figure: sphere", file=stdout)
            print("#  Radius: " + (f % P.a), file=stdout)


def _process_proj_binary(stdin, stdout, t, flags, bin_in, bin_out):
    """proj -b/-i/-o binary pair I/O (src/proj.c:66-68,112-114):
    records are little-endian float64 (u, v) pairs — radians on the
    geographic side, meters on the projected side.  Streams in 8192-
    record chunks through the vectorized transform."""
    import struct

    inverse = "-I" in flags
    fmt = flags.get("-f") or "%.2f"
    rbuf = stdin.buffer if hasattr(stdin, "buffer") else stdin
    wbuf = stdout.buffer if hasattr(stdout, "buffer") else stdout
    rec = struct.Struct("<dd")
    while True:
        raw = rbuf.read(rec.size * 8192) if bin_in else None
        if bin_in:
            if not raw:
                break
            n = len(raw) // rec.size
            arr = np.frombuffer(raw[: n * rec.size], dtype="<f8").reshape(n, 2)
            u, v = arr[:, 0].copy(), arr[:, 1].copy()
        else:
            # ascii in, binary out: read text lines once; forward input
            # is geographic DMS (dmstor -> radians), inverse input is
            # projected floats (strtod semantics)
            lines = [ln for ln in stdin
                     if ln.strip() and not ln.lstrip().startswith("#")]

            def parse2(ln):
                t1, t2 = ln.split()[0], ln.split()[1]
                if inverse:
                    try:
                        return float(t1), float(t2)
                    except ValueError:
                        return float("nan"), float("nan")
                return _parse_coord(t1), _parse_coord(t2)

            pairs = [parse2(ln) for ln in lines if len(ln.split()) >= 2]
            u = np.array([p[0] for p in pairs])
            v = np.array([p[1] for p in pairs])
        if not inverse:
            # geographic input is radians in binary mode, text dmstor
            # already yields radians too
            x, y, _ = t(u * RAD_TO_DEG, v * RAD_TO_DEG)
        else:
            x, y, _ = t(u, v)
            x, y = x * DEG_TO_RAD, y * DEG_TO_RAD
        if bin_out:
            out = np.empty((len(x), 2), dtype="<f8")
            out[:, 0] = x
            out[:, 1] = y
            wbuf.write(out.tobytes())
        else:
            for i in range(len(x)):
                print((fmt % x[i]) + "\t" + (fmt % y[i]), file=stdout)
        if not bin_in:
            break
    return 0


def proj_main(argv=None, stdin=None, stdout=None, stderr=None):
    argv = sys.argv[1:] if argv is None else argv
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if not argv:
        return _usage_exit("proj", stderr)
    try:
        flags, plus, files = _c_args("proj", argv, stdout, stderr)
    except _ListingExit:
        return 0
    except SystemExit as exc:
        return exc.code
    defn = " ".join(plus)
    ll = _latlong_from(defn)
    try:
        from .crs import CRS as _CRS

        P0 = _CRS(defn)
    except (ValueError, FileNotFoundError) as exc:
        return _init_failure("proj", exc, stderr)
    try:
        if P0.is_latlong:
            # proj.c:423-427: the filter requires a projected CRS
            emess(3, "+proj=latlong unsuitable for use with proj"
                  " program.", "proj", stderr)
        if "-I" in flags and (P0.inv is None or getattr(
                P0.inv, "__name__", "") == "_no_inverse"):
            # proj.c:430-432 (library pj_inv.c semantics)
            emess(3, "inverse projection not available", "proj", stderr)
        if "-T" in flags:
            if files:
                emess(4, "data files when generating Chebychev"
                      " prohibited", "proj", stderr)
            return _gen_cheby(flags, defn, stdout, stderr, argv)
        # the plain proj program maps through raw pj_fwd/pj_inv
        # (proj.c:429-434) — no pj_transform datum/geocent/axis logic
        t = _PjFwdFilter(P0, "-I" in flags)
    except SystemExit as exc:
        return exc.code
    except (ValueError, FileNotFoundError) as exc:
        return _init_failure("proj", exc, stderr)
    if "-v" in flags or "-V" in flags:
        from .crs import CRS

        _pr_list(CRS(defn), stdout, flags.get("-f"),
                 very_verby="-V" in flags)
    if "-b" in flags or "-i" in flags or "-o" in flags:
        bin_in = "-b" in flags or "-i" in flags
        bin_out = "-b" in flags or "-o" in flags
        return _process_proj_binary(stdin, stdout, t, flags, bin_in, bin_out)
    if "-V" in flags:
        from .crs import CRS

        P = CRS(defn)
        t_fwd = _PjFwdFilter(P, False)
        t_inv = _PjFwdFilter(P, True)
        for fname, fobj in _open_inputs(files, stdin, "proj", stderr):
            _vprocess_lines(fobj, t_fwd, t_inv, P, flags, stdout,
                            stderr, fname)
        return 0
    for fname, fobj in _open_inputs(files, stdin, "proj", stderr):
        for out in _process_proj_lines(fobj, t, flags):
            print(out, file=stdout)
    return 0


def geod_main(argv=None, stdin=None, stdout=None):
    """geod filter (src/geod.c): per-line inverse ('lat1 lon1 lat2
    lon2' -> al12 al21 s12, -I) or direct ('lat1 lon1 az12 s12' ->
    lat2 lon2 al21, the default), plus +lat_1/+lon_1 line/arc
    expansion modes (geod_set.c:37-59, do_geod/do_arc geod.c:34-57).
    al21 is the BACK azimuth (azi2 +/- 180, geod_interface.c:19,32);
    -a fullout, -p positive azimuths, -f/-F formats, -le/-lu lists."""
    argv = sys.argv[1:] if argv is None else argv
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = sys.stderr
    if not argv:
        return _usage_exit("geod", stderr)
    try:
        flags, plus, files = _c_args("geod", argv, stdout, stderr)
    except _ListingExit:
        return 0
    except SystemExit as exc:
        return exc.code
    defn = " ".join(plus)
    from .crs import UNITS, CRS
    from .kernels.geodesic import geod_direct, geod_inverse

    # geod_set runs only pj_ell_set + its OWN unit lookup
    # (geod_set.c:20-35) — strip +units so an unknown id reaches the
    # geod-specific emess, not the generic ellipse failure
    toks = defn.split()
    unit = next((t.split("=", 1)[1] for t in toks
                 if t.lstrip("+").startswith("units=")), None)
    ell_def = " ".join(t for t in toks
                       if not t.lstrip("+").startswith("units="))
    try:
        crs = CRS(ell_def if "proj=" in ell_def
                  else ell_def + " +proj=latlong")
    except (ValueError, FileNotFoundError) as exc:
        return _init_failure("geod", exc, stderr,
                             msg="ellipse setup failure", rc=1)
    a = crs.a
    f = crs.es / (1 + (1 - crs.es) ** 0.5) if crs.es else 0.0
    to_meter = 1.0
    if unit:
        if unit not in UNITS:
            try:
                emess(1, f"{unit} unknown unit conversion id", "geod",
                      stderr)
            except SystemExit as exc:
                return exc.code
        expr = UNITS[unit]
        to_meter = (float(expr.split("/")[0]) / float(expr.split("/")[1])
                    if "/" in expr else float(expr))
    fr_meter = 1.0 / to_meter
    ctx = _GeodCtx(a=a, f=f, to_meter=to_meter, fr_meter=fr_meter,
                   oform=flags.get("-f"), osform=flags.get("-F", "%.3f"),
                   prec=flags.get("-w", 3),
                   inverse="-I" in flags, fullout="-a" in flags,
                   pos_azi="-p" in flags, tag=_tag_of(flags),
                   wfixed=flags.get("-Wfixed", False))

    def pll(lat_deg, lon_deg):
        return _geod_pll(lat_deg, lon_deg, ctx)

    pl = crs.pl
    if pl.has("lat_1") and files:
        try:
            emess(1, "files specified for arc/geodesic mode",
                  "geod", stderr)
        except SystemExit as exc:
            return exc.code
    if pl.has("lat_1"):
        # line / arc mode (geod_set.c:37-59)
        lat1 = pl.get_r("lat_1") * RAD_TO_DEG
        lon1 = pl.get_r("lon_1", 0.0) * RAD_TO_DEG
        if pl.has("lat_2"):
            lat2 = pl.get_r("lat_2") * RAD_TO_DEG
            lon2 = pl.get_r("lon_2", 0.0) * RAD_TO_DEG
            s12, al12, azi2, _ = geod_inverse(
                np.array([lon1]), np.array([lat1]),
                np.array([lon2]), np.array([lat2]), a=a, f=f)
            S, al12 = s12[0], al12[0]
        else:
            S = pl.get_f("S", 0.0)
            al12 = pl.get_r("A", 0.0) * RAD_TO_DEG
            if S == 0.0:
                try:
                    emess(1, "incomplete geodesic/arc info", "geod", stderr)
                except SystemExit as exc:
                    return exc.code
            lo2, la2, a2 = geod_direct(np.array([lon1]), np.array([lat1]),
                                       np.array([al12]), np.array([S]),
                                       a=a, f=f)
            lat2, lon2 = la2[0], lo2[0]
        n_alpha = pl.get_i("n_A", 0)
        del_alpha = pl.get_r("del_A", 0.0) * RAD_TO_DEG
        del_S = abs(pl.get_f("del_S", 0.0))
        if n_alpha > 0:
            if del_alpha == 0.0:
                try:
                    emess(1, "del azimuth == 0", "geod", stderr)
                except SystemExit as exc:
                    return exc.code
            # do_arc (geod.c:34-44): sweep azimuth from al12
            print(pll(lat2, lon2), file=stdout)
            azv = al12
            for _ in range(n_alpha):
                azv = ((azv + del_alpha + 180.0) % 360.0) - 180.0
                lo2, la2, _ = geod_direct(np.array([lon1]), np.array([lat1]),
                                          np.array([azv]), np.array([S]),
                                          a=a, f=f)
                print(pll(la2[0], lo2[0]), file=stdout)
            return 0
        n_S = int(S / del_S + 0.5) if del_S else pl.get_i("n_S", 0)
        if n_S <= 0:
            try:
                emess(1, "no interval divisor selected", "geod", stderr)
            except SystemExit as exc:
                return exc.code
        # do_geod (geod.c:46-57): n_S+1 points along the line
        print(pll(lat1, lon1), file=stdout)
        ks = np.arange(1, n_S)
        if len(ks):
            lo, la, _ = geod_direct(np.full(len(ks), lon1),
                                    np.full(len(ks), lat1),
                                    np.full(len(ks), al12),
                                    S * ks / n_S, a=a, f=f)
            for i in range(len(ks)):
                print(pll(la[i], lo[i]), file=stdout)
        print(pll(lat2, lon2), file=stdout)
        return 0

    for fname, fobj in _open_inputs(files, stdin, "geod", stderr):
        for chunk in _iter_line_chunks(fobj):
            print(_geod_chunk(chunk, ctx), file=stdout)
    return 0


# geod's settings, from its ellipsoid and command-line flags
_GeodCtx = namedtuple("_GeodCtx", "a f to_meter fr_meter oform osform prec"
                      " inverse fullout pos_azi tag wfixed")


def _geod_pll(lat_deg, lon_deg, ctx):
    if ctx.oform:
        return f"{ctx.oform % lat_deg}\t{ctx.oform % lon_deg}"
    return (f"{rtodms(np.radians(lat_deg), 'N', 'S', ctx.prec, ctx.wfixed)}\t"
            f"{rtodms(np.radians(lon_deg), 'E', 'W', ctx.prec, ctx.wfixed)}")


def _geod_chunk(chunk, ctx):
    """geod.c's line loop (src/geod.c:60-100) over one chunk: dmstor
    fields 'lat1 lon1 lat2 lon2' (-I) or 'lat1 lon1 az12' plus a strtod
    distance, garbage / short lines 0-filled, then the remainder after
    the last consumed field echoed VERBATIM.  al21 is the back azimuth,
    azi2 -/+ 180 (geod_interface.c:19,32); -p wraps azimuths to
    [0, 360); -f/-F print numbers, the default prints rtodms DMS."""
    import pyarrow as pa

    from .kernels.geodesic import geod_direct, geod_inverse

    arr, di, vals, _cons, tail = _parse_chunk(
        chunk, ctx.tag, (True,) * (4 if ctx.inverse else 3),
        not ctx.inverse, False)
    if not di.size:
        return _join_lines(arr)
    lat1, lon1 = np.degrees(vals[0]), np.degrees(vals[1])
    if ctx.inverse:
        lat2, lon2 = np.degrees(vals[2]), np.degrees(vals[3])
        S, al12, azi2, _m12 = _quiet(geod_inverse, lon1, lat1, lon2, lat2,
                                     a=ctx.a, f=ctx.f)
    else:
        al12 = np.degrees(vals[2])
        S = vals[3] * ctx.to_meter
        lon2, lat2, azi2 = _quiet(geod_direct, lon1, lat1, al12, S,
                                  a=ctx.a, f=ctx.f)
    al21 = azi2 + np.where(azi2 >= 0.0, -180.0, 180.0)
    if ctx.fullout:
        pts, azs = [lat1, lon1, lat2, lon2], [al12, al21]
    elif ctx.inverse:
        pts, azs = [], [al12, al21]
    else:
        pts, azs = [lat2, lon2], [al21]
    if ctx.pos_azi:
        azs = [np.where(a < 0.0, a + 360.0, a) for a in azs]
    if ctx.oform:
        cols = _fmt_cols(pts + azs, ctx.oform)
    else:
        cols = ([_dms_col(c, *("NS" if k % 2 == 0 else "EW"), ctx.prec,
                          ctx.wfixed) for k, c in enumerate(pts)]
                + [_dms_col(a, "", "", ctx.prec, ctx.wfixed) for a in azs])
    if ctx.fullout or ctx.inverse:
        cols += _fmt_cols([S * ctx.fr_meter], ctx.osform)
    pieces = [cols[0]]
    for c in cols[1:]:
        pieces += [pa.scalar("\t"), c]
    return _emit(arr, di, pieces, None, tail)
