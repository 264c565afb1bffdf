"""Datum/geoid grid file readers + writers.

Readers replicate the reference's on-disk formats (all loaded eagerly —
the actor-pool ``__init__`` replaces the reference's lazy global cache):

- CTABLE2  (src/nad_init.c:85-175; dispatch src/pj_gridinfo.c:893-918)
- NTv2 .gsb multi-subgrid, parent/child tree from SUB_NAME/PARENT,
  little-endian float32 shift quads in arc-seconds, E->W column flip
  (src/pj_gridinfo.c:424-621, load 270-330)
- NTv1 big-endian doubles, header in degrees, data in arc-seconds,
  E->W flip (src/pj_gridinfo.c:624-709, load 196-267)
- GTX NOAA vertical geoid heights, big-endian, row-major south-up
  (src/pj_gridinfo.c:711-815)

Writers are the ``nad2bin``-equivalent fixture generators
(src/nad2bin.c): reader(writer(grid)) round-trips exactly, which is
what the tests pin. No external grid data is ever shipped — fixtures
synthesize their own grids.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..kernels.common import DEG_TO_RAD
from ..kernels.grid import ShiftGrid, read_ctable2, write_ctable2  # noqa: F401

SEC2RAD = DEG_TO_RAD / 3600.0


# ---------------------------------------------------------------------------
# NTv2
# ---------------------------------------------------------------------------

def _ntv2_rec(name: bytes, payload: bytes) -> bytes:
    if len(name) != 8 or len(payload) != 8:
        raise ValueError(f"NTv2 record {name!r}: name and payload must be 8 "
                         f"bytes each, got {len(name)} and {len(payload)}")
    return name + payload


def write_ntv2(path: str, grids):
    """Write an NTv2 .gsb: ``grids`` = [(ShiftGrid, parent_id or None)].
    Shift values are converted back to arc-seconds, positive-west
    longitudes, E->W flipped — the exact inverse of the reader."""
    with open(path, "wb") as f:
        f.write(_ntv2_rec(b"NUM_OREC", struct.pack("<i4x", 11)))
        f.write(_ntv2_rec(b"NUM_SREC", struct.pack("<i4x", 11)))
        f.write(_ntv2_rec(b"NUM_FILE", struct.pack("<i4x", len(grids))))
        f.write(_ntv2_rec(b"GS_TYPE ", b"SECONDS "))
        f.write(_ntv2_rec(b"VERSION ", b"NTv2.0  "))
        f.write(_ntv2_rec(b"SYSTEM_F", b"SYNTH   "))
        f.write(_ntv2_rec(b"SYSTEM_T", b"SYNTH   "))
        f.write(_ntv2_rec(b"MAJOR_F ", struct.pack("<d", 6378137.0)))
        f.write(_ntv2_rec(b"MINOR_F ", struct.pack("<d", 6356752.314)))
        f.write(_ntv2_rec(b"MAJOR_T ", struct.pack("<d", 6378137.0)))
        f.write(_ntv2_rec(b"MINOR_T ", struct.pack("<d", 6356752.314)))
        for grid, parent in grids:
            nlam, nphi = grid.lim
            ll_lam_sec = grid.ll[0] / SEC2RAD
            ll_phi_sec = grid.ll[1] / SEC2RAD
            dl_sec = grid.delta[0] / SEC2RAD
            dp_sec = grid.delta[1] / SEC2RAD
            s_lat = ll_phi_sec
            n_lat = ll_phi_sec + (nphi - 1) * dp_sec
            w_long = -ll_lam_sec                       # positive west
            e_long = -(ll_lam_sec + (nlam - 1) * dl_sec)
            gs_count = nlam * nphi
            f.write(_ntv2_rec(b"SUB_NAME", grid.id.encode()[:8].ljust(8)))
            f.write(_ntv2_rec(b"PARENT  ",
                              (parent or "NONE").encode()[:8].ljust(8)))
            f.write(_ntv2_rec(b"CREATED ", b"        "))
            f.write(_ntv2_rec(b"UPDATED ", b"        "))
            f.write(_ntv2_rec(b"S_LAT   ", struct.pack("<d", s_lat)))
            f.write(_ntv2_rec(b"N_LAT   ", struct.pack("<d", n_lat)))
            f.write(_ntv2_rec(b"E_LONG  ", struct.pack("<d", e_long)))
            f.write(_ntv2_rec(b"W_LONG  ", struct.pack("<d", w_long)))
            f.write(_ntv2_rec(b"LAT_INC ", struct.pack("<d", dp_sec)))
            f.write(_ntv2_rec(b"LONG_INC", struct.pack("<d", dl_sec)))
            f.write(_ntv2_rec(b"GS_COUNT", struct.pack("<i4x", gs_count)))
            # data: per row, W->E file order = our E->W flipped columns;
            # record = (phi_shift_sec, lam_shift_sec, acc, acc) float32
            cvs = grid.cvs  # (nphi, nlam, 2) radians, [...,0]=lam [...,1]=phi
            quad = np.zeros((nphi, nlam, 4), dtype="<f4")
            flipped = cvs[:, ::-1, :]
            quad[..., 0] = flipped[..., 1] / np.float32(SEC2RAD)
            quad[..., 1] = flipped[..., 0] / np.float32(SEC2RAD)
            f.write(quad.tobytes())


def read_ntv2(path: str) -> list:
    """Read an NTv2 .gsb; returns the top-level ShiftGrid list with
    ``children`` populated (parent/child tree)."""
    with open(path, "rb") as f:
        header = f.read(11 * 16)
        num_subfiles = struct.unpack_from("<i", header, 8 + 32)[0]
        all_grids = {}
        order = []
        parents = {}
        for _ in range(num_subfiles):
            sub = f.read(11 * 16)
            if sub[:8] != b"SUB_NAME":
                raise ValueError(f"{path}: bad NTv2 subfile header")
            name = sub[8:16].decode().strip()
            parent = sub[24:32].decode().strip()
            s_lat = struct.unpack_from("<d", sub, 8 + 16 * 4)[0]
            n_lat = struct.unpack_from("<d", sub, 8 + 16 * 5)[0]
            e_long = struct.unpack_from("<d", sub, 8 + 16 * 6)[0]
            w_long = struct.unpack_from("<d", sub, 8 + 16 * 7)[0]
            lat_inc = struct.unpack_from("<d", sub, 8 + 16 * 8)[0]
            long_inc = struct.unpack_from("<d", sub, 8 + 16 * 9)[0]
            gs_count = struct.unpack_from("<i", sub, 8 + 16 * 10)[0]
            ll_lam = -w_long
            ll_phi = s_lat
            ur_lam = -e_long
            ur_phi = n_lat
            nlam = int(abs(ur_lam - ll_lam) / long_inc + 0.5) + 1
            nphi = int(abs(ur_phi - ll_phi) / lat_inc + 0.5) + 1
            if gs_count != nlam * nphi:
                raise ValueError(f"{path}: GS_COUNT mismatch")
            raw = np.frombuffer(f.read(gs_count * 16), dtype="<f4").reshape(
                nphi, nlam, 4)
            cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
            # E->W flip + (phi, lam) order + arc-sec -> radians
            # (src/pj_gridinfo.c:322-331).  The C promotes the float32
            # seconds to DOUBLE for the multiply and stores the float32
            # result (ONE rounding); numpy 1.x value-based casting would
            # silently run float32*float64-scalar IN float32 (double
            # rounding, up to 1 ulp off the reference), so force the
            # float64 intermediate explicitly.
            r64 = raw.astype(np.float64) * SEC2RAD
            cvs[..., 1] = r64[..., 0].astype(np.float32)[:, ::-1]
            cvs[..., 0] = r64[..., 1].astype(np.float32)[:, ::-1]
            g = ShiftGrid(name,
                          (ll_lam * SEC2RAD, ll_phi * SEC2RAD),
                          (long_inc * SEC2RAD, lat_inc * SEC2RAD),
                          (nlam, nphi), cvs)
            all_grids[name] = g
            order.append(name)
            parents[name] = parent
    top = []
    for name in order:
        p = parents[name]
        if p == "NONE" or p not in all_grids:
            top.append(all_grids[name])
        else:
            all_grids[p].children.append(all_grids[name])
    return top


# ---------------------------------------------------------------------------
# NTv1 (big-endian doubles)
# ---------------------------------------------------------------------------

def write_ntv1(path: str, grid: ShiftGrid):
    nlam, nphi = grid.lim
    ll_lam_deg = grid.ll[0] / DEG_TO_RAD
    ll_phi_deg = grid.ll[1] / DEG_TO_RAD
    dl_deg = grid.delta[0] / DEG_TO_RAD
    dp_deg = grid.delta[1] / DEG_TO_RAD
    header = bytearray(176)
    header[0:6] = b"HEADER"
    struct.pack_into(">i", header, 8, 12)
    struct.pack_into(">d", header, 24, ll_phi_deg)                      # S_LAT
    struct.pack_into(">d", header, 40, ll_phi_deg + (nphi - 1) * dp_deg)  # N_LAT
    struct.pack_into(">d", header, 56, -(ll_lam_deg + (nlam - 1) * dl_deg))  # E_LONG (pos W)
    struct.pack_into(">d", header, 72, -ll_lam_deg)                     # W_LONG
    struct.pack_into(">d", header, 88, dp_deg)
    struct.pack_into(">d", header, 104, dl_deg)
    with open(path, "wb") as f:
        f.write(bytes(header))
        flipped = grid.cvs[:, ::-1, :].astype(np.float64)
        pairs = np.empty((nphi, nlam, 2), dtype=">f8")
        pairs[..., 0] = flipped[..., 1] / SEC2RAD  # phi arc-sec
        pairs[..., 1] = flipped[..., 0] / SEC2RAD  # lam arc-sec
        f.write(pairs.tobytes())


def read_ntv1(path: str) -> ShiftGrid:
    with open(path, "rb") as f:
        header = f.read(176)
        if struct.unpack_from(">i", header, 8)[0] != 12:
            raise ValueError(f"{path}: NTv1 record count != 12")
        ll_phi = struct.unpack_from(">d", header, 24)[0]
        ur_phi = struct.unpack_from(">d", header, 40)[0]
        ur_lam = -struct.unpack_from(">d", header, 56)[0]
        ll_lam = -struct.unpack_from(">d", header, 72)[0]
        dp = struct.unpack_from(">d", header, 88)[0]
        dl = struct.unpack_from(">d", header, 104)[0]
        nlam = int(abs(ur_lam - ll_lam) / dl + 0.5) + 1
        nphi = int(abs(ur_phi - ll_phi) / dp + 0.5) + 1
        raw = np.frombuffer(f.read(nlam * nphi * 16), dtype=">f8").reshape(
            nphi, nlam, 2)
        cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
        cvs[..., 1] = (raw[..., 0] * SEC2RAD).astype(np.float32)[:, ::-1]
        cvs[..., 0] = (raw[..., 1] * SEC2RAD).astype(np.float32)[:, ::-1]
        return ShiftGrid("NTv1 Grid Shift File",
                         (ll_lam * DEG_TO_RAD, ll_phi * DEG_TO_RAD),
                         (dl * DEG_TO_RAD, dp * DEG_TO_RAD),
                         (nlam, nphi), cvs)


# ---------------------------------------------------------------------------
# GTX vertical grids (geoid heights, meters)
# ---------------------------------------------------------------------------

class VShiftGrid:
    """Vertical shift raster: meters at lat/lon nodes, row-major from
    the lower-left, NO column flip (src/pj_apply_vgridshift.c:146-155).
    ll/delta in radians."""

    NODATA = np.float32(-88.8888)

    def __init__(self, grid_id, ll, delta, lim, values):
        self.id = str(grid_id)
        self.ll = (float(ll[0]), float(ll[1]))
        self.delta = (float(delta[0]), float(delta[1]))
        self.lim = (int(lim[0]), int(lim[1]))
        values = np.asarray(values, dtype=np.float32)
        want = (self.lim[1], self.lim[0])
        if values.shape != want:
            raise ValueError(f"grid {self.id!r}: value array has shape "
                             f"{values.shape}, expected (nphi, nlam) = {want}")
        self.values = values

    def contains(self, lam, phi):
        """NON-inflated bbox (vgridshift has no epsilon,
        src/pj_apply_vgridshift.c:96-99)."""
        ll_lam, ll_phi = self.ll
        dl, dp = self.delta
        nl, npq = self.lim
        return ~((ll_phi > phi) | (ll_lam > lam)
                 | (ll_phi + (npq - 1) * dp < phi)
                 | (ll_lam + (nl - 1) * dl < lam))


def write_gtx(path: str, grid: VShiftGrid):
    with open(path, "wb") as f:
        f.write(struct.pack(">dddd",
                            grid.ll[1] / DEG_TO_RAD, grid.ll[0] / DEG_TO_RAD,
                            grid.delta[1] / DEG_TO_RAD, grid.delta[0] / DEG_TO_RAD))
        f.write(struct.pack(">ii", grid.lim[1], grid.lim[0]))
        f.write(grid.values.astype(">f4").tobytes())


def read_gtx(path: str) -> VShiftGrid:
    with open(path, "rb") as f:
        yorigin, xorigin, ystep, xstep = struct.unpack(">dddd", f.read(32))
        rows, columns = struct.unpack(">ii", f.read(8))
        if xorigin >= 180.0:  # 0-360 normalization (pj_gridinfo.c:786-789)
            xorigin -= 360.0
        values = np.frombuffer(f.read(rows * columns * 4), dtype=">f4").astype(
            np.float32).reshape(rows, columns)
        return VShiftGrid("GTX Vertical Grid Shift File",
                          (xorigin * DEG_TO_RAD, yorigin * DEG_TO_RAD),
                          (xstep * DEG_TO_RAD, ystep * DEG_TO_RAD),
                          (columns, rows), values)


# ---------------------------------------------------------------------------
# format sniffing (pj_gridinfo_init, src/pj_gridinfo.c:820-918)
# ---------------------------------------------------------------------------

def read_any_grid(path: str):
    """Sniff + read any supported grid file. Returns a list[ShiftGrid]
    (NTv2 can hold several top-level subgrids) or [VShiftGrid] for gtx."""
    with open(path, "rb") as f:
        head = f.read(160)
    if head.startswith(b"CTABLE V2"):
        return [read_ctable2(path)]
    if head[:8] == b"NUM_OREC":
        return read_ntv2(path)
    if head[:6] == b"HEADER":
        return [read_ntv1(path)]
    return [read_gtx(path)]


def find_lib_file(name: str):
    """pj_open_lib's search (src/pj_open_lib.c:41-176) for grid and grid
    catalog files: ``name`` as given if that file exists, else
    ``$PROJ_LIB/name``; None when neither does.  ``+init`` files keep
    their own rule (``crs.CRS``)."""
    if os.path.isfile(name):
        return name
    proj_lib = os.environ.get("PROJ_LIB")
    if proj_lib and os.path.isfile(os.path.join(proj_lib, name)):
        return os.path.join(proj_lib, name)
    return None


def load_grids(name: str, cache=None):
    """Grid name -> the file's top-level grids in file order (an NTv2
    file's siblings, the reference's ``gi->next`` chain), or None when
    ``find_lib_file`` finds no file.  ``cache`` maps absolute paths to
    grids already read."""
    from ..log import PJ_LOG_DEBUG_MAJOR, pj_log

    path = find_lib_file(name)
    if path is None:
        pj_log(PJ_LOG_DEBUG_MAJOR, f"grid {name!r} not found in search path")
        return None
    cache = {} if cache is None else cache
    key = os.path.abspath(path)
    if key not in cache:
        cache[key] = read_any_grid(path)
        pj_log(PJ_LOG_DEBUG_MAJOR, f"loaded grid {path}")
    return cache[key]


_GRID_FILE_CACHE: dict = {}


def default_grid_loader(name):
    """The ``grid_loader`` of a Transform given none: ``load_grids`` with
    the grids cached per path for the process (the reference caches
    per-ctx gridinfo the same way, src/pj_gridinfo.c)."""
    return load_grids(name, _GRID_FILE_CACHE)


def dir_grid_loader(grid_dir: str):
    """A ``grid_loader`` for Transform/nadgrids resolving names against a
    directory of grid files (any supported format)."""
    def loader(name):
        grids = load_grids(os.path.join(grid_dir, name))
        return grids[0] if grids is not None and len(grids) == 1 else grids
    return loader


# ---------------------------------------------------------------------------
# nad2bin: ASCII .lla ingest + binary conversion (src/nad2bin.c)
# ---------------------------------------------------------------------------

U_SEC_TO_RAD = 4.848136811095359935899141023e-12  # src/nad2bin.c:8


def parse_lla(text: str) -> ShiftGrid:
    """Parse a bivariate ASCII ``.lla`` shift table (src/nad2bin.c:
    100-148): line 1 = table id (fgets consumes at most 79 chars);
    then a whitespace token stream of ``nlam nphi <skipped> ll_lam
    del_lam ll_phi del_phi`` (degrees), and per row ``i`` a ``i:``
    check token, one absolute (lam, phi) micro-arc-second integer
    pair, then nlam-1 delta pairs accumulated in int64 exactly like
    the C's ``long`` — each converted to float32 radians via the same
    double multiply.  Row 0 is the southern (ll) edge."""
    nl = text.find("\n")
    if nl < 0:
        raise ValueError("lla: missing header line")
    gid = text[:nl][:78]
    toks = text[nl + 1:].split()
    if len(toks) < 7:
        raise ValueError("lla: short header")
    nlam, nphi = int(toks[0]), int(toks[1])
    ll_lam, del_lam = (float(toks[3]) * DEG_TO_RAD,
                       float(toks[4]) * DEG_TO_RAD)
    ll_phi, del_phi = (float(toks[5]) * DEG_TO_RAD,
                       float(toks[6]) * DEG_TO_RAD)
    pos = 7
    per_row = 1 + 2 * nlam
    cvs = np.empty((nphi, nlam, 2), dtype=np.float32)
    for i in range(nphi):
        row = toks[pos:pos + per_row]
        if len(row) < per_row:
            raise ValueError("lla: premature EOF")
        if not row[0].endswith(":") or int(row[0][:-1]) != i:
            raise ValueError(f"lla: format check on row {i}")
        vals = np.array(row[1:], dtype=np.int64).reshape(nlam, 2)
        acc = np.cumsum(vals, axis=0)  # first pair absolute, rest deltas
        cvs[i, :, 0] = (acc[:, 0].astype(np.float64)
                        * U_SEC_TO_RAD).astype(np.float32)
        cvs[i, :, 1] = (acc[:, 1].astype(np.float64)
                        * U_SEC_TO_RAD).astype(np.float32)
        pos += per_row
    return ShiftGrid(gid, (ll_lam, ll_phi), (del_lam, del_phi),
                     (nlam, nphi), cvs)


def nad2bin_convert(text: str, path: str, fmt: str = "ctable2",
                    raw_id: str | None = None) -> ShiftGrid:
    """Convert an ASCII .lla table to binary exactly like the
    reference ``nad2bin`` tool (src/nad2bin.c:158-378); formats
    'ctable' (in-memory struct dump, pointer field zeroed where the C
    dumps a heap address), 'ctable2' and 'ntv2'.  Output is
    byte-identical to the C tool except bytes the C leaves
    uninitialized (stack tail of the 80-byte id, the struct-dump cvs
    pointer, heap tail of NTv2 accuracy words) — we zero them.
    Returns the parsed ShiftGrid."""
    from ..kernels.grid import PI

    grid = parse_lla(text)
    # fgets keeps the newline in ct.id; reproduce it for byte parity
    if raw_id is None:
        raw_id = (text.split("\n", 1)[0] + "\n")[:79]
    if fmt == "ctable2":
        write_ctable2(path, ShiftGrid(raw_id, grid.ll, grid.delta, grid.lim,
                                      grid.cvs))
        return grid
    if fmt == "ctable":
        # raw struct CTABLE dump (machine/byte-order specific,
        # src/nad2bin.c:152-164): char id[80], LP ll, LP del, ILP lim,
        # then the cvs POINTER (8 bytes on LP64 — value meaningless on
        # read-back, nad_ctable_init overwrites it), then the data
        with open(path, "wb") as f:
            f.write(raw_id.encode()[:80].ljust(80, b"\0"))
            f.write(struct.pack("<dddd", grid.ll[0], grid.ll[1],
                                grid.delta[0], grid.delta[1]))
            f.write(struct.pack("<ii", grid.lim[0], grid.lim[1]))
            f.write(b"\0" * 8)
            f.write(np.ascontiguousarray(grid.cvs, dtype="<f4").tobytes())
        return grid
    if fmt != "ntv2":
        raise ValueError(f"nad2bin: unsupported format {fmt!r}")
    nlam, nphi = grid.lim
    ll_lam, ll_phi = grid.ll
    dl, dp = grid.delta
    ur_lam = ll_lam + (nlam - 1) * dl
    ur_phi = ll_phi + (nphi - 1) * dp
    sec_per_rad = 3600.0 / (PI / 180.0)  # src/nad2bin.c:352 constant
    with open(path, "wb") as f:
        f.write(b"NUM_OREC" + struct.pack("<i4x", 11))
        f.write(b"NUM_SREC" + struct.pack("<i4x", 11))
        f.write(b"NUM_FILE" + struct.pack("<i4x", 1))
        f.write(b"GS_TYPE " + b"SECONDS ")
        f.write(b"VERSION " + b" " * 8)
        f.write(b"SYSTEM_F" + b"NAD27   ")
        f.write(b"SYSTEM_T" + b"NAD83   ")
        f.write(b"MAJOR_F " + struct.pack("<d", 0.0))
        f.write(b"MINOR_F " + struct.pack("<d", 0.0))
        f.write(b"MAJOR_T " + struct.pack("<d", 0.0))
        f.write(b"MINOR_T " + struct.pack("<d", 0.0))
        f.write(b"SUB_NAME" + b" " * 8)
        f.write(b"PARENT  " + b"NONE    ")
        f.write(b"CREATED " + b" " * 8)
        f.write(b"UPDATED " + b" " * 8)
        # header degrees->seconds with the C's exact op order
        # (v * 3600.0 / DEG_TO_RAD, src/nad2bin.c:291-313)
        f.write(b"S_LAT   " + struct.pack("<d", ll_phi * 3600.0 / DEG_TO_RAD))
        f.write(b"N_LAT   " + struct.pack("<d", ur_phi * 3600.0 / DEG_TO_RAD))
        f.write(b"E_LONG  " + struct.pack("<d",
                                          -1 * ur_lam * 3600.0 / DEG_TO_RAD))
        f.write(b"W_LONG  " + struct.pack("<d",
                                          -1 * ll_lam * 3600.0 / DEG_TO_RAD))
        f.write(b"LAT_INC " + struct.pack("<d", dp * 3600.0 / DEG_TO_RAD))
        f.write(b"LONG_INC" + struct.pack("<d", dl * 3600.0 / DEG_TO_RAD))
        f.write(b"GS_COUNT" + struct.pack("<i4x", nlam * nphi))
        # data rows: columns E->W reversed, (phi, lam, acc, acc)
        # float32 with the float->double->float32 multiply the C does
        # (src/nad2bin.c:342-356); accuracy words zero
        quad = np.zeros((nphi, nlam, 4), dtype="<f4")
        flip = grid.cvs[:, ::-1, :]
        quad[..., 0] = (flip[..., 1].astype(np.float64)
                        * sec_per_rad).astype(np.float32)
        quad[..., 1] = (flip[..., 0].astype(np.float64)
                        * sec_per_rad).astype(np.float32)
        f.write(quad.tobytes())
    return grid
