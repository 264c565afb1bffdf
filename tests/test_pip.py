"""PIP join stage on degenerate inputs, on polar and antimeridian
fixtures, and differentially against the scalar even-odd reference
(tests/test_kernels.py) on fuzzed rings."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proj_ray.kernels.pip import N_LON, SPLIT_AT, SUB, PolygonSet
from proj_ray.stages.pip_stage import PIPJoinActor
from tests.test_kernels import scalar_pip_rows, scalar_pnpoly

EMPTY_SCHEMA = pa.schema([("pid", pa.int64()), ("polygon_id", pa.string())])
SQUARE = ("sq", [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])


def _points(lon, lat):
    lon = np.asarray(lon, dtype=np.float64)
    return pa.table({"pid": pa.array(np.arange(lon.size), pa.int64()),
                     "lon": pa.array(lon),
                     "lat": pa.array(np.asarray(lat, dtype=np.float64))})


def _rows(polys, t):
    out = PIPJoinActor(polys, id_cols=("pid",))(t)
    return sorted(zip(out["pid"].to_pylist(), out["polygon_id"].to_pylist()))


@pytest.mark.parametrize("ring", [
    [(0.0, 0.0), (1.0, 1.0)],                         # two vertices
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)],  # n x 3
    [0.0, 1.0, 2.0, 3.0],                             # flat
    [],
])
def test_malformed_ring_raises_value_error(ring):
    with pytest.raises(ValueError, match="polygon ring"):
        PIPJoinActor([SQUARE, ("bad", ring)])


def test_ring_check_survives_optimized_mode():
    code = ("from proj_ray.kernels.pip import PolygonSet\n"
            "try:\n    PolygonSet([('bad', [(0, 0), (1, 1)])])\n"
            "except ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-O", "-c", code], check=True, cwd=repo)


def test_zero_polygons_give_empty_typed_table():
    out = PIPJoinActor([], id_cols=("pid",))(_points([1.0, 2.0], [1.0, 2.0]))
    assert out.num_rows == 0
    assert out.schema == EMPTY_SCHEMA


def test_zero_row_batch_gives_empty_typed_table():
    out = PIPJoinActor([SQUARE], id_cols=("pid",))(_points([], []))
    assert out.num_rows == 0
    assert out.schema == EMPTY_SCHEMA


def test_nonfinite_lanes_match_nothing_and_spare_neighbours():
    lon = np.array([5.0, np.nan, 5.0, np.inf, 5.0, -np.inf, 5.0, 5.0, np.nan])
    lat = np.array([5.0, 5.0, np.nan, 5.0, np.inf, 5.0, -np.inf, 5.0, np.nan])
    got = _rows([SQUARE], _points(lon, lat))
    assert got == [(0, "sq"), (7, "sq")]


def test_ring_with_nan_vertex_matches_nothing():
    nan_ring = ("nan", [(0.0, 0.0), (10.0, np.nan), (10.0, 10.0), (0.0, 10.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN -> int cast in the grid build
        got = _rows([nan_ring, SQUARE], _points([5.0, 20.0], [5.0, 5.0]))
    assert got == [(0, "sq")]


def test_null_lanes_match_nothing_and_spare_neighbours():
    # as in the SQL twin, where a comparison with NULL is never true
    t = pa.table({"pid": pa.array([0, 1, 2, 3, 4], pa.int64()),
                  "lon": pa.array([5.0, None, 5.0, None, 5.0], pa.float64()),
                  "lat": pa.array([5.0, 5.0, None, None, 5.0], pa.float64())})
    assert _rows([SQUARE], t) == [(0, "sq"), (4, "sq")]


def test_polygon_past_the_antimeridian_still_matches():
    wide = ("wide", [(150.0, -5.0), (200.0, -5.0), (200.0, 5.0), (150.0, 5.0)])
    got = _rows([wide], _points([185.0, 179.5, 160.0, 201.0, -175.0],
                                [0.0, 0.0, 0.0, 0.0, 0.0]))
    assert got == [(0, "wide"), (1, "wide"), (2, "wide")]


def test_pip_random_triangles_match_scalar_incl_polar():
    """A dense random polygon set, many polygons per cell, plus a polar
    cap and 85.5-90 degree stress points, against the scalar test."""
    rng = np.random.default_rng(11)
    polys = [("cap_n", [(-180.0, 86.0), (-60.0, 86.0), (60.0, 86.0),
                        (180.0, 86.0), (180.0, 90.0), (-180.0, 90.0)])]
    for k in range(60):
        x0 = rng.uniform(-170, 150)
        y0 = rng.uniform(-75, 70)
        polys.append((f"tri{k}", [(x0, y0), (x0 + rng.uniform(2, 25), y0),
                                  (x0 + rng.uniform(0, 10),
                                   y0 + rng.uniform(2, 15))]))
    lon = np.concatenate([rng.uniform(-180, 180, 6000),
                          rng.uniform(-180, 180, 400)])
    lat = np.concatenate([rng.uniform(-90, 90, 6000),
                          rng.uniform(85.5, 90, 400)])
    got = _rows(polys, _points(lon, lat))
    assert any(pid == "cap_n" for _, pid in got)
    assert got == scalar_pip_rows(polys, lon, lat)


# -- differential fuzzing against the scalar reference ------------------------

# quarter-degree steps: horizontal edges, collinear runs, repeated
# vertices and points on one-degree cell borders all come up often
grid_coord = st.integers(-12, 12).map(lambda k: k * 0.25)
# centres at the antimeridian and the poles push rings past +-180 / +-90
centre = st.tuples(st.sampled_from([0.0, 37.3, 179.5, -179.75]),
                   st.sampled_from([0.0, -41.6, 88.5, -89.25]))


@st.composite
def rings(draw, at=centre):
    cx, cy = draw(at)
    n = draw(st.integers(3, 10))
    if draw(st.booleans()):  # star-shaped: convex for equal radii, else concave
        steps = sorted(draw(st.lists(st.integers(0, 15), min_size=n,
                                     max_size=n, unique=True)))
        radii = draw(st.lists(st.sampled_from([0.5, 1.25, 2.0]),
                              min_size=n, max_size=n))
        ring = [(cx + r * np.cos(k * np.pi / 8), cy + r * np.sin(k * np.pi / 8))
                for k, r in zip(steps, radii)]
    else:  # free: any vertex order, self-crossings allowed
        ring = [(cx + x, cy + y) for x, y in draw(
            st.lists(st.tuples(grid_coord, grid_coord), min_size=n, max_size=n))]
    if draw(st.booleans()):  # collinear run: split the first edge
        (x0, y0), (x1, y1) = ring[0], ring[1]
        ring.insert(1, ((x0 + x1) / 2, (y0 + y1) / 2))
    if draw(st.booleans()):  # duplicate closing vertex
        ring.append(ring[0])
    return ring


@settings(max_examples=150, deadline=None)
@given(st.lists(rings(), min_size=1, max_size=4),
       st.lists(st.tuples(grid_coord, grid_coord), max_size=30),
       st.data())
def test_pip_join_matches_scalar_pnpoly(ring_list, offsets, data):
    polys = [(f"p{k}", ring) for k, ring in enumerate(ring_list)]
    pts = []
    for ring in ring_list:
        pts += ring  # on vertices
        pts += [((x0 + x1) / 2, (y0 + y1) / 2)  # on edge midpoints
                for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1])]
    cx, cy = data.draw(centre)
    pts += [(cx + dx, cy + dy) for dx, dy in offsets]
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    assert _rows(polys, _points(lon, lat)) == scalar_pip_rows(polys, lon, lat)


# -- crowded cells: more than SPLIT_AT polygons, split into sub-cells ----------

def _brute_force_pairs(polys, lon, lat):
    """All-pairs scalar join in the kernel's order: by point, then polygon."""
    return [(k, j) for k, (x, y) in enumerate(zip(lon, lat))
            for j, (_, ring) in enumerate(polys) if scalar_pnpoly(ring, x, y)]


def _crowded_polygons():
    """Crowds of small rings, with vertices on 1/SUB-degree sub-cell
    borders, over the four cells of 10..12 x 20..22, and past the
    antimeridian in the 179..180 cell; plus rings spanning several
    crowded cells."""
    u = 1.0 / SUB
    polys = []
    for k in range(5 * SPLIT_AT):
        x0 = 10.0 + (5 * k % 29) * u
        y0 = 20.0 + (7 * k % 29) * u
        w, h = (1 + k % 4) * u, (1 + k % 3) * u
        if k % 2:  # concave notch on the right side
            ring = [(x0, y0), (x0 + w, y0), (x0 + w / 2, y0 + h / 2),
                    (x0 + w, y0 + h), (x0, y0 + h)]
        else:
            ring = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
        polys.append((f"c{k}", ring))
    polys.append(("span", [(10.25, 20.5), (11.75, 20.5), (11.75, 21.5), (10.25, 21.5)]))
    polys.append(("tri", [(9.5, 19.5), (12.5, 20.0), (11.0, 22.5)]))
    for k in range(SPLIT_AT + 2):
        x0 = 179.0 + (3 * k % 13) * u
        polys.append((f"am{k}", [(x0, -0.5), (x0 + 1.0 + k * u, -0.5),
                                 (x0 + 0.5, 0.5 + k * u)]))
    return polys


def test_crowded_cells_match_scalar_and_brute_force_order():
    polys = _crowded_polygons()
    ps = PolygonSet(polys)
    crowded = [(lat + 90) * N_LON + lon + 180
               for lon, lat in [(10, 20), (11, 20), (10, 21), (11, 21), (179, -1), (179, 0)]]
    assert set(crowded) <= set(ps.split_cells.tolist())
    # a lattice of 1/(2 SUB) steps: every other line is a sub-cell border
    g = 9.75 + np.arange(81) / (2 * SUB)
    lon, lat = [a.ravel() for a in np.meshgrid(g, g + 10.0)]
    g = 178.75 + np.arange(97) / (2 * SUB)  # runs past +180 into col 359
    alon, alat = [a.ravel() for a in np.meshgrid(g, np.arange(-24, 25) / (2 * SUB))]
    verts = np.array([v for _, ring in polys for v in ring])
    odd = np.array([(np.nan, 20.5), (10.5, np.nan), (np.inf, 20.5), (10.5, np.inf),
                    (-np.inf, 20.5), (10.5, -np.inf), (180.25, 0.0), (181.0, 0.0),
                    (200.0, 0.0), (-180.5, 0.0), (np.inf, 0.0), (np.nan, 0.0)])
    lon = np.concatenate([lon, alon, verts[:, 0], odd[:, 0]])
    lat = np.concatenate([lat, alat, verts[:, 1], odd[:, 1]])
    pt, poly = ps.join(lon, lat)
    assert list(zip(pt.tolist(), poly.tolist())) == _brute_force_pairs(polys, lon, lat)
    assert len(pt) > 500 and (lon[pt] > 180.0).any()
    assert not np.isin(pt, np.flatnonzero(~np.isfinite(lon + lat))).any()
    assert _rows(polys, _points(lon, lat)) == scalar_pip_rows(polys, lon, lat)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crowded_join_matches_scalar_pnpoly(data):
    cx, cy = data.draw(centre)
    ring_list = data.draw(st.lists(rings(at=st.just((cx, cy))),
                                   min_size=SPLIT_AT + 1, max_size=SPLIT_AT + 5))
    polys = [(f"p{k}", ring) for k, ring in enumerate(ring_list)]
    sub_coord = st.integers(-4 * SUB, 4 * SUB).map(lambda k: k / SUB)
    offsets = data.draw(st.lists(st.tuples(sub_coord, sub_coord), max_size=60))
    pts = [v for ring in ring_list for v in ring]
    pts += [(cx + dx, cy + dy) for dx, dy in offsets]
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    pt, poly = PolygonSet(polys).join(lon, lat)
    assert list(zip(pt.tolist(), poly.tolist())) == _brute_force_pairs(polys, lon, lat)


def test_split_cell_point_gets_only_its_sub_cell_polygons():
    # the smallest crowd that splits a cell: one tiny square per diagonal
    # sub-cell of the 0..1 x 0..1 cell, and one square over the whole cell
    u = 1.0 / SUB
    polys = [(f"d{k}", [(k * u, k * u), ((k + 0.5) * u, k * u),
                        ((k + 0.5) * u, (k + 0.5) * u), (k * u, (k + 0.5) * u)])
             for k in range(SPLIT_AT)]
    polys.append(("cell", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    ps = PolygonSet(polys)
    px = (np.arange(SPLIT_AT) + 0.25) * u
    pt, poly = ps.candidates(px, px)
    assert list(zip(pt.tolist(), poly.tolist())) == [
        (i, j) for i in range(SPLIT_AT) for j in (i, SPLIT_AT)]
    # off the diagonal only the whole-cell square is listed
    pt, poly = ps.candidates(px, px[::-1])
    assert poly.tolist() == [SPLIT_AT] * SPLIT_AT


def test_polygon_set_is_csr_packed():
    ps = PolygonSet([SQUARE, ("tri", [(1.0, 1.0), (3.0, 1.0), (2.0, 2.0)])])
    assert ps.offsets.dtype == np.int32
    assert ps.offsets.tolist() == [0, 4, 7]
    np.testing.assert_array_equal(ps.jx, [0.0, 0.0, 10.0, 10.0, 2.0, 1.0, 3.0])
    assert ps.bbox[:, 1].tolist() == [1.0, 1.0, 3.0, 2.0]
