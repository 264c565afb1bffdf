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

from proj_ray.kernels.pip import PolygonSet
from proj_ray.stages.pip_stage import PIPJoinActor
from tests.test_kernels import scalar_pip_rows

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
def rings(draw):
    cx, cy = draw(centre)
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


def test_polygon_set_is_csr_packed():
    ps = PolygonSet([SQUARE, ("tri", [(1.0, 1.0), (3.0, 1.0), (2.0, 2.0)])])
    assert ps.offsets.dtype == np.int32
    assert ps.offsets.tolist() == [0, 4, 7]
    np.testing.assert_array_equal(ps.jx, [0.0, 0.0, 10.0, 10.0, 2.0, 1.0, 3.0])
    assert ps.bbox[:, 1].tolist() == [1.0, 1.0, 3.0, 2.0]
