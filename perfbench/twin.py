"""Independent DuckDB reference for point-in-polygon joins.

The even-odd test is the same comparison sequence as the engine's
pnpoly kernel, written in SQL (the shape of the ``pip_join`` oracle in
proj_ray.pipelines.queries), so a point is inside iff the engine says
so, bit for bit.  A closed-bbox prefilter first pairs points with the
polygons whose bounding box holds them; it drops only pairs with an
even crossing count, and its row count is the candidate count an
R-tree or bbox prefilter hands to the exact test.  The prefilter is an
equi-join on one-degree cells (each polygon listed under every cell its
bounding box touches) followed by the exact bbox comparison, so it
costs a hash join rather than a points x polygons range join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def polygon_tables(poly_defs):
    """[(polygon_id, ring)] -> (edges, boxes) frames; edge (xi, yi) ->
    (xj, yj) runs from vertex j = i - 1 to i, closing ring last -> first;
    boxes holds one row per (one-degree cell, polygon) of its bbox."""
    edges, boxes = [], []
    for pid, ring in poly_defs:
        v = np.asarray(ring, dtype=np.float64)
        prev = np.roll(v, 1, axis=0)
        edges.append(pd.DataFrame({"polygon_id": str(pid),
                                   "xi": v[:, 0], "yi": v[:, 1],
                                   "xj": prev[:, 0], "yj": prev[:, 1]}))
        x0, y0 = v.min(axis=0)
        x1, y1 = v.max(axis=0)
        for cx in range(int(np.floor(x0)), int(np.floor(x1)) + 1):
            for cy in range(int(np.floor(y0)), int(np.floor(y1)) + 1):
                boxes.append((cx, cy, str(pid), x0, y0, x1, y1))
    return (pd.concat(edges, ignore_index=True),
            pd.DataFrame(boxes, columns=["cx", "cy", "polygon_id",
                                         "x0", "y0", "x1", "y1"]))


def inside_pairs(con, points_view: str, poly_defs):
    """Creates view ``inside(pid, polygon_id)`` over ``points_view``
    (columns pid, lon, lat) and returns the bbox candidate count."""
    edges, boxes = polygon_tables(poly_defs)
    con.register("edges_df", edges)
    con.register("boxes_df", boxes)
    con.execute(f"""
        CREATE OR REPLACE TEMP TABLE cand AS
        SELECT p.pid, p.lon, p.lat, b.polygon_id
        FROM {points_view} p JOIN boxes_df b
          ON b.cx = CAST(floor(p.lon) AS BIGINT)
         AND b.cy = CAST(floor(p.lat) AS BIGINT)
        WHERE p.lon >= b.x0 AND p.lon <= b.x1
          AND p.lat >= b.y0 AND p.lat <= b.y1""")
    con.execute("""
        CREATE OR REPLACE TEMP VIEW inside AS
        SELECT c.pid, c.polygon_id
        FROM cand c JOIN edges_df e USING (polygon_id)
        WHERE ((e.yi > c.lat) != (e.yj > c.lat))
          AND c.lon < (e.xj - e.xi) * (c.lat - e.yi) / (e.yj - e.yi) + e.xi
        GROUP BY c.pid, c.polygon_id
        HAVING COUNT(*) % 2 = 1""")
    return con.execute("SELECT COUNT(*) FROM cand").fetchone()[0]
