"""Raster -> vector: polygonize a thresholded cell raster into connected
regions (the GDAL ``polygonize`` shape, reference-adjacent to the grid
raster model of src/nad_init.c — a regular lat/lon raster of per-cell
values — but run in the opposite direction: cells -> vector regions).

Pipeline shape (the 100-TB story):

1. **Rasterize** — per-batch ``np.bincount`` over the (row, col) key
   inside ``map_batches``; each block emits at most ``nrow x ncol``
   partial rows, so the partial stream is raster-bounded, never
   corpus-proportional.  The final combine is
   :func:`proj_ray.stages.agg.combine_partials` (driver concat up to
   ``DRIVER_ROWS`` partial rows, distributed groupby above).
2. **Threshold** — ``active_cells`` keeps the top ``frac`` of cells by
   (count DESC, row, col): a rank rule rather than a quantile so the
   selection is deterministic and identical in the DuckDB oracle
   (``row_number() OVER (ORDER BY n DESC, r, c)``), with no
   interpolation-semantics risk.  Operates on the RASTER (bounded by
   resolution, e.g. 72x32 here, zoom-12 -> 16M cells), not the corpus.
3. **Vectorize** — 4-adjacency edges via two vectorized merges (right
   and down neighbors; no Python loop over cells), then connected
   components through :func:`proj_ray.stages.cc.cc_min_label` (numpy
   hook-and-shortcut, exact for any region shape).  This module's
   :func:`polygonize` builds the edges driver-side — the raster (not
   the corpus) bounds that table, which stays driver-tractable up to
   ~zoom-12 (16M cells).  Isolated active cells are their own
   components.  Output: one row per region with cell count, bounding
   box and the summed cell values.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .cc import cc_min_label

# component/node ids are row * ID_MUL + col; ID_MUL must exceed ncol so
# the packing is injective (4096 covers rasters up to 4096 columns —
# wider rasters pass a larger id_mul)
ID_MUL = 4096


def active_cells(cells: pd.DataFrame, frac: float) -> pd.DataFrame:
    """Top-``frac`` cells by (n DESC, r, c) — the deterministic
    threshold mask.  ``cells`` has int64 columns r, c, n."""
    order = np.lexsort((cells["c"].to_numpy(), cells["r"].to_numpy(),
                        -cells["n"].to_numpy()))
    k = int(np.floor(frac * len(cells)))
    act = cells.iloc[order[:k]].reset_index(drop=True).copy()
    act["id"] = act["r"].to_numpy(np.int64) * ID_MUL + act["c"].to_numpy(np.int64)
    return act


def adjacency_edges(active: pd.DataFrame) -> pd.DataFrame:
    """4-adjacency (src, dst) int64 edges between active cells, built by
    two hash merges (right neighbor, down neighbor) — vectorized,
    shuffle-friendly if lifted to a Dataset join for huge rasters."""
    base = active[["r", "c", "id"]]
    right = base.assign(c=base["c"] + 1).rename(columns={"id": "src"})
    down = base.assign(r=base["r"] + 1).rename(columns={"id": "src"})
    hits = pd.concat([
        right.merge(base, on=["r", "c"], how="inner"),
        down.merge(base, on=["r", "c"], how="inner"),
    ], ignore_index=True)
    return pd.DataFrame({"src": hits["src"].to_numpy(np.int64),
                         "dst": hits["id"].to_numpy(np.int64)})


def polygonize(cells: pd.DataFrame, frac: float = 0.3) -> pd.DataFrame:
    """Thresholded raster -> vector regions.

    ``cells``: int64 (r, c, n) per-cell counts (raster-bounded — the
    output of the rasterize partial combine).  Returns one row per
    4-connected region of the top-``frac`` mask: component (min packed
    cell id), n_cells, total_points, bbox (row/col min/max), sorted by
    component."""
    act = active_cells(cells, frac)
    if act.empty:
        return pd.DataFrame({k: pd.Series(dtype="int64") for k in (
            "component", "n_cells", "total_points",
            "row_min", "row_max", "col_min", "col_max")})
    edges = adjacency_edges(act)
    labels = cc_min_label(edges)
    lab = act.merge(labels, left_on="id", right_on="node", how="left")
    # isolated cells (no adjacent active neighbor) label themselves
    comp = lab["label"].fillna(lab["id"]).astype(np.int64)
    out = act.assign(component=comp).groupby("component", as_index=False).agg(
        n_cells=("id", "size"), total_points=("n", "sum"),
        row_min=("r", "min"), row_max=("r", "max"),
        col_min=("c", "min"), col_max=("c", "max"))
    out = out.sort_values("component").reset_index(drop=True)
    return out.astype({k: "int64" for k in out.columns})
