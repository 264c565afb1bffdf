"""Connected components over an int64 ``src``/``dst`` edge list and the
label attach.  ``raster_polygonize`` and the cluster queries
(``spatial_clusters``, ``cluster_convex_hull``, ``cluster_diameter``)
label their regions and clusters with it.

One kernel, :func:`min_labels`: numpy hook-and-shortcut (Shiloach-
Vishkin style).  Every round hooks each tree root onto the smallest
root across its edges, then pointer-jumps every node to its root.
Pointers only ever decrease, so the forest stays acyclic, and every
root that still shares an edge with another root merges in the round,
so the root count at least halves: O(log n) rounds, exact for any
graph diameter.  Each round is a few whole-array gathers and one
``np.minimum.at`` scatter per edge end.

Scale shape: the cluster queries hand it per-block edges inside the
pair-join kernel (stages.pairjoin), and once more on the driver over
the blocks' min-pid stars, which are linear in points, never in pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def min_labels(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """-> (nodes, labels): every node that appears in an edge, sorted,
    and the smallest node id of its component."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    u, v = inv[: src.size], inv[src.size:]
    # nodes are sorted, so index order is id order and a root (the
    # smallest index its pointers reach) is its component's min id
    lab = np.arange(nodes.size, dtype=np.int64)
    while True:
        lu, lv = lab[u], lab[v]
        split = lu != lv
        if not split.any():
            break
        lu, lv = lu[split], lv[split]
        low = np.minimum(lu, lv)
        np.minimum.at(lab, lu, low)
        np.minimum.at(lab, lv, low)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
    return nodes, nodes[lab]


def cc_min_label(edges) -> pd.DataFrame:
    """Connected components of an edge table with int64 columns
    ``src``/``dst`` (a pandas DataFrame, a pyarrow Table or a dict of
    arrays).  Returns a pandas DataFrame (node, label) where label is the
    smallest node id of the node's component."""
    nodes, labels = min_labels(edges["src"], edges["dst"])
    return pd.DataFrame({"node": nodes, "label": labels})


def attach_labels(ids: np.ndarray, labels) -> np.ndarray:
    """Map node ids -> component labels (vectorized searchsorted over
    the sorted label table); ids without a label keep their own id
    (singleton components)."""
    ids = np.asarray(ids, dtype=np.int64)
    nodes = labels["node"].to_numpy().astype(np.int64)
    labs = labels["label"].to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="mergesort")
    nodes, labs = nodes[order], labs[order]
    out = ids.copy()
    if nodes.size:
        pos = np.searchsorted(nodes, ids)
        pos_c = np.minimum(pos, nodes.size - 1)
        hit = nodes[pos_c] == ids
        out[hit] = labs[pos_c[hit]]
    return out


def attach_clusters(points, edges):
    """Label every row of ``points`` (a Dataset with a ``pid`` column)
    with the smallest pid of its component in ``edges`` (a Dataset of
    int64 ``src``/``dst``).  The edges are collected once on the driver,
    so they must be linear in points (the pair join's min-pid stars
    are); the (node, label) table then rides to every task.  Returns a
    Dataset (pid, cluster); pids in no edge keep their own id."""
    # a zero-row Dataset converts to a frame without columns
    labels = cc_min_label(edges.to_pandas().reindex(columns=["src", "dst"]))

    def attach(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["pid"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"pid": pa.array(ids, pa.int64()),
                         "cluster": pa.array(attach_labels(ids, labels),
                                             pa.int64())})

    return points.select_columns(["pid"]).map_batches(
        attach, batch_format="pyarrow", batch_size=None)
