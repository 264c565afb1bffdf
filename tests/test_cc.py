"""Connected components (stages/cc.py): the hook-and-shortcut kernel
against hand-built graphs and a union-find reference, and the label
attach."""

import numpy as np
import pandas as pd
import pyarrow as pa

from proj_ray.stages.cc import (attach_clusters, attach_labels, cc_min_label,
                                min_labels)


def _union_find_labels(src, dst):
    """Reference: (node, label) by a pure-Python union-find, label =
    the smallest node id of the component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src, dst):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return pd.DataFrame({"node": np.array(nodes, np.int64),
                         "label": np.array([find(x) for x in nodes],
                                           np.int64)})


def test_cc_min_label_propagation():
    """Connected components: chains need multiple propagation rounds;
    empty edge lists and disjoint components are handled."""
    # chain 0-1-2-3-4 (diameter 4) + separate pair (10, 11)
    e = pd.DataFrame({"src": [1, 2, 3, 4, 11], "dst": [0, 1, 2, 3, 10]})
    lab = cc_min_label(e).set_index("node")["label"]
    assert (lab.loc[[0, 1, 2, 3, 4]] == 0).all()
    assert (lab.loc[[10, 11]] == 10).all()
    # empty edges
    empty = cc_min_label(pd.DataFrame({"src": [], "dst": []}))
    assert len(empty) == 0
    # cycle
    e2 = pd.DataFrame({"src": [5, 6, 7], "dst": [6, 7, 5]})
    lab2 = cc_min_label(e2).set_index("node")["label"]
    assert (lab2 == 5).all()


def test_cc_chain_and_cycle():
    """A chain (multi-round diameter), a disjoint pair and a disjoint
    cycle, from a pyarrow Table, equal the union-find reference."""
    src = [1, 2, 3, 4, 11, 5, 6, 7]
    dst = [0, 1, 2, 3, 10, 6, 7, 5]
    labels = cc_min_label(pa.table({"src": pa.array(src, pa.int64()),
                                    "dst": pa.array(dst, pa.int64())}))
    lab = labels.set_index("node")["label"]
    assert (lab.loc[[0, 1, 2, 3, 4]] == 0).all()
    assert (lab.loc[[10, 11]] == 10).all()
    assert (lab.loc[[5, 6, 7]] == 5).all()
    pd.testing.assert_frame_equal(labels, _union_find_labels(src, dst))


def test_cc_long_chain_any_diameter():
    """A 5,000-node path with shuffled edge order and ids: one
    component, whatever the diameter."""
    rng = np.random.default_rng(3)
    ids = rng.permutation(5000).astype(np.int64) * 7 + 11
    order = rng.permutation(4999)
    nodes, labels = min_labels(ids[:-1][order], ids[1:][order])
    assert nodes.tolist() == sorted(ids.tolist())
    assert (labels == ids.min()).all()


def test_cc_random_graph_matches_union_find():
    """Sparse random graphs (many components, self-loops, duplicate and
    reversed edges, sparse int64 ids) equal the union-find reference."""
    rng = np.random.default_rng(17)
    for n, m in ((50, 30), (2000, 1500), (20000, 19000)):
        ids = np.unique(rng.integers(-2**40, 2**40, 3 * n))[:n]
        src = ids[rng.integers(0, ids.size, m)]
        dst = ids[rng.integers(0, ids.size, m)]
        src = np.concatenate([src, dst[:5], src[:3]])
        dst = np.concatenate([dst, src[:5], src[:3]])
        got = cc_min_label({"src": src, "dst": dst})
        pd.testing.assert_frame_equal(got, _union_find_labels(src, dst))


def test_attach_labels_vectorized():
    labels = pd.DataFrame({"node": [7, 3, 9], "label": [1, 1, 2]})
    ids = np.array([3, 4, 7, 8, 9, 100], dtype=np.int64)
    out = attach_labels(ids, labels)
    assert out.tolist() == [1, 4, 1, 8, 2, 100]
    # empty label table: everything a singleton
    empty = pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "label": pd.Series(dtype="int64")})
    assert attach_labels(ids, empty).tolist() == ids.tolist()


def test_attach_clusters(ray_session):
    """Every row gets its component's smallest pid; pids in no edge
    keep their own."""
    import ray.data as rd

    ids = np.arange(50, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"pid": pa.array(ids, pa.int64())}))
    # two components {0,1,2,7} and {10,11}, rest singletons
    edges = rd.from_arrow(pa.table({
        "src": pa.array([1, 2, 7, 11], pa.int64()),
        "dst": pa.array([0, 1, 2, 10], pa.int64()),
    }))
    out = attach_clusters(ds, edges).to_pandas()
    assert sorted(out["pid"]) == ids.tolist()
    assert out["cluster"].dtype == np.int64
    got = dict(zip(out["pid"], out["cluster"]))
    assert got[0] == got[1] == got[2] == got[7] == 0
    assert got[10] == got[11] == 10
    assert got[33] == 33
