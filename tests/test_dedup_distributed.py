"""Distributed connected components and the label-attach paths."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from proj_ray.stages.cc import (
    CCNotConverged,
    attach_labels,
    attach_labels_join,
    cc_min_label,
    cc_min_label_distributed,
)


# ---------------------------------------------------------------------------
# Distributed connected components
# ---------------------------------------------------------------------------


def _edges_ds(src, dst):
    import ray.data as rd

    return rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                   "dst": pa.array(dst, pa.int64())}))


def test_cc_distributed_chain_and_cycle(ray_session):
    """The Ray-join propagation rounds converge on a chain (multi-round
    diameter) + disjoint cycle, matching the driver path."""
    src = [1, 2, 3, 4, 11, 5, 6, 7]
    dst = [0, 1, 2, 3, 10, 6, 7, 5]
    labels = cc_min_label_distributed(_edges_ds(src, dst)).to_pandas()
    lab = labels.set_index("node")["label"]
    assert (lab.loc[[0, 1, 2, 3, 4]] == 0).all()
    assert (lab.loc[[10, 11]] == 10).all()
    assert (lab.loc[[5, 6, 7]] == 5).all()
    # byte-identical to the driver rounds
    drv = cc_min_label(pd.DataFrame({"src": src, "dst": dst}))
    merged = labels.sort_values("node").reset_index(drop=True)
    assert merged.equals(drv.sort_values("node").reset_index(drop=True))


def test_cc_dispatch_threshold(ray_session):
    """cc_min_label routes Dataset edge lists above the threshold
    through the distributed rounds (same labels either way)."""
    src = list(range(1, 8))
    dst = [i - 1 for i in range(1, 8)]  # one chain, diameter 7
    ds = _edges_ds(src, dst)
    via_dist = cc_min_label(ds, max_rounds=20, driver_threshold=0)
    via_driver = cc_min_label(ds, max_rounds=20, driver_threshold=10**9)
    a = via_dist.sort_values("node").reset_index(drop=True)
    b = via_driver.sort_values("node").reset_index(drop=True)
    assert a.equals(b)
    assert (a["label"] == 0).all()


def test_cc_nonconvergence_raises_and_warns(ray_session):
    chain = pd.DataFrame({"src": list(range(1, 30)),
                          "dst": list(range(0, 29))})
    # the driver path is union-find: exact for ANY diameter regardless
    # of max_rounds (the rounds budget only governs distributed rounds)
    out = cc_min_label(chain, max_rounds=2)
    assert len(out) == 30 and (out["label"] == 0).all()
    with pytest.raises(CCNotConverged):
        cc_min_label_distributed(_edges_ds(chain["src"].tolist(),
                                           chain["dst"].tolist()),
                                 max_rounds=2)


def test_attach_labels_vectorized():
    labels = pd.DataFrame({"node": [7, 3, 9], "label": [1, 1, 2]})
    ids = np.array([3, 4, 7, 8, 9, 100], dtype=np.int64)
    out = attach_labels(ids, labels)
    assert out.tolist() == [1, 4, 1, 8, 2, 100]
    # empty label table: everything a singleton
    empty = pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "label": pd.Series(dtype="int64")})
    assert attach_labels(ids, empty).tolist() == ids.tolist()


def test_attach_labels_join(ray_session):
    """Distributed attach (corpus left-joins the label table) matches
    the broadcast searchsorted attach."""
    import ray.data as rd

    corpus = rd.from_arrow(pa.table({"doc_id": pa.array([3, 4, 7, 8, 9, 100],
                                                        pa.int64())}))
    labels = rd.from_arrow(pa.table({"node": pa.array([7, 3, 9], pa.int64()),
                                     "label": pa.array([1, 1, 2], pa.int64())}))
    out = (attach_labels_join(corpus, labels).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["cluster"].tolist() == [1, 4, 1, 8, 2, 100]
    assert out["cluster"].dtype == np.int64
