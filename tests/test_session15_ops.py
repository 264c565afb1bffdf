"""Temperature mixture sampling and the per-node triangle count, each
pinned against an independent scalar/pure-pandas reference."""

import math

import numpy as np
import pandas as pd
import pytest


# ---------------------------------------------------------------------------
# Temperature mixture sampling: quota math + smallest-priority membership
# ---------------------------------------------------------------------------

def test_temperature_mixture_scalar_parity(ray_session, sf_dir):
    from proj_ray.pipelines.queries import (_SAMPLE_MOD, _TMS_SCALE,
                                            QUERIES)
    from proj_ray.sources import read_table

    docs = (read_table(sf_dir, "documents", columns=["doc_id", "lang"])
            .to_pandas())
    docs["prio"] = (docs["doc_id"].to_numpy(np.int64)
                    % _SAMPLE_MOD) * 48271 % _SAMPLE_MOD
    want = []
    for lang, g in docs.groupby("lang"):
        k = int(math.floor(_TMS_SCALE * math.sqrt(float(len(g)))))
        sel = g.sort_values(["prio", "doc_id"]).head(k)
        want.append(sel[["doc_id", "lang"]])
    ref = (pd.concat(want).sort_values(["lang", "doc_id"])
           .reset_index(drop=True))
    eng = QUERIES["temperature_mixture_sample"]["fn"](sf_dir)
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ref, check_dtype=False)
    # the quota binds for at least one language (a real sample, not id)
    assert len(eng) < len(docs)


# ---------------------------------------------------------------------------
# Triangle counting: brute-force adjacency-set reference + empty lane
# ---------------------------------------------------------------------------

def test_triangle_count_bruteforce_parity(ray_session):
    from proj_ray.pipelines.queries import (_PAIR_RADIUS_M, _points_ds,
                                            QUERIES)
    from proj_ray.stages.pairjoin import radius_pair_join_stage

    sf = "/root/testdata/sf0.01"
    eng = QUERIES["triangle_count_per_node"]["fn"](sf)
    edges = (radius_pair_join_stage(_points_ds(sf), _PAIR_RADIUS_M)
             .to_pandas())
    adj = {}
    for a, b in zip(edges["pid_a"].to_numpy(np.int64),
                    edges["pid_b"].to_numpy(np.int64)):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    counts = {}
    for a, b in zip(edges["pid_a"].to_numpy(np.int64),
                    edges["pid_b"].to_numpy(np.int64)):
        for c in adj[int(a)] & adj[int(b)]:
            # each triangle hits this loop once per edge (3x); count
            # the third vertex each time -> per-node count is exact
            counts[c] = counts.get(c, 0) + 1
    ref = (pd.DataFrame({"pid": list(counts), "n_tri": list(counts.values())})
           .sort_values("pid").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ref, check_dtype=False)


def test_triangle_count_empty_graph_lane(ray_session, sf_dir):
    from proj_ray.pipelines.queries import QUERIES

    # sf0.001's 30 km radius graph is triangle-free: the query must
    # return the empty frame through the short-circuit, not crash in
    # the hash join
    out = QUERIES["triangle_count_per_node"]["fn"](sf_dir)
    assert list(out.columns) == ["pid", "n_tri"] and len(out) == 0
