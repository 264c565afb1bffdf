"""Douglas-Peucker trajectory simplification."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _sorted(df, by):
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    return df.sort_values(by).reset_index(drop=True)


# ---------------------------------------------------------------------------
# traj_simplify_dp: engine DP vs an independent scalar recomputation
# ---------------------------------------------------------------------------

def _scalar_dp(lon, lat, tol2):
    n = len(lon)
    keep = [False] * n
    keep[0] = keep[n - 1] = True

    def rec(i, j):
        if j - i < 2:
            return
        x1, y1, x2, y2 = lon[i], lat[i], lon[j], lat[j]
        dx, dy = x2 - x1, y2 - y1
        den = dx * dx + dy * dy
        best, best_d2 = -1, -1.0
        for p in range(i + 1, j):
            if den == 0.0:
                d2 = ((lon[p] - x1) ** 2 + (lat[p] - y1) ** 2)
            else:
                num = dx * (y1 - lat[p]) - (x1 - lon[p]) * dy
                d2 = (num * num) / den
            if d2 > best_d2:
                best, best_d2 = p, d2
        if best_d2 > tol2:
            keep[best] = True
            rec(i, best)
            rec(best, j)

    rec(0, n - 1)
    return [p for p in range(n) if keep[p]]


def test_traj_simplify_matches_scalar(ray_session):
    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import _DP_TOL_DEG, traj_simplify_dp

    got = _sorted(traj_simplify_dp(SF).to_pandas(), ["user_id"])

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"])
    eid = ev["event_id"].to_numpy().astype(np.int64)
    uid = ev["user_id"].to_numpy().astype(np.int64)
    tu = ev["ts"].cast("int64").to_numpy()
    tol2 = float(_DP_TOL_DEG) ** 2
    rows = []
    for u in np.unique(uid):
        m = uid == u
        pts = sorted(zip(tu[m].tolist(), eid[m].tolist()))
        ids = [e for _, e in pts]
        lon = [float((e * 104729) % 36000 - 18000) / 100.0 for e in ids]
        lat = [float((e * 7919) % 16000 - 8000) / 100.0 for e in ids]
        kept = _scalar_dp(lon, lat, tol2)
        rows.append((int(u), len(ids), len(kept), sum(kept),
                     sum(ids[p] for p in kept)))
    want = pd.DataFrame(rows, columns=["user_id", "n_points", "n_kept",
                                       "kept_idx_sum", "kept_eid_sum"])
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    # the tolerance actually simplifies (drops points) at this sf
    assert got["n_kept"].sum() < got["n_points"].sum()
