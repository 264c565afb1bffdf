"""Resumability: per-partition lineage manifest + atomic partitioned
writes + skip-completed semantics (the north rule's checkpoint/resume),
for plain shards, the S2 shard layout and the flagship job."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from proj_ray.state import LineageManifest, config_hash, run_resumable_shards


def _make_shard_fn():
    # defined as a closure so cloudpickle ships it by value (a plain
    # test-module function would be pickled by reference and fail to
    # import inside Ray workers)
    def _shard_fn(spec):
        lo, hi = spec
        pid = np.arange(lo, hi, dtype=np.int64)
        return pa.table({"pid": pa.array(pid), "val": pa.array(pid * 2.0)})

    return _shard_fn


def test_resumable_shards_skip_and_match(ray_session, tmp_path):
    _shard_fn = _make_shard_fn()
    out = str(tmp_path / "out")
    shards = [(i, (i * 100, (i + 1) * 100)) for i in range(8)]
    cfg = {"pipeline": "test", "v": 1}

    # first run: only half the shards (simulated interruption)
    ran, skipped, m = run_resumable_shards(shards[:4], _shard_fn, out, cfg)
    assert ran == 4 and skipped == 0
    # resume with the FULL plan: completed shards skipped
    ran2, skipped2, m2 = run_resumable_shards(shards, _shard_fn, out, cfg)
    assert ran2 == 4 and skipped2 == 4
    assert m2["partitions"] == 8 and m2["rows"] == 800

    # output equals a from-scratch run
    files = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    assert len(files) == 8
    got = pa.concat_tables([pq.read_table(os.path.join(out, f)) for f in files])
    assert sorted(got["pid"].to_pylist()) == list(range(0, 800))

    # config change invalidates completed parts
    ran3, skipped3, _ = run_resumable_shards(shards[:2], _shard_fn, out,
                                             {"pipeline": "test", "v": 2})
    assert ran3 == 2 and skipped3 == 0

    # re-running same shard is idempotent (atomic replace, manifest ok)
    ran4, skipped4, _ = run_resumable_shards(shards[:2], _shard_fn, out,
                                             {"pipeline": "test", "v": 2})
    assert ran4 == 0 and skipped4 == 2


def test_resumable_shards_kill_and_resume(ray_session, tmp_path):
    """A run that dies on one shard of eight raises; a second run with the
    same plan finishes the rest, and every part file is byte-identical to
    an uninterrupted run's."""
    import hashlib
    import time

    marker = str(tmp_path / "fail-once")
    open(marker, "w").close()
    shard_fn = _make_shard_fn()

    def flaky(spec):
        # armed by the marker file: the first call on shard 5 removes it
        # and dies before anything is written
        if spec[0] == 500 and os.path.exists(marker):
            os.remove(marker)
            time.sleep(0.5)  # let the other shards finish first
            raise RuntimeError("injected shard failure")
        return shard_fn(spec)

    shards = [(i, (i * 100, (i + 1) * 100)) for i in range(8)]
    cfg = {"pipeline": "kill", "v": 1}
    out = str(tmp_path / "resumed")
    with pytest.raises(RuntimeError, match="injected shard failure"):
        run_resumable_shards(shards, flaky, out, cfg)
    assert not os.path.exists(marker)
    assert not os.path.exists(os.path.join(out, "part-5.parquet"))
    done = LineageManifest(out).completed(config_hash(cfg))
    assert "5" not in done

    ran, skipped, m = run_resumable_shards(shards, flaky, out, cfg)
    assert skipped >= len(done) and ran == 8 - skipped
    assert m["partitions"] == 8 and m["rows"] == 800

    ref = str(tmp_path / "oneshot")
    assert run_resumable_shards(shards, shard_fn, ref, cfg)[:2] == (8, 0)

    def digests(d):
        return {f: hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
                for f in os.listdir(d)
                if f.startswith("part-") and f.endswith(".parquet")}

    got = digests(out)
    assert len(got) == 8
    assert got == digests(ref)


def test_manifest_tolerates_torn_tail(tmp_path):
    out = str(tmp_path / "m")
    os.makedirs(out)
    man = LineageManifest(out)
    man.record({"partition_id": "a", "config_hash": "h", "row_count": 5})
    with open(man.path, "a") as f:
        f.write('{"partition_id": "b", "config_ha')  # crash mid-write
    loaded = man.load()
    assert "a" in loaded and "b" not in loaded


def test_manifest_completion_rule_and_nonfinite_count(tmp_path):
    """A unit is complete under its own config hash while every file its
    record lists exists (a unit that wrote nothing lists none); its
    error_count is the NaN/inf/null lanes of every float column."""
    from proj_ray.state import write_unit

    out = str(tmp_path / "m")
    t = pa.table({"x": pa.array([1.0, np.nan, np.inf, None], pa.float64()),
                  "y": pa.array([-np.inf, 2.0, 3.0, 4.0], pa.float32()),
                  "k": pa.array([1, 2, None, 4], pa.int64())})
    rec = write_unit(out, "a", "frag-a", "h1", {"d=1/part-a.parquet": t,
                                                "d=2/part-a.parquet": t.slice(0, 1)})
    assert rec["files"] == ["d=1/part-a.parquet", "d=2/part-a.parquet"]
    # x: nan, inf, null and y: -inf in t; y: -inf in its one-row slice
    assert (rec["row_count"], rec["error_count"]) == (5, 4 + 1)
    write_unit(out, "b", "frag-b", "h1", {})
    man = LineageManifest(out)
    assert set(man.completed("h1")) == {"a", "b"} and not man.completed("h2")
    assert man.metrics("h1")["rows"] == 5 and man.metrics("h1")["errors"] == 5

    os.remove(os.path.join(out, "d=2", "part-a.parquet"))
    assert set(man.completed("h1")) == {"b"}


def test_s2_shard_write_resumable(tmp_path, ray_session):
    """Multi-run resumable Hilbert shard build: an interrupted run
    (first 3 of 8 fragments) resumes by running ONLY the remaining
    fragments; a pruned read of the final layout returns exactly the
    rows whose level-3 shard the box's covering lists, re-running is a
    no-op, and a foreign-config manifest is refused."""
    import pandas as pd
    import pyarrow as pa
    import pytest

    from proj_ray.kernels.s2cell import (bbox_covering, cell_id_from_lonlat,
                                         id_at_level)
    from proj_ray.stages.s2_stage import (s2_shard_boxes_read,
                                          s2_shard_write_resumable)

    rng = np.random.default_rng(77)
    n = 8000
    df = pd.DataFrame({"pid": np.arange(n, dtype=np.int64),
                       "lon": rng.uniform(-180, 180, n),
                       "lat": rng.uniform(-90, 90, n)})
    frag_rows = np.array_split(np.arange(n), 7)
    fragments = [(i, (int(r[0]), int(r[-1]) + 1)) for i, r in enumerate(frag_rows)]
    fragments.append((7, (n, n)))  # zero-row fragment: must complete too

    def read_fragment(spec):
        lo, hi = spec
        return pa.Table.from_pandas(df.iloc[lo:hi], preserve_index=False)

    out = str(tmp_path / "resumable")
    # "crash" after 3 fragments
    ran, skipped = s2_shard_write_resumable(fragments[:3], read_fragment,
                                            out, shard_level=3)
    assert (ran, skipped) == (3, 0)
    # resume: only the remaining 5 run
    ran, skipped = s2_shard_write_resumable(fragments, read_fragment,
                                            out, shard_level=3)
    assert (ran, skipped) == (5, 3)
    # idempotent re-run: everything skipped
    ran, skipped = s2_shard_write_resumable(fragments, read_fragment,
                                            out, shard_level=3)
    assert (ran, skipped) == (0, 8)

    box = (-40.0, 60.0, -20.0, 50.0)
    shard = id_at_level(cell_id_from_lonlat(df["lon"].to_numpy(),
                                            df["lat"].to_numpy()), 3)
    covered = np.isin(shard, bbox_covering(*box, 3))
    got = s2_shard_boxes_read(out, [box], 3)
    g = got.to_pandas().sort_values("pid").reset_index(drop=True)
    w = df[covered].sort_values("pid").reset_index(drop=True)
    assert 0 < len(w) < n
    assert g[["pid", "lon", "lat"]].equals(w)

    # a different shard level over the same dir must be refused
    with pytest.raises(RuntimeError, match="different shard config"):
        s2_shard_write_resumable(fragments, read_fragment, out, shard_level=4)


def _flagship_job():
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "jobs", "flagship_job.py")
    spec = importlib.util.spec_from_file_location("flagship_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def test_flagship_job_kill_and_resume(ray_session, sf_dir, tmp_path, capsys):
    """The flagship job over 8 lineitem part files: a run that dies on
    one unit raises; the job's main() over the same --sf/--out then runs
    only that unit, and its points and agg.parquet equal an uninterrupted
    run's."""
    import hashlib
    import time

    job = _flagship_job()
    sf = str(tmp_path / "sf")
    keys = pq.read_table(os.path.join(sf_dir, "lineitem.parquet"))
    os.makedirs(os.path.join(sf, "lineitem.parquet"))
    for k, rows in enumerate(np.array_split(np.arange(keys.num_rows), 8)):
        pq.write_table(keys.slice(int(rows[0]), rows.size),
                       os.path.join(sf, "lineitem.parquet", f"part-{k:03d}.parquet"))
    units = job.plan(sf)
    assert [u for u, _ in units] == [f"part-{k:03d}" for k in range(8)]

    marker = str(tmp_path / "fail-once")
    open(marker, "w").close()
    points = job.unit_points()
    doomed = units[5][1]

    def flaky(path):
        # armed by the marker file: the first call on unit 5 removes it
        # and dies before anything is written
        if path == doomed and os.path.exists(marker):
            os.remove(marker)
            raise RuntimeError("injected unit failure")
        return points(path)

    out = str(tmp_path / "resumed")
    points_dir = os.path.join(out, "points")
    with pytest.raises(RuntimeError, match="injected unit failure"):
        run_resumable_shards(units, flaky, points_dir, job.config(sf))
    assert not os.path.exists(marker)
    # the driver gave up on the failure; the 7 other units were already
    # submitted and finish in the background
    man = LineageManifest(points_dir)
    deadline = time.monotonic() + 60
    while (len(man.completed(config_hash(job.config(sf)))) < 7
           and time.monotonic() < deadline):
        time.sleep(0.1)
    assert set(man.completed(config_hash(job.config(sf)))) == {
        u for u, _ in units} - {units[5][0]}

    capsys.readouterr()
    assert job.main(["--sf", sf, "--out", out]) == 0
    resumed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (resumed["units_run"], resumed["units_skipped"]) == (1, 7)
    assert resumed["points"]["partitions"] == 8

    ref = str(tmp_path / "oneshot")
    assert job.main(["--sf", sf, "--out", ref]) == 0
    oneshot = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (oneshot["units_run"], oneshot["units_skipped"]) == (8, 0)
    assert resumed["points"]["rows"] == oneshot["points"]["rows"] > 0

    def rows(d):
        t = pq.read_table(os.path.join(d, "points"))
        assert t.schema == pa.schema([("pid", pa.int64()), ("cell_id", pa.int64()),
                                      ("polygon_id", pa.string())])
        return sorted(zip(*(t[c].to_pylist() for c in t.column_names)))

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    assert rows(out) == rows(ref)
    assert digest(os.path.join(out, "agg.parquet")) == digest(
        os.path.join(ref, "agg.parquet"))
