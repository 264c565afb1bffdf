"""Resumability: per-partition lineage manifest + atomic partitioned
writes + skip-completed semantics (the north rule's checkpoint/resume)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from proj_ray.state import (
    LineageManifest,
    config_hash,
    run_resumable_shards,
    write_partitioned,
)


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


def test_write_partitioned_stream(ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "wp")
    ds = rd.range(1000, override_num_blocks=4)
    ds = ds.map_batches(
        lambda t: pa.table({"pid": t["id"],
                            "x": pa.array(t["id"].to_numpy(zero_copy_only=False) * 1.0)}),
        batch_format="pyarrow", batch_size=None)
    m = write_partitioned(ds, out, {"cfg": 1}, error_cols=("x",))
    assert m["rows"] == 1000 and m["partitions"] >= 1 and m["errors"] == 0
    man = LineageManifest(out)
    recs = man.load()
    assert all(r["config_hash"] == config_hash({"cfg": 1}) for r in recs.values())


def test_manifest_tolerates_torn_tail(tmp_path):
    out = str(tmp_path / "m")
    os.makedirs(out)
    man = LineageManifest(out)
    man.record({"partition_id": "a", "config_hash": "h", "row_count": 5})
    with open(man.path, "a") as f:
        f.write('{"partition_id": "b", "config_ha')  # crash mid-write
    loaded = man.load()
    assert "a" in loaded and "b" not in loaded


def test_write_partitioned_refuses_second_run(ray_session, tmp_path):
    """Partition ids derive from Ray block content, which is not stable
    across runs — a second run into the same dir must be refused
    (resume belongs to run_resumable_shards)."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    out = str(tmp_path / "wp")
    ds = rd.from_arrow(pa.table({"x": [1.0, 2.0], "k": [1, 2]}))
    write_partitioned(ds, out, {"cfg": 9}, error_cols=("x",))
    ds2 = rd.from_arrow(pa.table({"x": [3.0], "k": [3]}))
    with pytest.raises(RuntimeError, match="run_resumable_shards"):
        write_partitioned(ds2, out, {"cfg": 9}, error_cols=("x",))
    # different config => fresh manifest namespace, allowed
    write_partitioned(ds2, out, {"cfg": 10}, error_cols=("x",))


def test_s2_shard_write_resumable(tmp_path, ray_session):
    """Multi-run resumable Hilbert shard build: an interrupted run
    (first 3 of 8 fragments) resumes by running ONLY the remaining
    fragments; the final layout equals the one-shot s2_shard_write
    (same rows through the same pruned reader), re-running is a
    no-op, and a foreign-config manifest is refused."""
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from proj_ray.stages.s2_stage import (s2_shard_bbox_read, s2_shard_write,
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

    ref = str(tmp_path / "oneshot")
    s2_shard_write(rd.from_pandas(df), ref, shard_level=3)
    box = (-40.0, 60.0, -20.0, 50.0)
    got, _ = s2_shard_bbox_read(out, *box, 3)
    want, _ = s2_shard_bbox_read(ref, *box, 3)
    g = got.to_pandas().sort_values("pid").reset_index(drop=True)
    w = want.to_pandas().sort_values("pid").reset_index(drop=True)
    assert g[["pid", "lon", "lat"]].equals(w[["pid", "lon", "lat"]])

    # a different shard level over the same dir must be refused
    with pytest.raises(RuntimeError, match="different shard config"):
        s2_shard_write_resumable(fragments, read_fragment, out, shard_level=4)
