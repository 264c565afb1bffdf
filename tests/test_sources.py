"""The part-file reader behind ``sources.read_table``: one block per
contiguous group of sorted files, only the requested columns, row counts
from the footers, and no ``ray`` import for modules that do not read."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from proj_ray.sources import read_table

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def parts_dir(tmp_path_factory):
    """``t.parquet/``: 32 part files of 37-68 rows, written out of name
    order; column ``a`` runs 0.. in sorted-file order."""
    root = tmp_path_factory.mktemp("parts")
    d = root / "t.parquet"
    d.mkdir()
    sizes = 37 + np.arange(32) % 32
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for k in np.random.default_rng(3).permutation(32):
        a = np.arange(starts[k], starts[k] + sizes[k], dtype=np.int64)
        pq.write_table(pa.table({"a": a, "b": (a * 7) % 11,
                                 "s": pa.array([f"r{v}" for v in a])}),
                       str(d / f"part-{k:03d}.parquet"))
    return str(root)


def _blocks(ds):
    """The Dataset's blocks as pyarrow tables, ordered by first ``a``."""
    blocks = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return sorted(blocks, key=lambda t: t["a"][0].as_py())


def test_file_groups_are_blocks(ray_session, parts_dir):
    files = sorted(os.listdir(os.path.join(parts_dir, "t.parquet")))
    ds = read_table(parts_dir, "t", columns=["a", "b"], override_num_blocks=4)
    blocks = _blocks(ds.materialize())
    assert len(blocks) == 4
    for g, block in enumerate(blocks):
        assert block.column_names == ["a", "b"]
        want = pa.concat_tables(
            pq.read_table(os.path.join(parts_dir, "t.parquet", f),
                          columns=["a", "b"])
            for f in files[8 * g:8 * g + 8])
        assert block.equals(want)


def test_count_is_the_footer_rows(ray_session, parts_dir):
    d = os.path.join(parts_dir, "t.parquet")
    rows = sum(pq.read_metadata(os.path.join(d, f)).num_rows
               for f in os.listdir(d))
    assert read_table(parts_dir, "t", columns=["a"]).count() == rows


def test_single_file_keeps_ray_block_count(ray_session):
    """A size estimate from the footer keeps Ray's default split of one
    file (2 x CPUs blocks for a small table), not its 200-block floor."""
    import ray.data as rd

    cols = ["l_orderkey", "l_linenumber"]
    path = os.path.join(SF, "lineitem.parquet")
    got = read_table(SF, "lineitem", columns=cols).materialize()
    want = rd.read_parquet(path, columns=cols).materialize()
    assert got.num_blocks() == want.num_blocks() < 200
    assert got.count() == pq.read_metadata(path).num_rows


def test_columns_none_reads_every_column(ray_session, parts_dir):
    ds = read_table(parts_dir, "t", override_num_blocks=2)
    assert ds.schema().names == ["a", "b", "s"]
    assert [b.column_names for b in _blocks(ds)] == [["a", "b", "s"]] * 2


def test_missing_parts_name_the_path(tmp_path):
    d = tmp_path / "empty.parquet"
    d.mkdir()
    (d / "_SUCCESS").write_text("")
    with pytest.raises(FileNotFoundError, match=str(d)):
        read_table(str(tmp_path), "empty", columns=["a"])
    with pytest.raises(FileNotFoundError, match="absent"):
        read_table(str(tmp_path), "absent")


def test_grids_import_does_not_load_ray():
    """``kernel_bulk`` imports ``proj_ray.sources.grids`` in process; the
    1.2 s ``ray.data`` import must stay inside ``read_table``."""
    code = ("import sys, proj_ray.sources.grids; "
            "sys.exit('ray' in sys.modules)")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
