"""Sources: column-pruned parquet readers. Resumable partitioned writes
live in ``proj_ray.state``."""

from __future__ import annotations

import os


def read_table(sf_dir: str, name: str, columns=None, **kwargs):
    """Column-pruned parquet read of one testdata table. Always pass
    ``columns`` in pipelines — a read that loads all columns for a
    2-column transform is wrong at 100 TB.

    ``<sf_dir>/<name>.parquet`` is one file or a directory of part files.
    The sorted files are split into ``override_num_blocks`` (or Ray's
    default) contiguous groups, and each group is read by one task into
    ONE block: 32 part files at ``override_num_blocks=4`` give 4 blocks
    of 8 files each. Ray splits the blocks further only when there are
    fewer groups than it wants blocks, as for a single file. Row counts
    and sizes come from the footers, so building the Dataset runs no Ray
    task. Other ``kwargs`` go to ``ray.data.read_datasource``."""
    import ray.data as rd

    from .parts import PartFilesDatasource

    path = os.path.join(sf_dir, f"{name}.parquet")
    return rd.read_datasource(PartFilesDatasource(path, columns), **kwargs)


def table_rows(sf_dir: str, name: str) -> int:
    """Row count of one testdata table, summed from its part files'
    parquet footers: no Ray task runs and no column is read."""
    import pyarrow.parquet as pq

    from .parts import _part_files

    path = os.path.join(sf_dir, f"{name}.parquet")
    return sum(pq.read_metadata(f).num_rows for f in _part_files(path))


def part_units(sf_dir: str, name: str) -> list:
    """[(file stem, path)]: one plan unit per part file of one testdata
    table, keyed by the file name without its extension (``state``'s
    unit ids)."""
    from .parts import _part_files

    path = os.path.join(sf_dir, f"{name}.parquet")
    return [(os.path.splitext(os.path.basename(f))[0], f)
            for f in _part_files(path)]
