"""A Ray Data source over a table's parquet part files.

The files are sorted and split into ``parallelism`` contiguous groups;
each group is one read task that yields ONE table. Row counts, sizes and
the schema come from the file footers, read on the driver, so building
the Dataset runs no Ray task: no metadata fetch, no sampling, and no
fixed-size read batches that cut a file into odd blocks.

Only the functions of ``proj_ray.sources`` (``read_table``,
``table_rows``, and ``part_units``, which plans one unit per part file)
import this module, so ``import proj_ray`` (and
``proj_ray.sources.grids``) never pays the ``ray.data`` import.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _part_files(path: str) -> list[str]:
    """The sorted ``*.parquet`` files of directory ``path``, or ``[path]``
    for a single file."""
    if os.path.isfile(path):
        return [path]
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no .parquet file at {path}")
    return files


def _inmemory_bytes(meta: pq.FileMetaData, schema: pa.Schema) -> int:
    """Arrow size of ``schema``'s columns in one file: rows x width for
    fixed-width types, the uncompressed column chunks otherwise."""
    nbytes = 0
    for field in schema:
        try:
            nbytes += meta.num_rows * field.type.bit_width // 8
            continue
        except ValueError:  # variable width
            pass
        leaves = [i for i in range(meta.num_columns)
                  if meta.schema.column(i).path.split(".")[0] == field.name]
        nbytes += sum(meta.row_group(g).column(i).total_uncompressed_size
                      for g in range(meta.num_row_groups) for i in leaves)
    return nbytes


def _read(files: list[str], columns) -> list[pa.Table]:
    return [pa.concat_tables([pq.read_table(f, columns=columns) for f in files])]


class PartFilesDatasource(Datasource):
    """Part files of one table, one block per contiguous file group."""

    def __init__(self, path: str, columns=None):
        self._files = _part_files(path)
        self._columns = None if columns is None else list(columns)
        metas = [pq.read_metadata(f) for f in self._files]
        schema = metas[0].schema.to_arrow_schema()
        if self._columns is not None:
            schema = pa.schema([schema.field(c) for c in self._columns])
        self._schema = schema
        self._rows = [m.num_rows for m in metas]
        self._bytes = [_inmemory_bytes(m, schema) for m in metas]

    def get_name(self) -> str:
        return "PartFiles"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        groups = np.array_split(np.arange(len(self._files)),
                                min(parallelism, len(self._files)))
        tasks = []
        for g in groups:
            files = [self._files[i] for i in g]
            meta = BlockMetadata(num_rows=sum(self._rows[i] for i in g),
                                 size_bytes=sum(self._bytes[i] for i in g),
                                 input_files=files, exec_stats=None)
            tasks.append(ReadTask(lambda files=files, columns=self._columns:
                                  _read(files, columns),
                                  meta, schema=self._schema))
        return tasks
