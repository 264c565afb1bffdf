"""Ray Data pipeline stages: thin factories that compose the pure NumPy
kernels into ``Dataset.map_batches`` transforms.

Design rules (SURVEY.md §7.2):
- stateless numeric transforms = plain functions over zero-copy Arrow
  batches (``batch_format="pyarrow"``)
- stages with load-once state (shift grids, packed polygons, query
  matrices) = callable classes run as actor pools; state built in
  ``__init__`` once per actor, not per batch
- the whole projection+datum pipeline is ONE fused UDF per batch —
  never one Ray stage per step (the steps are microseconds)
"""

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


def _tune_process():
    """Per-process setup for every process that runs the stages (each
    Ray worker imports this package before its first task).

    - Pin Arrow's thread pools: Ray runs one task per CPU, so each
      worker's kernels must be single-threaded -- 32 workers x 32 arrow
      threads thrashes the node and inverts scaling.
    - Keep the heap: a block's multi-MB numpy temporaries would
      otherwise be mmap'd and unmapped, or trimmed back to the kernel,
      after every block and faulted in again on the next one. glibc's
      ``mallopt`` raises the mmap threshold to 32 MB (its 64-bit
      maximum) and the trim threshold to 256 MB. Both are needed:
      setting either one turns off glibc's self-adjusting mmap
      threshold, so the trim threshold alone pins it at 128 KB. On a
      1-core x86-64 host this took a Ray worker from 35k-37k minor
      faults and 250-305 ms of CPU per 500k-key flagship job to under
      1k and 210-250 ms. Skipped where the C library has no
      ``mallopt`` (not glibc). A process that never imports the stages
      keeps glibc's defaults.
    """
    import ctypes

    import pyarrow as _pa

    try:
        _pa.set_cpu_count(1)
        _pa.set_io_thread_count(2)
    except Exception:
        pass
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


_tune_process()

from .transform_stage import TransformStage
from .geoparse import GeoparseStage, synth_pages_stage
from .s2_stage import s2_shard_write_resumable, s2_shard_boxes_read
from .pip_stage import PIPJoinActor, make_polygons
from .knn_stage import knn_topk

__all__ = [
    "TransformStage",
    "GeoparseStage",
    "synth_pages_stage",
    "s2_shard_write_resumable",
    "s2_shard_boxes_read",
    "PIPJoinActor",
    "make_polygons",
    "knn_topk",
]
