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


def _tune_process():
    """Per-process setup for every process that runs the stages (each
    Ray worker imports this package before its first task): pin Arrow's
    thread pools. Ray runs one task per CPU, so each worker's kernels
    must be single-threaded -- 32 workers x 32 arrow threads thrashes
    the node and inverts scaling. The allocator setting that keeps a
    worker's heap between blocks runs earlier, when this import first
    imports the package root (``proj_ray._keep_heap``)."""
    import pyarrow as _pa

    try:
        _pa.set_cpu_count(1)
        _pa.set_io_thread_count(2)
    except Exception:
        pass


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
