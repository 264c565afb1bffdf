"""proj_ray — a Ray-Data-native geospatial data-processing engine.

Pure NumPy kernels live in ``proj_ray.kernels`` (no Ray imports);
Ray Data pipeline stages in ``proj_ray.stages``; sources/sinks in
``proj_ray.sources``; composed pipelines in ``proj_ray.pipelines``;
lineage/checkpoint state in ``proj_ray.state``.

Importing the package sets glibc's allocator once per process
(``_keep_heap``), so that every process using the library, a Ray
worker, a CLI filter or a library caller, keeps its heap.
"""

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


def _keep_heap():
    """Keep the heap between kernel calls. Every step of a transform
    builds full-length numpy temporaries (160 KB for 20,000 float64
    points, a few MB for a Ray block); above glibc's default 128 KB
    mmap threshold they would be mmap'd and unmapped, or trimmed back
    to the kernel, after every call and faulted in again on the next
    one. ``mallopt`` raises the mmap threshold to 32 MB (its 64-bit
    maximum) and the trim threshold to 256 MB. Both are needed:
    setting either one turns off glibc's self-adjusting mmap
    threshold, so the trim threshold alone pins it at 128 KB. On a
    1-core x86-64 host this took a Ray worker from 35k-37k minor faults
    per 500k-key flagship job to under 1k, and an in-process
    ``kernel_bulk`` pass from 2.2k-2.8k to 18 on average. Skipped where
    the C library has no ``mallopt`` (not glibc)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


_keep_heap()

from .crs import CRS
from .transform import Transform, make_transform

__all__ = ["CRS", "Transform", "make_transform"]
__version__ = "0.1.0"
