"""The per-process setup: importing ``proj_ray`` sets glibc's allocator
to keep the heap between kernel calls (``proj_ray._keep_heap``; a warm
flagship block or bulk transform faults almost no page in, and a C
library without ``mallopt`` is skipped silently), and importing
``proj_ray.stages`` also pins Arrow's thread pools
(``stages._tune_process``)."""

import ctypes
import os
import subprocess
import sys

import pyarrow as pa
import pytest

import proj_ray
from proj_ray import stages  # noqa: F401  (pins Arrow's pools)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="mallopt is glibc's")
def test_warm_flagship_block_faults_no_heap_back_in():
    """A fresh process (as each Ray worker is) runs one 125k-key block
    through the chain to warm up; the second block then adds fewer than
    1,000 minor faults (5k-8k when glibc hands the block's temporaries
    back to the kernel after each block, 10-160 with the setup)."""
    code = """
import resource
import numpy as np
import pyarrow as pa
from proj_ray.pipelines.flagship import FlagshipChain

i = np.arange(125_000)
keys = pa.table({"l_orderkey": pa.array(3 * (i // 4) + 1, pa.int64()),
                 "l_linenumber": pa.array(i % 4 + 1, pa.int32())})
chain = FlagshipChain()
chain.join(keys)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pid, _, _ = chain.join(keys)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, pid.size)
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=300)
    faults, matched = map(int, out.stdout.split())
    assert matched > 0
    assert faults < 1000, faults


@pytest.mark.skipif(not _glibc(), reason="mallopt is glibc's")
def test_library_process_keeps_heap_without_stages():
    """A fresh process that imports ``proj_ray`` and never
    ``proj_ray.stages`` (a CLI filter, a library caller, ``kernel_bulk``)
    keeps its heap too: after one warm-up, 10 repeats of a 20k-point
    EPSG:4326 <-> EPSG:31467 round trip and a 4k-pair Karney inverse
    add fewer than 1,000 minor faults (about 15k when only the stages
    set the allocator, 0 with the setting at the package root)."""
    code = """
import resource
import sys
import numpy as np
from proj_ray import make_transform
from proj_ray.kernels.karney import geod_inverse_karney

rng = np.random.default_rng(7)
lon, lat = rng.uniform(5.5, 13.5, 20_000), rng.uniform(46.0, 56.0, 20_000)
g = [rng.uniform(-180.0, 180.0, 4_000), rng.uniform(-89.0, 89.0, 4_000),
     rng.uniform(-180.0, 180.0, 4_000), rng.uniform(-89.0, 89.0, 4_000)]
fwd = make_transform("+init=epsg:4326", "+init=epsg:31467")
inv = make_transform("+init=epsg:31467", "+init=epsg:4326")

def work():
    x, y, _ = fwd(lon, lat)
    inv(x, y)
    geod_inverse_karney(*g, 6378137.0, 1.0 / 298.257223563)

work()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    work()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      "proj_ray.stages" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=300)
    faults, stages_loaded = out.stdout.split()
    assert stages_loaded == "False"
    assert int(faults) < 1000, faults


class _Libc:
    """A C library stand-in that records what the setup looks up."""

    def __init__(self, has_mallopt: bool):
        self.looked_up, self.calls = [], []
        self.has_mallopt = has_mallopt

    def __getattr__(self, name):
        self.looked_up.append(name)
        if name != "mallopt" or not self.has_mallopt:
            raise AttributeError(name)

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        return mallopt


def test_setup_sets_both_thresholds(monkeypatch):
    libc = _Libc(has_mallopt=True)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    proj_ray._keep_heap()
    assert libc.calls == [(proj_ray.M_MMAP_THRESHOLD, 32 << 20),
                          (proj_ray.M_TRIM_THRESHOLD, 256 << 20)]


def test_setup_without_mallopt_does_nothing(monkeypatch):
    libc = _Libc(has_mallopt=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    proj_ray._keep_heap()  # does not raise
    assert libc.looked_up == ["mallopt"] and libc.calls == []


def test_arrow_pools_stay_pinned():
    assert pa.cpu_count() == 1
    assert pa.io_thread_count() == 2
