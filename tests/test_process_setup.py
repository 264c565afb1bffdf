"""The per-process setup that importing ``proj_ray.stages`` runs
(``stages._tune_process``): Arrow's thread pools stay pinned, glibc's
allocator keeps the heap between blocks (a warm flagship block faults
almost no page in), and a C library without ``mallopt`` is skipped
silently."""

import ctypes
import os
import subprocess
import sys

import pyarrow as pa
import pytest

from proj_ray import stages

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
    stages._tune_process()
    assert libc.calls == [(stages.M_MMAP_THRESHOLD, 32 << 20),
                          (stages.M_TRIM_THRESHOLD, 256 << 20)]


def test_setup_without_mallopt_does_nothing(monkeypatch):
    libc = _Libc(has_mallopt=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    stages._tune_process()  # does not raise
    assert libc.looked_up == ["mallopt"] and libc.calls == []


def test_arrow_pools_stay_pinned():
    assert pa.cpu_count() == 1
    assert pa.io_thread_count() == 2
