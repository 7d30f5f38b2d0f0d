"""Cross-modality keypoint matching with learned pyramid-transformer descriptors."""

import ctypes
import os
import sys

__version__ = "0.1.0"


def _tune_allocator() -> None:
    # Training frees hundreds of MB of activation buffers per step; by
    # default glibc hands each one back to the kernel (mmap/munmap plus a
    # page-fault storm on reuse). Keep large blocks on the heap instead.
    # Interleaved benchmark runs (seed 7, 20 s, 1 BLAS thread) against
    # LITEMATCH_NO_MALLOC_TUNING=1: train 64.3-64.9 vs 60.9-61.6 triplets/s,
    # match-dense p50 333 vs 358-362 ms, match-sparse-large p50 319 vs 341 ms.
    if sys.platform != "linux" or os.environ.get("LITEMATCH_NO_MALLOC_TUNING"):
        return
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except OSError:
        pass


_tune_allocator()
