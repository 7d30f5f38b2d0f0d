"""Cross-modality keypoint matching with learned pyramid-transformer descriptors."""

import ctypes
import sys

__version__ = "0.1.0"


def _tune_allocator() -> None:
    # Training frees hundreds of MB of activation buffers per step; by
    # default glibc hands each one back to the kernel (mmap/munmap plus a
    # page-fault storm on reuse). Keep large blocks on the heap instead.
    # Interleaved 20 s benchmark runs against the untuned allocator (ROADMAP
    # "Settled"): p50 188.5 vs 192.0 ms in train, 235.5 vs 240.6 ms in
    # match-dense; level in match-sparse-large (254.1 vs 253.0 ms).
    if sys.platform != "linux":
        return
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except OSError:
        pass


_tune_allocator()
