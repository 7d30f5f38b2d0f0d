"""Helper threads that share a job's chunks with the calling thread.

The Gaussian blur (:func:`litematch.detector.gaussian_blur`) and the
Mix-FFN (:func:`litematch.ops.mix_ffn`, forward and backward) split their
work into chunks whose kernels release the GIL: scipy's filter, BLAS and
numpy's loops. :func:`share` runs such a list of chunks on the calling
thread and on one helper thread per further CPU this process may run on.

BLAS rule: work that calls BLAS is shared only while numpy's OpenBLAS runs
one thread (:func:`blas_threads`); else, or where the count cannot be read,
it stays on the calling thread, since chunked GEMMs on several threads
beside a multi-threaded BLAS ran slower. The blur calls no BLAS and always
shares. litematch never sets BLAS's thread count; ``OPENBLAS_NUM_THREADS``
in the environment that starts the process does.

The benchmark's tracer keeps one span stack for a single-threaded run and
times only public litematch functions, and spans placed in the library
would assume the same. So a helper may enter no public litematch function:
the work a helper runs, and everything it calls in litematch, has a
``_``-prefixed name, and no library span may be placed inside it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


@functools.cache
def helpers() -> tuple[ThreadPoolExecutor, int] | None:
    """The helpers: one thread per CPU beyond the first this process may run
    on, or None on one CPU. Created on first use. Where the platform cannot
    say which CPUs the process may run on, every CPU counts, and an unknown
    count reads as one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    return ThreadPoolExecutor(cpus - 1, thread_name_prefix="litematch-helper"), cpus - 1


@functools.cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS that numpy's wheel bundles, or
    None where no such library is loaded or it lacks the known symbol."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        path = glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))[0]
        lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        getter = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs now, or None if unknown."""
    getter = _blas_thread_getter()
    return None if getter is None else getter()


def share(items: list, work, *args, blas: bool = False) -> None:
    """Run every item of ``items`` once, on this thread and on the helpers.

    This thread and each helper run ``work(chunks, *args)``, where
    ``chunks`` is one iterator over ``items`` that they all take from.
    ``next()`` on a list iterator is one call under the GIL, so no item is
    taken twice or skipped. A one-item list asks for no helpers, and
    neither does work that calls BLAS (``blas=True``) unless BLAS runs one
    thread (see the module docstring).

    Once this thread runs out of items, a helper that has not started is
    cancelled, and a started one is waited for: a helper the host has
    descheduled delays the job by at most the one item it holds. A
    cancelled task stays queued until its thread wakes, but reaches the
    items only through the iterator, which drops its list once exhausted.
    If this thread's work raises, the items left are drained so that no
    helper starts another, the started helpers are still waited for, and
    that error propagates. Otherwise the first helper's error, in the
    order they were submitted, is raised. No helper is running when this
    returns or raises.
    """
    chunks = iter(items)
    alone = len(items) < 2 or (blas and blas_threads() != 1)
    pool = None if alone else helpers()
    futures = []
    try:
        if pool is not None:
            executor, count = pool
            for _ in range(min(count, len(items) - 1)):
                futures.append(executor.submit(work, chunks, *args))
        work(chunks, *args)
    finally:
        for _ in chunks:
            pass
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()
