"""Helper threads that share a job's chunks with the calling thread.

The Gaussian blur (:func:`litematch.detector.gaussian_blur`) and the
untaped feed-forward (:func:`litematch.model._feed_forward`) split their
work into chunks whose kernels release the GIL: scipy's filter, BLAS and
numpy's loops. :func:`share` runs such a list of chunks on the calling
thread and on one helper thread per further CPU this process may run on.

The benchmark's tracer keeps one span stack for a single-threaded run and
times only public litematch functions, and spans placed in the library
would assume the same. So a helper may enter no public litematch function:
the work a helper runs, and everything it calls in litematch, has a
``_``-prefixed name, and no library span may be placed inside it.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait


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


def share(items: list, work, *args, own=None) -> None:
    """Run every item of ``items`` once, on this thread and on the helpers.

    Each helper runs ``work(chunks, *args)`` and this thread runs
    ``own(chunks, *args)`` (``work`` when ``own`` is None), where ``chunks``
    is one iterator over ``items`` that they all take from. ``next()`` on a
    list iterator is one call under the GIL, so no item is taken twice or
    skipped. A one-item list asks for no helpers.

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
    pool = helpers() if len(items) > 1 else None
    futures = []
    try:
        if pool is not None:
            executor, count = pool
            for _ in range(min(count, len(items) - 1)):
                futures.append(executor.submit(work, chunks, *args))
        (own or work)(chunks, *args)
    finally:
        for _ in chunks:
            pass
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()
