"""Fixtures shared by the test modules."""

import functools

import pytest

from litematch import _pool


@pytest.fixture
def blur_cpus(monkeypatch):
    """``blur_cpus(n)`` gives ``gaussian_blur`` and ``ops.mix_ffn`` a fresh
    helper pool, as on a host with n CPUs and BLAS on one thread, and
    returns ``_pool.helpers()`` (None for one CPU). Every pool it builds is
    shut down afterwards."""
    pools = []

    def use(n):
        monkeypatch.setattr(_pool, "blas_threads", lambda: 1)
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(_pool, "helpers", functools.cache(_pool.helpers.__wrapped__))
        helpers = _pool.helpers()
        if helpers is not None:
            pools.append(helpers[0])
        return helpers

    yield use
    for pool in pools:
        pool.shutdown()
