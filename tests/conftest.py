"""Fixtures shared by the test modules."""

import functools

import pytest

from litematch import detector


@pytest.fixture
def blur_cpus(monkeypatch):
    """``blur_cpus(n)`` gives ``gaussian_blur`` a fresh helper pool, as on a
    host with n CPUs, and returns ``detector._helpers()`` (None for one CPU).
    Every pool it builds is shut down afterwards."""
    pools = []

    def use(n):
        monkeypatch.setattr(detector.os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(detector, "_helpers", functools.cache(detector._helpers.__wrapped__))
        helpers = detector._helpers()
        if helpers is not None:
            pools.append(helpers[0])
        return helpers

    yield use
    for pool in pools:
        pool.shutdown()
