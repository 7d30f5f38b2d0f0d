"""The helper pool that the blur and the feed-forward share."""

import functools

import pytest

from litematch import _pool


@pytest.mark.parametrize("cpu_count, expected", [(4, 3), (2, 1), (1, None), (None, None)])
def test_pool_counts_every_cpu_without_affinity(monkeypatch, cpu_count, expected):
    # os.sched_getaffinity exists on Linux only; an unknown count is one CPU
    built = []

    def pool(count, thread_name_prefix):
        built.append(count)
        return "pool"

    monkeypatch.delattr(_pool.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(_pool, "helpers", functools.cache(_pool.helpers.__wrapped__))
    monkeypatch.setattr(_pool, "ThreadPoolExecutor", pool)
    helpers = _pool.helpers()
    if expected is None:
        assert helpers is None and built == []
    else:
        assert helpers == ("pool", expected) and built == [expected]
