"""The helper pool that the blur and the Mix-FFN share, and its BLAS rule."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from litematch import _pool, detector, ops
from litematch.tensor import Tape, Tensor, backward

from cotangent import cotangent_dot


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


def test_blas_reader_reads_the_count_when_called():
    # numpy's bundled OpenBLAS reports the thread count its environment set,
    # capped at the CPUs the process may run on (one under `taskset -c 0`);
    # importing litematch looks nothing up. A numpy without that library
    # reports None
    code = (
        "import litematch.cli\n"
        "from litematch import _pool\n"
        "print(_pool._blas_thread_getter.cache_info().currsize, _pool.blas_threads())\n"
    )
    src = str(Path(_pool.__file__).resolve().parents[1])
    got = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        got.append(proc.stdout.strip())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    two = "0 2" if cpus > 1 else "0 1"
    assert got in (["0 1", two], ["0 None", "0 None"])


def mix_ffn_step(x, params):
    """Output, input gradient and parameter gradients of one taped mix_ffn."""
    for p in [x, *params]:
        p.grad = None
    with Tape() as tape:
        y = ops.mix_ffn(x, *params)
        loss = cotangent_dot(y)
    backward(loss, tape)
    return [y.data, x.grad] + [p.grad for p in params]


@pytest.mark.parametrize("threads", [1, 2, None], ids=["blas1", "blas2", "unknown"])
def test_gemm_chunks_go_to_helpers_only_beside_one_blas_thread(monkeypatch, blur_cpus, threads):
    # a multi-threaded BLAS already uses the cores, and an unknown count is
    # not known to be one; the blur calls no BLAS and always shares. Where the
    # chunks ran does not show in the outputs
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 1 << 14)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((6, 8, 8, 4)), requires_grad=True)
    shapes = [(16, 4), (16,), (16, 1, 3, 3), (16,), (4, 16), (4,)]
    params = [Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True) for shape in shapes]
    blur_cpus(1)
    want = mix_ffn_step(x, params)
    helpers = blur_cpus(2)
    asked = []
    monkeypatch.setattr(_pool, "helpers", lambda: asked.append(1) or helpers)
    monkeypatch.setattr(_pool, "blas_threads", lambda: threads)
    got = mix_ffn_step(x, params)
    assert len(asked) == (2 if threads == 1 else 0)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    img = rng.random((300, 260)).astype(np.float32)
    assert np.array_equal(detector.gaussian_blur(img, 1.6), gaussian_filter(img, 1.6))
    assert len(asked) == (4 if threads == 1 else 2)
