"""Tests of the benchmark itself: span arithmetic, the tail rule and tiny smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent=-1, phase="run"):
    return Span(name, float(start), float(end), parent, phase)


def test_self_times_subtract_children_and_grandchildren():
    spans = [
        _span("pipeline.evaluate_pair", 0, 10),
        _span("detector.detect_keypoints", 1, 4, parent=0),
        _span("model.forward", 5, 9, parent=0),
        _span("ops.linear.fwd", 6, 7, parent=2),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_per_layer_metrics_from_hand_built_trace():
    tracer = Tracer()
    tracer.spans = [
        _span("bench.setup", 0, 5, phase="setup"),
        _span("dataset.synth_pair", 1, 3, parent=0, phase="setup"),
        # two requests of 10 ms each: 4 ms detector, 5 ms linear forward, 1 ms glue
        _span("pipeline.evaluate_pair", 10, 10.010),
        _span("detector.detect_keypoints", 10, 10.004, parent=2),
        _span("ops.linear.fwd", 10.004, 10.009, parent=2),
        _span("pipeline.evaluate_pair", 20, 20.010),
        _span("detector.detect_keypoints", 20, 20.004, parent=5),
        _span("ops.linear.fwd", 20.004, 20.009, parent=5),
    ]
    tracer.counters[("run", "pipeline.forward_batches")] = 2
    tracer.counters[("run", "pipeline.patches")] = 96
    m = tracing.per_layer_metrics(tracer, items=2, untraced_item_ms=8.0)
    assert m["detector.detect_keypoints.self_ms"] == pytest.approx(4.0)
    assert m["ops.linear.fwd_ms"] == pytest.approx(5.0)
    assert m["share.detector"] == pytest.approx(0.4)
    assert m["share.ops_fwd"] == pytest.approx(0.5)
    assert m["share.pipeline"] == pytest.approx(0.1)
    assert m["setup.dataset_ms"] == pytest.approx(2000.0)
    assert m["pipeline.forward_batches"] == 1.0
    assert m["pipeline.batch_fill"] == pytest.approx(0.75)
    assert m["trace.item_ms"] == pytest.approx(10.0)
    assert m["trace.overhead_pct"] == pytest.approx(25.0)
    assert set(m) == {name for name, _ in tracing.PER_LAYER_METRICS}


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, pytest.approx(100 * 20 / 30), 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_end_to_end_timings_scale_to_reference_speed():
    from calibration import REFERENCE_MS, Calibrator
    from workloads import Measured

    cal = Calibrator()
    # the host runs at half speed until t=100 and at full speed from t=200
    cal.samples = [(t, 2 * REFERENCE_MS) for t in (0.0, 5.0, 10.0, 50.0)]
    cal.samples += [(t, REFERENCE_MS) for t in (200.0, 205.0, 210.0)]
    m = Measured(
        steps=[(4.0, 4.2), (8.0, 8.2), (204.0, 204.3)],
        busy=[(4.0, 4.2, 0.2), (8.0, 8.2, 0.2), (204.0, 204.3, 0.3)],
        items=6,
        attempted=3,
    )
    setups = [(0.0, 4.0), (205.0, 207.0), (6.0, 10.0)]
    metrics, _ = run.end_to_end("match-dense", m, setups, 50.0, cal)
    assert metrics["p50_ms"] == (pytest.approx(100.0), "ms")
    assert metrics["tail_ms"] == (pytest.approx(300.0), "ms")
    assert metrics["throughput_per_s"] == (pytest.approx(6 / 0.5), "1/s")
    assert metrics["setup_s"] == (pytest.approx(2.0), "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")


def test_calibration_factor_uses_samples_near_the_interval():
    from calibration import REFERENCE_MS, WINDOW_S, Calibrator

    cal = Calibrator()
    cal.samples = [(0.0, REFERENCE_MS / 2), (1.0, REFERENCE_MS * 4), (2.0, REFERENCE_MS * 2)]
    assert cal.factor(1.0, 1.0) == pytest.approx(0.5)  # all three are near
    assert cal.factor(-WINDOW_S - 0.5, -WINDOW_S) == pytest.approx(2.0)  # only t=0
    assert cal.factor(100.0, 101.0) == pytest.approx(0.5)  # none near: the run's median
    cal.sample()
    assert len(cal.samples) == 4 and cal.spent_s > 0


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _smoke(workload: str, trace: int) -> dict:
    from workloads import FULL

    tiny = replace(
        FULL,
        setup_reps=1,
        replays=1,
        train_triplets=4,
        batch_size=2,
        dense_tile=256,
        dense_crop=224,
        dense_keypoints=4,
        sparse_tile=256,
        sparse_tiles=1,
        sparse_crop=240,
        sparse_keypoints=2,
    )
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    with redirect_stdout(out):
        assert run.main(argv, sizes=tiny) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["train", "match-dense", "match-sparse-large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
