"""Benchmark entry point.

    python3 perfbench/run.py --workload <train|match-dense|match-sparse-large>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it imports ``litematch`` from
``src/``). With ``--trace 0`` it sets up the workload several times,
measures it untraced for ``--seconds`` and prints the end-to-end metrics, its timings
scaled to reference host speed by a calibration kernel timed throughout
the run (``calibration.py``);
with ``--trace 1`` it sets up once under tracing, measures half the time
untraced and half traced, and prints the per-layer metrics and the tracing
overhead. Either way it checks the program's outputs and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). Human-readable lines before it give
the metrics under the names of the workload's users, the failed share, the
tail percentile with its sample count, and the machine set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1
# String hashing is randomized per process, and the resulting allocation
# order moved the peak resident set by ~10% between identical runs. It is
# set before the interpreter starts, so it is pinned by re-executing run.py.
PINNED_ENV = {"PYTHONHASHSEED": "0"}
TAIL_BEYOND = 10  # samples that must lie above the reported tail value


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread; call before numpy loads.

    The workloads are dominated by single-threaded elementwise numpy work,
    and a second BLAS thread measured no faster on a 2-core machine while
    competing with the system for the other core.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10 samples beyond it.

    With ten or fewer samples no percentile qualifies, and the maximum is
    reported at percentile 100 with zero samples beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": threads,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, m, setups: list[tuple[float, float]], rss_mb: float, cal) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one untraced phase, and report lines naming them as users do.

    ``setups`` are the (start, end) times of the set-ups. Every timing is
    scaled to reference host speed by ``cal.factor`` of its own interval
    (see ``calibration.py``); the report lines also give the raw values.
    """
    from calibration import REFERENCE_MS

    latencies = [1e3 * (end - start) * cal.factor(start, end) for start, end in m.steps]
    setup_times = [(end - start) * cal.factor(start, end) for start, end in setups]
    busy = sum(seconds * cal.factor(start, end) for start, end, seconds in m.busy)
    value, pct, beyond = tail(latencies)
    metrics = {
        "throughput_per_s": (m.items / busy, "1/s"),
        "p50_ms": (statistics.median(latencies), "ms"),
        "tail_ms": (value, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = {
        "throughput_per_s": m.items / m.busy_s,
        "p50_ms": statistics.median(m.latencies_ms),
        "tail_ms": tail(m.latencies_ms)[0],
        "setup_s": statistics.median(end - start for start, end in setups),
    }
    if name == "train":
        rate, item, prefix, per = "train_triplets_per_s", "triplets", "train_step", "step"
    else:
        rate, item, prefix, per = "match_pairs_per_s", "pairs", "match", "request"
    lines = [
        f"{rate} {metrics['throughput_per_s'][0]:.4f} {item}/s  (throughput_per_s)",
        f"{prefix}_p50_ms {metrics['p50_ms'][0]:.2f} ms per {per}  (p50_ms)",
        f"{prefix}_tail_ms {value:.2f} ms at p{pct:.1f} of {len(latencies)} samples, "
        f"{beyond} beyond  (tail_ms)",
        f"setup_s {metrics['setup_s'][0]:.3f} s, median of {len(setups)} set-ups: "
        + " ".join(f"{t:.3f}" for t in setup_times),
        f"peak_rss_mb {rss_mb:.1f} MB",
        f"timings above at reference speed: calibration kernel median {cal.median_ms:.2f} ms of "
        f"{len(cal.samples)} samples against {REFERENCE_MS:g} ms; raw "
        + ", ".join(f"{n} {v:.4g}" for n, v in raw.items()),
    ]
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns the result and report lines."""
    import tracing
    from calibration import Calibrator
    from workloads import FULL, WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](seed, sizes or FULL, workdir)
        if not trace:
            cal = Calibrator()
            cal.sample()
            setups = []
            for _ in range(wl.sizes.setup_reps):
                t0 = time.perf_counter()
                wl.setup()
                setups.append((t0, time.perf_counter()))
                cal.sample()
            phases = [wl.measure(seconds, cal)]
            metrics, report = end_to_end(workload, phases[0], setups, peak_rss_mb(), cal)
        else:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                idx = tracer.open("bench.setup")
                wl.setup()
                tracer.close(idx)
            phases = [wl.measure(seconds / 2)]
            tracer.phase = "run"
            with tracing.instrumented(tracer):
                phases.append(wl.measure(seconds / 2))
            untraced, traced = phases
            values = tracing.per_layer_metrics(tracer, traced.attempted, untraced.item_ms)
            metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER_METRICS}
            trace_path = OUT_DIR / "traces" / f"{workload}-seed{seed}.json"
            tracer.write(trace_path)
            report = [
                f"traced {traced.attempted} items at {values['trace.item_ms']:.2f} ms against "
                f"{untraced.attempted} untraced at {untraced.item_ms:.2f} ms: overhead "
                f"{values['trace.overhead_pct']:.2f}%",
                f"spans written to {trace_path.relative_to(ROOT)}",
            ]
        check_failed = wl.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + check_failed
    report.append(f"failed_share {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, [f"check failed: {p}" for p in wl.problems] + report


def main(argv: "list[str] | None" = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "match-dense", "match-sparse-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "litematch").is_dir():
        print(f"error: no src/litematch under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2

    threads = pin_threads()
    for path in (str(ROOT / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    env = environment(args.seed, threads)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, **env}
    record.update(result, report=lines)
    path = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"nproc {env['nproc']}, BLAS/OpenMP threads {threads}, "
        f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}"
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])  # same process, no child
    sys.exit(main())
