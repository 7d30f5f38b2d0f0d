"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``litematch`` modules from the
outside: each wrapper replaces a module or class attribute under the name
by which the callers look it up (``pipeline`` and ``dataset`` import
``extract_patch`` by name, so both bindings are wrapped), and the original
is restored on exit. Backward time per op is caught by wrapping every
``grad_fn`` that ``litematch.ops`` hands to its imported ``record``.

Spans stay in memory as (name, start, end, parent, phase) and are written
out once the run ends. A span's self time is its duration minus the
durations of its child spans; spans of the single-threaded run nest
strictly, so children never overlap.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Ops whose forward and backward time get their own per-layer metrics; the
# rest of litematch.ops is summed under ``ops.other``.
NAMED_OPS = (
    "depthwise_conv2d",
    "linear",
    "gelu",
    "layer_norm",
    "transpose",
    "conv2d",
    "softmax",
    "matmul",
)

# Layers are the litematch modules; ops time is split into forward and backward.
LAYERS = (
    "image",
    "detector",
    "patch",
    "dataset",
    "model",
    "ops_fwd",
    "ops_bwd",
    "tensor",
    "loss",
    "training",
    "pipeline",
    "matching",
    "checkpoint",
)

DESCRIPTOR_BATCH = 64  # pipeline.compute_descriptors' default batch size


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    phase: str


class Tracer:
    """In-memory span and counter recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.phase))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def current(self) -> "str | None":
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.phase, name)] += value

    def wrap(self, fn: Callable, name: str, observe: "Callable | None" = None) -> Callable:
        """``fn`` timed as a span ``name``; ``observe(tracer, args, result)`` adds counters."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent, s.phase] for s in self.spans],
            "counters": {f"{phase}:{name}": v for (phase, name), v in self.counters.items()},
        }
        path.write_text(json.dumps(doc))


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(name: str) -> str:
    """Layer of a span name such as ``ops.linear.bwd`` or ``image.clahe``."""
    module = name.split(".", 1)[0]
    if module == "ops":
        return "ops_bwd" if name.endswith(".bwd") else "ops_fwd"
    return module


# ------------------------------------------------------------ instrumentation


def _count_batch(tracer: Tracer, args, result) -> None:
    # observers run after the span closes, so current() is the caller
    if tracer.current() == "pipeline.compute_descriptors":
        tracer.count("pipeline.forward_batches")
        tracer.count("pipeline.patches", args[1].shape[0])


def _count_tape(tracer: Tracer, args, result) -> None:
    tracer.count("tensor.tape_ops", len(args[1].ops))


def _count_keypoints(tracer: Tracer, args, result) -> None:
    tracer.count("detector.keypoints", len(result))


def _count_calls(name: str) -> Callable:
    def observe(tracer: Tracer, args, result) -> None:
        tracer.count(name)

    return observe


def _count_matches(tracer: Tracer, args, result) -> None:
    tracer.count("matching.accepted", result.n_success)
    tracer.count("matching.attempted", result.n_total_keypoints)


def _count_correct(tracer: Tracer, args, result) -> None:
    tracer.count("matching.correct", args[0].n_correct or 0)
    tracer.count("matching.scored", args[0].n_success)


def _targets():
    """(owner, attribute, span name, observer) for every wrapped binding."""
    from litematch import checkpoint, cli, dataset, ops, patch, pipeline, tensor, training

    op_names = [
        n
        for n, v in vars(ops).items()
        if callable(v) and not n.startswith("_") and getattr(v, "__module__", "") == ops.__name__
    ]
    targets = [(ops, n, f"ops.{n}.fwd", None) for n in op_names]
    targets += [
        (pipeline, "evaluate_pair", "pipeline.evaluate_pair", None),
        (pipeline, "compute_descriptors", "pipeline.compute_descriptors", None),
        (pipeline, "forward", "model.forward", _count_batch),
        (training, "forward", "model.forward", None),
        (pipeline, "detect_keypoints", "detector.detect_keypoints", _count_keypoints),
        (cli, "detect_keypoints", "detector.detect_keypoints", None),
        (pipeline, "clahe", "image.clahe", None),
        (dataset, "clahe", "image.clahe", None),
        (dataset, "load_image", "image.load_image", None),
        (dataset, "save_pgm", "image.save_pgm", None),
        (pipeline, "extract_patch", "patch.extract_patch", None),
        (dataset, "extract_patch", "patch.extract_patch", None),
        (patch, "apply_transform", "patch.apply_transform", _count_calls("patch.apply_transform.calls")),
        (dataset, "apply_transform", "patch.apply_transform", _count_calls("patch.apply_transform.calls")),
        (dataset, "synth_pair", "dataset.synth_pair", None),
        (cli, "synth_pair", "dataset.synth_pair", None),
        (cli, "build_triplets", "dataset.build_triplets", None),
        (cli, "write_dataset", "dataset.write_dataset", None),
        (training, "load_dataset", "dataset.load_dataset", None),
        (training, "enhanced_pair", "dataset.enhanced_pair", None),
        (training, "materialize_triplet", "dataset.materialize_triplet", None),
        (training, "train", "training.train", None),
        (training, "train_step", "training.train_step", None),
        (training.TripletSource, "batch_arrays", "training.batch_arrays", None),
        (training, "backward", "tensor.backward", _count_tape),
        (tensor.SGD, "step", "tensor.sgd_step", None),
        (training, "triplet_loss", "loss.triplet_loss", None),
        (pipeline, "match_nn", "matching.match_nn", _count_matches),
        (pipeline, "score", "matching.score", _count_correct),
        (training, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (training, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    ]
    return ops, tensor, targets


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers into litematch; restore the originals on exit."""
    ops, tensor, targets = _targets()
    originals = []
    try:
        for owner, attr, name, observe in targets:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observe))

        plain_record = ops.__dict__["record"]

        def record(inputs, output, grad_fn):
            # Wrap the backward rule only where a tape will keep it; the op
            # being recorded is the innermost open span (``ops.<op>.fwd``).
            if tensor.active_tape() is not None:
                op = tracer.current()
                grad_fn = tracer.wrap(grad_fn, op[: -len(".fwd")] + ".bwd")
            plain_record(inputs, output, grad_fn)

        originals.append((ops, "record", plain_record))
        ops.record = record
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ------------------------------------------------------------ per-layer metrics


# Spans reported as ``<name>.self_ms``.
SELF_TIMED = (
    "model.forward",
    "tensor.backward",
    "tensor.sgd_step",
    "pipeline.compute_descriptors",
    "detector.detect_keypoints",
    "image.clahe",
    "patch.apply_transform",
    "training.batch_arrays",
    "matching.match_nn",
    "matching.score",
    "loss.triplet_loss",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "dataset.synth_pair",
    "dataset.build_triplets",
)
OP_METRICS = [f"ops.{op}.{kind}_ms" for kind in ("fwd", "bwd") for op in NAMED_OPS + ("other",)]

# Every per-layer metric the traced run prints, with its unit, in print order.
PER_LAYER_METRICS: list[tuple[str, str]] = (
    [(name, "ms") for name in OP_METRICS]
    + [(f"{name}.self_ms", "ms") for name in SELF_TIMED]
    + [
        ("tensor.tape_ops", "count"),
        ("pipeline.forward_batches", "count"),
        ("pipeline.batch_fill", "ratio"),
        ("detector.keypoints", "count"),
        ("patch.apply_transform.calls", "count"),
        ("matching.match_ratio", "ratio"),
        ("matching.precision", "ratio"),
    ]
    + [(f"share.{layer}", "ratio") for layer in LAYERS]
    + [(f"setup.{layer}_ms", "ms") for layer in LAYERS]
    + [("trace.item_ms", "ms"), ("trace.overhead_pct", "%")]
)


def per_layer_metrics(tracer: Tracer, items: int, untraced_item_ms: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one setup and one measured phase.

    ``items`` is the number of requests or training steps measured while
    tracing; times are self time per item in ms, counts are per item.
    """
    selfs = self_times(tracer.spans)
    run_self: dict[str, float] = defaultdict(float)
    setup_layer: dict[str, float] = defaultdict(float)
    root_total = 0.0
    for s, dt in zip(tracer.spans, selfs):
        if s.phase == "run":
            run_self[s.name] += dt
            if s.parent < 0:
                root_total += s.end - s.start
        elif s.phase == "setup":
            setup_layer[layer_of(s.name)] += dt

    per_item = 1e3 / max(items, 1)
    out = dict.fromkeys(OP_METRICS, 0.0)
    for name, dt in run_self.items():
        if name.startswith("ops."):
            _, op, kind = name.split(".")
            out[f"ops.{op if op in NAMED_OPS else 'other'}.{kind}_ms"] += dt * per_item
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = run_self.get(name, 0.0) * per_item

    def counter(name: str) -> float:
        return tracer.counters.get(("run", name), 0.0)

    n = max(items, 1)
    out["tensor.tape_ops"] = counter("tensor.tape_ops") / n
    batches = counter("pipeline.forward_batches")
    out["pipeline.forward_batches"] = batches / n
    out["pipeline.batch_fill"] = (
        counter("pipeline.patches") / batches / DESCRIPTOR_BATCH if batches else 0.0
    )
    out["detector.keypoints"] = counter("detector.keypoints") / n
    out["patch.apply_transform.calls"] = counter("patch.apply_transform.calls") / n
    attempted = counter("matching.attempted")
    out["matching.match_ratio"] = counter("matching.accepted") / attempted if attempted else 0.0
    scored = counter("matching.scored")
    out["matching.precision"] = counter("matching.correct") / scored if scored else 0.0

    layer_self: dict[str, float] = defaultdict(float)
    for name, dt in run_self.items():
        layer_self[layer_of(name)] += dt
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / root_total if root_total else 0.0
        out[f"setup.{layer}_ms"] = setup_layer[layer] * 1e3
    item_ms = root_total * per_item
    out["trace.item_ms"] = item_ms
    out["trace.overhead_pct"] = (
        100.0 * (item_ms / untraced_item_ms - 1.0) if untraced_item_ms > 0 else 0.0
    )
    return out
