"""The benchmark's three closed-loop workloads.

Each workload is driven by one caller in this process: the next request
(or training step) starts only after the previous one returns. Inputs are
generated from the workload seed in set-up; the program only ever sees the
generated images, datasets and checkpoints.

- ``train``: ``training.train`` over whole epochs of a triplet dataset made
  in set-up by the gen-data path. The only workload that records a tape and
  runs backward and the SGD update.
- ``match-dense``: ``pipeline.evaluate_pair`` on distinct crops sized so
  each side fills the 64-patch descriptor batch; model inference dominates.
- ``match-sparse-large``: the same call on larger crops with a 16-keypoint
  budget; CLAHE and the keypoint detector dominate.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from litematch import checkpoint, cli, dataset, pipeline, training
from litematch.config import RunConfig
from litematch.image import GrayImage
from litematch.model import init_model

import checks
from calibration import Calibrator


# The model runs at 64 px patches (the library default is 128) so that a
# 2-core machine completes 15 or more requests or steps in a 20 s run,
# enough for a median; the same ops run at both sizes.
INPUT_SIZE = 64
REPLAY_STRIDE = 8  # match requests 0, 8, 16, ... are replayed by the checks
TRAIN_PAIRS = 2  # synthetic pairs behind the train dataset
TRAIN_SYNTH = 256  # their side in pixels
# The match model's weight matrices are this many times their init scale.
# At init the attention and feed-forward branches barely move the
# descriptors, so a wrong op there would pass the reference check; at ten
# times, a 0.2% change of the GELU constant moves them by 2e-5, above its
# 1e-5 tolerance, while float32 rounding stays under 5e-7.
MATCH_WEIGHT_GAIN = 10.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``FULL`` is the benchmark, the tests shrink it."""

    setup_reps: int = 3
    replays: int = 2  # match requests checked against the reference per run
    # train: SGD at this batch size over a gen-data triplet dataset
    train_triplets: int = 32
    batch_size: int = 16
    # match-dense: crops of one base pair; >= 64 keypoints per side at 416 px
    dense_tile: int = 512
    dense_crop: int = 416
    dense_keypoints: int = 64
    # match-sparse-large: crops of a 2x2 mosaic of synthetic pairs
    sparse_tile: int = 448
    sparse_tiles: int = 2
    sparse_crop: int = 768
    sparse_keypoints: int = 16


FULL = Sizes()


@dataclass
class Measured:
    """One measured phase: when each request or step ran, plus work and failure counts."""

    steps: list[tuple[float, float]] = field(default_factory=list)  # (start, end) perf_counter
    # (start, end, seconds inside the program's calls) of each call timed for throughput
    busy: list[tuple[float, float, float]] = field(default_factory=list)
    items: int = 0  # triplets (train) or image pairs (match)
    attempted: int = 0  # training steps or match requests
    failed: int = 0

    @property
    def latencies_ms(self) -> list[float]:
        return [1e3 * (end - start) for start, end in self.steps]

    @property
    def busy_s(self) -> float:
        return sum(seconds for _, _, seconds in self.busy)

    @property
    def item_ms(self) -> float:
        return 1e3 * self.busy_s / self.attempted if self.attempted else 0.0


def _base_pair(seed: int, tile: int, tiles: int, name: str) -> dataset.AlignedPair:
    """A tiles x tiles mosaic of synthetic pairs; both sides share the layout."""
    parts = [dataset.synth_pair(seed * 100 + k, size=tile) for k in range(tiles * tiles)]

    def mosaic(side: str) -> GrayImage:
        rows = [
            np.hstack([getattr(parts[r * tiles + c], side).pixels for c in range(tiles)])
            for r in range(tiles)
        ]
        return GrayImage(np.vstack(rows))

    return dataset.AlignedPair(name=name, visible=mosaic("visible"), nir=mosaic("nir"))


class MatchWorkload:
    """Closed-loop match requests on distinct crops of one synthetic base pair."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, dense: bool):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        if dense:
            self.tile, self.tiles = sizes.dense_tile, 1
            self.crop, keypoints = sizes.dense_crop, sizes.dense_keypoints
        else:
            self.tile, self.tiles = sizes.sparse_tile, sizes.sparse_tiles
            self.crop, keypoints = sizes.sparse_crop, sizes.sparse_keypoints
        self.cfg = RunConfig(input_size=INPUT_SIZE, max_keypoints=keypoints, seed=seed).validate()
        self.samples: list[tuple] = []
        self.problems: list[str] = []

    def setup(self) -> None:
        self.base = _base_pair(self.seed, self.tile, self.tiles, "base")
        span = self.base.visible.width - self.crop + 1
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(17,)))
        # every request gets its own crop offset, so no two share their pixels
        self.offsets = iter(rng.permutation(span * span))
        self.span = span
        path = self.workdir / "match.ckpt"
        model = init_model(training.model_config_for(self.cfg), seed=self.seed)
        for p in model.params.values():
            if p.data.ndim >= 2:
                p.data *= MATCH_WEIGHT_GAIN
        checkpoint.save_checkpoint(path, checkpoint.build_checkpoint(model, self.cfg, 0, 0, math.nan))
        self.model = checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(path))
        self.count = 0
        pipeline.evaluate_pair(self.model, self._next_pair(), self.cfg)  # warm-up

    def _next_pair(self) -> dataset.AlignedPair:
        k = int(next(self.offsets))
        y, x = divmod(k, self.span)
        c = self.crop
        return dataset.AlignedPair(
            name=f"crop{y}_{x}",
            visible=GrayImage(self.base.visible.pixels[y : y + c, x : x + c]),
            nir=GrayImage(self.base.nir.pixels[y : y + c, x : x + c]),
        )

    def measure(self, seconds: float, cal: "Calibrator | None" = None) -> Measured:
        """Closed-loop requests for ``seconds``; ``cal`` is sampled after each one."""
        m = Measured()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            pair = self._next_pair()
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                out = pipeline.evaluate_pair(self.model, pair, self.cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                m.failed += 1
                continue
            t1 = time.perf_counter()
            m.steps.append((t0, t1))
            m.busy.append((t0, t1, t1 - t0))
            m.items += 1
            problems = checks.check_response(*out, self.cfg)
            if problems:
                m.failed += 1
                self.problems += [f"{pair.name}: {p}" for p in problems]
            elif self.count % REPLAY_STRIDE == 0 and len(self.samples) < self.sizes.replays:
                self.samples.append((pair, out))
            self.count += 1
            if cal is not None:
                cal.sample()
        return m

    def verify(self) -> int:
        """Check the sampled requests against the reference; returns how many failed."""
        failed = 0
        for pair, (summary, result, set_a, set_b) in self.samples:
            problems = checks.check_request(self.model, pair, self.cfg, result, set_a, set_b)
            failed += bool(problems)
            self.problems += problems
        return failed


class TrainWorkload:
    """Whole training epochs over a synthetic triplet dataset made by gen-data."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cfg = RunConfig(
            input_size=INPUT_SIZE,
            batch_size=sizes.batch_size,
            epochs=1,
            checkpoint_every=0,
            seed=seed,
        ).validate()
        self.checkpoint = workdir / "train.ckpt"
        self.problems: list[str] = []
        self.first_step = None
        self.cal = None
        self.model = None
        self.report = None

    def setup(self) -> None:
        self.data = self.workdir / "data"
        shutil.rmtree(self.data, ignore_errors=True)
        argv = [
            "gen-data", "--synthetic", "--out", str(self.data),
            "--pairs", str(TRAIN_PAIRS),
            "--triplets", str(self.sizes.train_triplets),
            "--seed", str(self.seed),
            "--set", f"input_size={INPUT_SIZE}",
            "--set", f"synth_size={TRAIN_SYNTH}",
        ]
        with contextlib.redirect_stdout(sys.stderr):
            if cli.main(argv) != 0:
                raise RuntimeError("gen-data failed")
        # warm-up: one epoch, which also times an epoch for sizing the run
        self.cfg.epochs = 1
        t0 = time.perf_counter()
        training.train(self.cfg, self.data, self.checkpoint, echo=False)
        self.epoch_s = time.perf_counter() - t0

    @contextlib.contextmanager
    def _step_clock(self, m: Measured):
        """Time each step from its batch fetch to the end of its update."""
        source_cls = training.TripletSource
        fetch, step = source_cls.__dict__["batch_arrays"], training.__dict__["train_step"]
        began = [0.0]

        def timed_fetch(source, indices):
            began[0] = time.perf_counter()
            return fetch(source, indices)

        def timed_step(model, opt, batch_data, loss_mode):
            first = self.first_step is None
            if first:
                params = {n: p.data.copy() for n, p in model.params.items()}
                batch = batch_data.copy()
                grads = {}

                def capture_and_step():
                    # the gradients the update applies, read before it clears them
                    grads.update((n, p.grad.copy()) for n, p in model.params.items())
                    type(opt).step(opt)

                opt.step = capture_and_step
            loss = step(model, opt, batch_data, loss_mode)
            m.steps.append((began[0], time.perf_counter()))
            if self.cal is not None:
                self.cal.sample()  # outside the step, before the next fetch
            if first:
                del opt.step
                self.first_step = (params, model, batch, loss_mode, loss, grads)
            self.model = model
            return loss

        source_cls.batch_arrays = timed_fetch
        training.train_step = timed_step
        try:
            yield
        finally:
            source_cls.batch_arrays = fetch
            training.train_step = step

    def _cal_spent(self) -> float:
        return self.cal.spent_s if self.cal is not None else 0.0

    def measure(self, seconds: float, cal: "Calibrator | None" = None) -> Measured:
        """Train until ``seconds`` have passed, in calls of whole epochs.

        Each call runs about an eighth of the time and resumes from the
        previous call's checkpoint, so a slow machine overruns by at most
        one call. ``cal`` is sampled after each step; its time is kept out
        of the busy time.
        """
        m = Measured()
        self.cal = cal
        chunk = max(1, round(seconds / 8 / self.epoch_s))
        self.cfg.epochs = 0
        resume = None
        with self._step_clock(m):
            while m.busy_s < seconds:
                self.cfg.epochs += chunk
                t0 = time.perf_counter()
                cal_s = self._cal_spent()
                try:
                    self.report = training.train(
                        self.cfg, self.data, self.checkpoint, resume=resume, echo=False
                    )
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    m.failed += 1
                    break
                t1 = time.perf_counter()
                m.busy.append((t0, t1, t1 - t0 - (self._cal_spent() - cal_s)))
                m.items += chunk * self.sizes.train_triplets
                resume = self.checkpoint
                problems = checks.check_losses(self.report)
                m.failed += bool(problems)
                self.problems += problems
        m.attempted = len(m.steps) + m.failed
        return m

    def verify(self) -> int:
        """Check the first step against the reference and round-trip the final checkpoint."""
        failed = 0
        if self.first_step is not None:
            problems = checks.check_first_step(*self.first_step)
            failed += bool(problems)
            self.problems += problems
        if self.report is not None:
            problems = checks.check_checkpoint(self.checkpoint, self.model, self.report)
            failed += bool(problems)
            self.problems += problems
        return failed


WORKLOADS = {
    "train": TrainWorkload,
    "match-dense": partial(MatchWorkload, dense=True),
    "match-sparse-large": partial(MatchWorkload, dense=False),
}
