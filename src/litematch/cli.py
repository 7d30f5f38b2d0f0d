"""Command-line interface: gen-data, train, match, evaluate.

Importing this module changes nothing outside it. The BLAS/OpenMP thread
pools size themselves from ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``,
so set those in the environment that starts ``litematch``. litematch shares
its GEMM work over the cores only while BLAS runs one thread, so run
``train`` with ``OPENBLAS_NUM_THREADS=1``: on a 2-vCPU VM, a 48-patch 64 px
training step took 261 ms with OpenBLAS's default threads against 241 ms
with one (medians of 8 interleaved rounds).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .checkpoint import load_checkpoint, model_from_checkpoint
from .config import RunConfig, apply_overrides, load_config_file
from .dataset import (
    AlignedPair,
    DatasetManifest,
    build_triplets,
    identity_alignment,
    load_dataset,
    load_manifest,
    synth_pair,
    write_dataset,
)
from .detector import detect_keypoints
from .errors import ConfigError, DatasetError
from .image import load_image, save_ppm
from .matching import annotate_matches, score, write_matches
from .model import Model
from .patch import required_margin
from .pipeline import enhance, evaluate_pair, evaluation_table, match_images
from .training import check_model_config, model_config_for, select_records, train


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field (repeatable)",
    )


def _build_config(args: argparse.Namespace, cfg: RunConfig) -> RunConfig:
    """``cfg`` under --config, then --set, then the dedicated flags, validated once.

    The dedicated flags are --seed and, for gen-data, --pairs and --triplets.
    """
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    apply_overrides(cfg, overrides)
    for key in ("seed", "pairs", "triplets"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg.validate()


def _load_model(args: argparse.Namespace) -> tuple[Model, RunConfig]:
    """The checkpoint's model and its run config under the command-line overrides,
    which may not change the checkpoint's model fields."""
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    cfg = _build_config(args, ckpt.run)
    check_model_config(model, cfg)
    return model, cfg


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _build_config(args, RunConfig())
    model_config_for(cfg)  # refuses a patch size or width no model can train on
    out_dir = Path(args.out)
    if args.from_pairs is not None:
        # from --pairs, --set or --config alike
        if args.pairs is not None or cfg.pairs != RunConfig().pairs:
            raise ConfigError(
                f"--pairs applies to --synthetic (got pairs={cfg.pairs}); "
                "with --from-pairs the directory decides the count"
            )
        src = Path(args.from_pairs)
        names = sorted(p.name[: -len("_vis.pgm")] for p in src.glob("*_vis.pgm"))
        if not names:
            raise DatasetError(f"no *_vis.pgm files in {src}")
        pairs = [
            AlignedPair(
                name=n,
                visible=load_image(src / f"{n}_vis.pgm"),
                nir=load_image(src / f"{n}_nir.pgm"),
            )
            for n in names
        ]
    else:
        pairs = [
            synth_pair(cfg.seed + i, size=cfg.synth_size, name=f"pair{i:04d}")
            for i in range(cfg.pairs)
        ]
    if cfg.triplets < len(pairs):
        raise ConfigError(f"triplets={cfg.triplets} is fewer than the {len(pairs)} pairs")
    margin = required_margin(cfg.window, cfg.input_size)
    per_pair = [cfg.triplets // len(pairs)] * len(pairs)
    for i in range(cfg.triplets % len(pairs)):
        per_pair[i] += 1
    records = []
    for pair, count in zip(pairs, per_pair):
        keypoints = detect_keypoints(
            enhance(pair.visible, cfg), cfg.max_keypoints, border_margin=margin
        )
        records += build_triplets(
            pair,
            keypoints,
            count=count,
            seed=cfg.seed,
            window=cfg.window,
            out_size=cfg.input_size,
        )
    manifest = DatasetManifest(
        seed=cfg.seed,
        window=cfg.window,
        out_size=cfg.input_size,
        clahe_clip=cfg.clahe_clip,
        clahe_grid=cfg.clahe_grid,
        pairs=[pair.name for pair in pairs],
        records=records,
    )
    write_dataset(out_dir, pairs, manifest)
    print(f"wrote {len(pairs)} pairs, {manifest.count} triplet records to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    # --config and --set override a resumed checkpoint's run config, as for
    # match and evaluate, or else the dataset's patch and enhancement
    # settings; train() refuses any that disagree with the dataset
    if args.resume is not None:
        base = load_checkpoint(args.resume).run
    else:
        m = load_manifest(args.data)
        base = RunConfig(
            window=m.window, input_size=m.out_size, clahe_clip=m.clahe_clip, clahe_grid=m.clahe_grid
        )
    cfg = _build_config(args, base)
    log_path = args.log if args.log is not None else Path(args.out).with_suffix(".log.tsv")
    report = train(
        cfg,
        data_dir=args.data,
        out_checkpoint=args.out,
        subset=args.subset,
        resume=args.resume,
        log_path=log_path,
    )
    print(
        f"trained {report.steps} steps over {len(report.epochs)} epochs; "
        f"final mean loss {report.final_loss:.6f}; checkpoint at {args.out}"
    )
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    model, cfg = _load_model(args)
    img_a = load_image(args.image_a)
    img_b = load_image(args.image_b)
    result, set_a, set_b = match_images(model, img_a, img_b, cfg)
    line = f"matched {result.n_success} of {result.n_total_keypoints} keypoints"
    if args.gt_identity:
        precision, matching_score = score(result, set_a, set_b, identity_alignment, eps=cfg.eps)
        line += f"; precision {precision:.4f} matching_score {matching_score:.4f}"
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_matches(prefix.with_suffix(".matches.tsv"), result, set_a, set_b)
    composite = annotate_matches(img_a, img_b, result, set_a, set_b)
    save_ppm(composite, prefix.with_suffix(".matches.ppm"))
    print(f"{line}; wall {time.perf_counter() - t0:.1f}s; outputs at {prefix}.matches.*")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, cfg = _load_model(args)
    pairs, manifest = load_dataset(args.data)
    selected = select_records(manifest, cfg, args.subset)
    if not selected.pairs:
        raise DatasetError("no pairs selected for evaluation")
    rows = []
    for name in selected.pairs:
        summary, _, _, _ = evaluate_pair(model, pairs[name], cfg)
        rows.append(summary)
    table = evaluation_table(rows)
    print(table, end="")
    if args.out is not None:
        Path(args.out).write_text(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litematch",
        description="Cross-modality keypoint matching with learned pyramid-transformer descriptors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic pairs and a triplet manifest")
    _add_shared(g)
    g.add_argument("--out", required=True, help="output dataset directory")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", action="store_true", help="use the synthetic pair generator")
    source.add_argument("--from-pairs", default=None, help="directory of registered *_vis.pgm/*_nir.pgm")
    g.add_argument(
        "--pairs",
        type=int,
        default=None,
        help="number of synthetic pairs (with --from-pairs the directory decides the count)",
    )
    g.add_argument("--triplets", type=int, default=None, help="total triplet count")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train the descriptor network on a dataset")
    _add_shared(t)
    t.add_argument("--data", required=True, help="dataset directory from gen-data")
    t.add_argument("--out", required=True, help="output checkpoint path")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--log", type=Path, default=None, help="epoch log path (default <out>.log.tsv)")
    t.add_argument(
        "--subset",
        choices=("all", "train", "val"),
        default="all",
        help="which split of the manifest to train on",
    )
    t.set_defaults(func=cmd_train)

    m = sub.add_parser("match", help="match two images with a trained checkpoint")
    _add_shared(m)
    m.add_argument("checkpoint")
    m.add_argument("image_a")
    m.add_argument("image_b")
    m.add_argument("out_prefix")
    m.add_argument(
        "--gt-identity",
        action="store_true",
        help="score matches assuming the images are registered",
    )
    m.set_defaults(func=cmd_match)

    e = sub.add_parser("evaluate", help="report matching metrics over dataset pairs")
    _add_shared(e)
    e.add_argument("checkpoint")
    e.add_argument("--data", required=True, help="dataset directory from gen-data")
    e.add_argument(
        "--subset",
        choices=("all", "train", "val"),
        default="val",
        help="which pairs to evaluate",
    )
    e.add_argument("--out", default=None, help="also write the table to this path")
    e.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
