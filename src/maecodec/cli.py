"""Command-line surface: compress, decompress, corpus, train, sweep, budget."""

from __future__ import annotations

import argparse
import os
import sys

from . import dataset, mae, sweep, training
from .codec import CODEC_DCT, CODEC_NULL, CodecParams
from .errors import ContractError, InfeasibleBudgetError
from .pipeline import PipelineConfig, compress, container_from_bytes, decompress, rate_report

_CODEC_IDS = {"dct": CODEC_DCT, "null": CODEC_NULL}


def _parse_list(option: str, text: str, kind) -> list:
    """Comma-separated values of ``kind``; a bad one is a ContractError naming ``option``."""
    try:
        return [kind(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ContractError(f"{option}: {exc}") from None


def _check_output_path(option: str, path: str) -> None:
    """Refuse an output path that names a directory or whose nearest existing ancestor is a file.

    open() or makedirs would refuse either, but only after the work; this
    check runs first, so a refused path costs no decode, epoch or cell and
    makes nothing.
    """
    if os.path.isdir(path):
        raise ContractError(f"{option}: {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ContractError(f"{option}: {parent} is not a directory")


def _cmd_compress(args) -> int:
    _check_output_path("--output", args.output)
    image = dataset.load_image(args.input)
    config = PipelineConfig(
        patch_size=args.patch_size,
        mask_ratio=args.mask_ratio,
        seed=args.seed,
        codec=CodecParams(_CODEC_IDS[args.codec], args.quality),
    )
    container = compress(image, config)
    with open(args.output, "wb") as fh:
        fh.write(container.to_bytes())
    rates = rate_report(container)
    print(
        f"{args.output}: {container.total_bytes} bytes, "
        f"overall {rates.overall_bpp:.4f} bpp, payload {rates.payload_bpp:.4f} bpp"
    )
    return 0


def _cmd_decompress(args) -> int:
    _check_output_path("--output", args.output)
    with open(args.input, "rb") as fh:
        container = container_from_bytes(fh.read())
    model = mae.load_checkpoint(args.model) if args.model else None
    image = decompress(container, model)
    dataset.save_image(args.output, image)
    print(f"{args.output}: {image.shape[1]}x{image.shape[0]}x{image.shape[2]}")
    return 0


def _cmd_corpus(args) -> int:
    corpus = dataset.synthetic_corpus(args.count, args.size, args.channels, args.seed)
    os.makedirs(args.out, exist_ok=True)
    ext = "ppm" if args.channels == 3 else "pgm"
    for name, image in corpus:
        dataset.save_image(os.path.join(args.out, f"{name}.{ext}"), image)
    print(f"{args.out}: {len(corpus)} images of {args.size}x{args.size}x{args.channels}")
    return 0


def _model_config_from_args(args) -> mae.TMAEConfig:
    return mae.TMAEConfig(
        patch_size=args.patch_size,
        channels=args.channels,
        enc_d_model=args.enc_width,
        enc_depth=args.enc_depth,
        enc_heads=args.enc_heads,
        enc_d_ff=args.enc_ff,
        dec_d_model=args.dec_width,
        dec_depth=args.dec_depth,
        dec_heads=args.dec_heads,
        dec_d_ff=args.dec_ff,
    )


def _cmd_train(args) -> int:
    _check_output_path("--out", args.out)
    model_cfg = _model_config_from_args(args)
    cfg = training.TrainConfig(
        crop_size=args.crop_size,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
    )
    training.require_masked_patches(model_cfg, cfg)
    if args.dataset:
        corpus = dataset.load_corpus(args.dataset)
        if not corpus:
            raise ContractError(f"training corpus is empty: no readable PPM/PGM in {args.dataset}")
    else:
        corpus = dataset.synthetic_corpus(
            args.synthetic, size=args.crop_size, channels=args.channels, seed=args.seed
        )
    result = training.train(corpus, model_cfg, cfg, log=print)
    mae.save_checkpoint(result.model, args.out)
    print(f"saved {args.out} (final loss {result.epoch_losses[-1]:.6f})")
    return 0


def _cmd_sweep(args) -> int:
    _check_output_path("--csv-out", args.csv_out)
    ratios = _parse_list("--ratios", args.ratios, float)
    qualities = _parse_list("--qualities", args.qualities, int)
    corpus = dataset.load_corpus(args.dataset)
    if not corpus:
        raise ContractError(f"sweep corpus is empty: no readable PPM/PGM in {args.dataset}")
    model = mae.load_checkpoint(args.model)
    result = sweep.rd_sweep(corpus, ratios, qualities, model, seed=args.seed)
    for failure in result.failures:
        print(
            f"failed: {failure.image_id} ratio {failure.mask_ratio:g} "
            f"q {failure.quality}: {failure.error}",
            file=sys.stderr,
        )
    means = sweep.corpus_mean(result.points)
    os.makedirs(os.path.dirname(args.csv_out) or ".", exist_ok=True)
    sweep.write_csv(result.points + means, args.csv_out)
    print(f"{args.csv_out}: {len(result.points)} points + {len(means)} means")
    if args.plot_dir:
        os.makedirs(args.plot_dir, exist_ok=True)
        for ratio, pts in sorted(sweep.group_by_ratio(means).items()):
            path = os.path.join(args.plot_dir, f"curve_r{ratio:g}.dat")
            sweep.write_curve_dat(pts, path)
            print(path)
        front_path = os.path.join(args.plot_dir, "pareto.dat")
        sweep.write_curve_dat(sweep.pareto_front(means), front_path)
        print(front_path)
    return 1 if result.failures else 0


def _cmd_budget(args) -> int:
    # A sweep CSV holds per-image rows and the corpus means; calibrate on the
    # means so that no single easy image decides the config.
    points = sweep.read_csv(args.calibration)
    calibration = [p for p in points if p.image_id == sweep.MEAN_ID] or points
    try:
        config = sweep.select_config_for_budget(
            args.bits, args.width, args.height, calibration
        )
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    print(
        f"mask_ratio {config.mask_ratio:g} quality {config.codec.quality} "
        f"codec {config.codec.codec_id}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maecodec",
        description="Masked-autoencoder image compression pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="image -> container")
    p.add_argument("--input", required=True, help="PPM/PGM image")
    p.add_argument("--output", required=True, help="container path")
    p.add_argument("--mask-ratio", type=float, default=PipelineConfig.mask_ratio)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--quality", type=int, default=CodecParams.quality)
    p.add_argument("--patch-size", type=int, default=PipelineConfig.patch_size)
    p.add_argument("--codec", choices=sorted(_CODEC_IDS), default="dct")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="container -> image")
    p.add_argument("--input", required=True, help="container path")
    p.add_argument("--output", required=True, help="PPM/PGM image")
    p.add_argument("--model", default=None, help="checkpoint (optional when nothing is masked)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("corpus", help="write a synthetic corpus as PGM/PPM files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--channels", type=int, default=1, choices=(1, 3))
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("train", help="train a toy model")
    p.add_argument("--dataset", default=None, help="PPM/PGM directory")
    p.add_argument("--synthetic", type=int, default=500, help="corpus size when no dataset")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=training.TrainConfig.seed)
    p.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=training.TrainConfig.batch_size)
    p.add_argument("--crop-size", type=int, default=training.TrainConfig.crop_size)
    p.add_argument("--lr", type=float, default=training.TrainConfig.learning_rate)
    p.add_argument("--patch-size", type=int, default=mae.TMAEConfig.patch_size)
    p.add_argument("--channels", type=int, default=mae.TMAEConfig.channels)
    p.add_argument("--enc-width", type=int, default=mae.TMAEConfig.enc_d_model)
    p.add_argument("--enc-depth", type=int, default=mae.TMAEConfig.enc_depth)
    p.add_argument("--enc-heads", type=int, default=mae.TMAEConfig.enc_heads)
    p.add_argument("--enc-ff", type=int, default=mae.TMAEConfig.enc_d_ff)
    p.add_argument("--dec-width", type=int, default=mae.TMAEConfig.dec_d_model)
    p.add_argument("--dec-depth", type=int, default=mae.TMAEConfig.dec_depth)
    p.add_argument("--dec-heads", type=int, default=mae.TMAEConfig.dec_heads)
    p.add_argument("--dec-ff", type=int, default=mae.TMAEConfig.dec_d_ff)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="rate-distortion sweep to CSV/plot files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ratios", default="0.5,0.6,0.67,0.75,0.8")
    p.add_argument("--qualities", default="10,20,30,40,50,60,70,80,90")
    p.add_argument("--csv-out", required=True)
    p.add_argument("--plot-dir", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("budget", help="pick a config for a bit budget")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--calibration", required=True, help="sweep CSV")
    p.set_defaults(func=_cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*sweep.CELL_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
