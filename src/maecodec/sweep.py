"""Rate-distortion sweep, Pareto selection, budget fitting, CSV/plot IO.

A sweep evaluates the full (image x ratio x quality) cross-product through
compress/decompress and the quality metrics. Per-cell failures raised as
one of the package's own error types are collected, not fatal; anything
else is a bug and propagates. All emitted files are byte-stable across runs:
fixed field order, fixed float formatting, LF line endings, UTF-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .codec import CODEC_DCT, CodecParams
from .errors import (
    BitstreamError,
    CheckpointError,
    ContainerError,
    ContractError,
    InfeasibleBudgetError,
    NumericError,
    ShapeError,
)
from .mae import MaskedAutoencoder
from .pipeline import PipelineConfig, compress, decompress, rate_report

CSV_HEADER = "image_id,mask_ratio,quality,overall_bpp,payload_bpp,ssim,psnr"
# image_id of the corpus-mean rows that corpus_mean emits.
MEAN_ID = "mean"

# Errors a single cell may raise on bad input; the sweep records them and
# moves on.
CELL_ERRORS = (
    ShapeError, NumericError, ContractError, BitstreamError, ContainerError, CheckpointError,
)


@dataclass(frozen=True)
class RDPoint:
    """One operating point of the sweep."""

    image_id: str
    mask_ratio: float
    quality: int
    overall_bpp: float
    payload_bpp: float
    ssim: float
    psnr: float


@dataclass(frozen=True)
class SweepFailure:
    image_id: str
    mask_ratio: float
    quality: int
    error: str


@dataclass
class SweepResult:
    points: list[RDPoint]
    failures: list[SweepFailure]


def rd_sweep(
    corpus: list[tuple[str, np.ndarray]],
    ratios: list[float],
    qualities: list[int],
    model: MaskedAutoencoder | None,
    patch_size: int | None = None,
    seed: int = 0,
    codec_id: int = CODEC_DCT,
) -> SweepResult:
    """Evaluate every (image, ratio, quality) cell in deterministic order."""
    if not corpus or not ratios or not qualities:
        raise ContractError("corpus, ratios and qualities must all be non-empty")
    if patch_size is None:
        if model is None:
            raise ContractError("need either a model or an explicit patch_size")
        patch_size = model.config.patch_size
    # Checked before the first cell: a bad id would otherwise surface only
    # when the written CSV is read back.
    for image_id, _ in corpus:
        if image_id == MEAN_ID or any(ch in image_id for ch in ",\n\r"):
            raise ContractError(
                f"image id {image_id!r} cannot be a sweep CSV id: it must not "
                f"contain ',', '\\n' or '\\r' or equal {MEAN_ID!r}"
            )
    points: list[RDPoint] = []
    failures: list[SweepFailure] = []
    for image_id, image in corpus:
        for ratio in ratios:
            for quality in qualities:
                try:
                    config = PipelineConfig(
                        patch_size=patch_size,
                        mask_ratio=ratio,
                        seed=seed,
                        codec=CodecParams(codec_id, quality),
                    )
                    container = compress(image, config)
                    output = decompress(container, model)
                    rates = rate_report(container)
                    points.append(
                        RDPoint(
                            image_id=image_id,
                            mask_ratio=ratio,
                            quality=quality,
                            overall_bpp=rates.overall_bpp,
                            payload_bpp=rates.payload_bpp,
                            ssim=metrics.ssim(image, output),
                            psnr=metrics.psnr(image, output),
                        )
                    )
                except CELL_ERRORS as exc:  # cell isolation: sweep continues
                    failures.append(
                        SweepFailure(image_id, ratio, quality, f"{type(exc).__name__}: {exc}")
                    )
    return SweepResult(points=points, failures=failures)


def corpus_mean(points: list[RDPoint]) -> list[RDPoint]:
    """Average per (ratio, quality) cell over images, id MEAN_ID.

    Cells appear in first-occurrence order, so a grid sweep yields the
    grid order back.
    """
    groups: dict[tuple[float, int], list[RDPoint]] = {}
    for pt in points:
        groups.setdefault((pt.mask_ratio, pt.quality), []).append(pt)
    means = []
    for (ratio, quality), cell in groups.items():
        means.append(
            RDPoint(
                image_id=MEAN_ID,
                mask_ratio=ratio,
                quality=quality,
                overall_bpp=float(np.mean([p.overall_bpp for p in cell])),
                payload_bpp=float(np.mean([p.payload_bpp for p in cell])),
                ssim=float(np.mean([p.ssim for p in cell])),
                psnr=float(np.mean([p.psnr for p in cell])),
            )
        )
    return means


def pareto_front(points: list[RDPoint]) -> list[RDPoint]:
    """Points not dominated in (lower bpp, higher ssim), bpp-ascending.

    A point is dominated if some other point is at least as good on both
    axes and strictly better on one. Exact duplicates keep the first by
    image id.
    """
    order = sorted(
        range(len(points)),
        key=lambda i: (points[i].overall_bpp, -points[i].ssim, points[i].image_id, i),
    )
    front: list[RDPoint] = []
    best = -math.inf
    for i in order:
        if points[i].ssim > best:
            front.append(points[i])
            best = points[i].ssim
    return front


def select_config_for_budget(
    budget_bits: int,
    width: int,
    height: int,
    calibration: list[RDPoint],
) -> PipelineConfig:
    """Best-SSIM calibration point whose overall bpp fits the budget.

    Only mask ratio and quality come from the point; the rest are defaults.
    """
    if not calibration:
        raise ContractError("empty calibration set")
    if budget_bits <= 0 or width <= 0 or height <= 0:
        raise ContractError("budget and dimensions must be positive")
    ceiling = budget_bits / (width * height)
    feasible = [p for p in calibration if p.overall_bpp <= ceiling]
    if not feasible:
        min_bits = math.ceil(min(p.overall_bpp for p in calibration) * width * height)
        raise InfeasibleBudgetError(
            f"no calibrated config fits {budget_bits} bits for {width}x{height} "
            f"(ceiling {ceiling:.4f} bpp); minimum achievable is {min_bits} bits",
            min_bits=min_bits,
        )
    best = max(feasible, key=lambda p: (p.ssim, -p.overall_bpp))
    return PipelineConfig(mask_ratio=best.mask_ratio, codec=CodecParams(quality=best.quality))


# -- file emission -----------------------------------------------------------


def _format_row(pt: RDPoint) -> str:
    return (
        f"{pt.image_id},{pt.mask_ratio:g},{pt.quality},"
        f"{pt.overall_bpp:.6f},{pt.payload_bpp:.6f},{pt.ssim:.6f},{pt.psnr:.6f}"
    )


def write_csv(points: list[RDPoint], path) -> None:
    lines = [CSV_HEADER] + [_format_row(p) for p in points]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list[RDPoint]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ContractError(f"{path}: expected header {CSV_HEADER!r}")
    points = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ContractError(f"{path}:{ln}: expected 7 fields, got {len(parts)}")
        try:
            point = RDPoint(
                image_id=parts[0],
                mask_ratio=float(parts[1]),
                quality=int(parts[2]),
                overall_bpp=float(parts[3]),
                payload_bpp=float(parts[4]),
                ssim=float(parts[5]),
                psnr=float(parts[6]),
            )
        except ValueError as exc:
            raise ContractError(f"{path}:{ln}: {exc}") from exc
        points.append(point)
    return points


def write_curve_dat(points: list[RDPoint], path) -> None:
    """gnuplot-ready two-column (bpp, ssim) file, bpp ascending."""
    ordered = sorted(points, key=lambda p: (p.overall_bpp, p.ssim))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pt in ordered:
            fh.write(f"{pt.overall_bpp:.6f} {pt.ssim:.6f}\n")


def group_by_ratio(points: list[RDPoint]) -> dict[float, list[RDPoint]]:
    groups: dict[float, list[RDPoint]] = {}
    for pt in points:
        groups.setdefault(pt.mask_ratio, []).append(pt)
    return groups
