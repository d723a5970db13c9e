"""The benchmark's workloads: one closed-loop client each, inputs from a seed.

Each workload builds its inputs in ``setup(seed)`` and then serves ``call(i)``
until the run's time is up. A call returns the latency of every op it ran:
a kodak_rgb call is one op (a round trip), a gray256_sweep call runs the
nine cells of one image, a train_toy32 call trains a fresh model on a fixed
number of crops. Ops inside a call are separated by marking the call into
the op's first function at the name its caller looks up (``sweep.compress``
for a cell, ``training.forward_loss`` for a crop), which costs one clock
read per op. Checks run outside the timed region and return one message per
failed op.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from maecodec import autograd, dataset, mae, metrics, sweep, training
from maecodec import pipeline as pl
from maecodec.codec import CODEC_DCT, CODEC_NULL, CodecParams, codec_decode
from maecodec.masking import generate_mask, patchify, to_uint8, unstack_visible

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

clock = time.perf_counter


class FixtureError(RuntimeError):
    pass


def verify_fixtures() -> None:
    """Every checkpoint must match the SHA-256 recorded when it was trained."""
    with open(os.path.join(FIXTURE_DIR, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name, entry in manifest.items():
        with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != entry["sha256"]:
            raise FixtureError(f"{name}: sha256 {digest} != recorded {entry['sha256']}")


@dataclass
class Call:
    """What one call did: its wall time, one latency per op, and its outputs."""

    wall_s: float
    latencies_ms: list[float]
    output: object = None
    parts_ms: dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies_ms)


@dataclass
class Finish:
    """What runs after the timed loop: quality figures and extra checked ops."""

    figures: list[tuple[str, float, str]]  # (name, value, unit)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _marked_call(owner, attr: str, fn):
    """Run fn() with owner.attr marked; return (result, op latencies, wall)."""
    marks: list[float] = []
    inner = getattr(owner, attr)

    def marked(*args, **kwargs):
        marks.append(clock())
        return inner(*args, **kwargs)

    setattr(owner, attr, marked)
    try:
        t0 = clock()
        result = fn()
        t1 = clock()
    finally:
        setattr(owner, attr, inner)
    bounds = marks + [t1]
    latencies = [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    return result, latencies, t1 - t0


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _lossless_failures(image, patch_size: int, seed: int) -> list[str]:
    """Ratio 0 with the null codec must return the input bit for bit."""
    config = pl.PipelineConfig(patch_size, 0.0, seed, CodecParams(CODEC_NULL, 50))
    out = pl.decompress(pl.container_from_bytes(pl.compress(image, config).to_bytes()), None)
    if out.shape != image.shape or out.dtype != image.dtype or not np.array_equal(out, image):
        return ["lossless round trip changed the image"]
    return []


class Workload:
    name = ""
    op_unit = ""
    rate_name = ""  # what ops_per_s is called for this workload, if anything
    INPUTS = 1  # distinct call inputs, used in turn
    setup_parts: dict[str, float]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def call(self, i: int) -> Call:
        raise NotImplementedError

    def check(self, i: int, call: Call) -> list[str]:
        """One message per failed op of this call."""
        raise NotImplementedError

    def finish(self) -> Finish:
        raise NotImplementedError

    def peak_alloc_mb(self) -> float:
        raise NotImplementedError


# -- kodak_rgb -----------------------------------------------------------------


class KodakRGB(Workload):
    """Round trips of Kodak-sized 768x512x3 images, patch 16, ratio 0.67, q50."""

    name = "kodak_rgb"
    op_unit = "round trip"
    # Ops cluster by image; an odd count keeps the median inside one cluster.
    IMAGES = INPUTS = 5

    def setup(self, seed: int) -> None:
        t0 = clock()
        corpus = dataset.synthetic_corpus(self.IMAGES, size=768, channels=3, seed=seed)
        t1 = clock()
        self.model = mae.load_checkpoint(os.path.join(FIXTURE_DIR, "rgb_p16.tmck"))
        t2 = clock()
        self.setup_parts = {"dataset.synthetic_corpus": t1 - t0, "mae.load_checkpoint": t2 - t1}
        self.images = [np.ascontiguousarray(img[:512]) for _, img in corpus]
        self.config = pl.PipelineConfig(16, 0.67, seed, CodecParams(CODEC_DCT, 50))
        self.seed = seed
        self.reference: dict[int, tuple[bytes, np.ndarray, object]] = {}
        self.call(0)  # warm-up

    def call(self, i: int) -> Call:
        image = self.images[i % self.IMAGES]
        t0 = clock()
        container = pl.compress(image, self.config)
        blob = container.to_bytes()
        t1 = clock()
        parsed = pl.container_from_bytes(blob)
        out = pl.decompress(parsed, self.model)
        t2 = clock()
        return Call(
            wall_s=t2 - t0,
            latencies_ms=[1e3 * (t2 - t0)],
            output=(container, blob, parsed, out),
            parts_ms={"compress": 1e3 * (t1 - t0), "decompress": 1e3 * (t2 - t1)},
        )

    def check(self, i: int, call: Call) -> list[str]:
        k = i % self.IMAGES
        image = self.images[k]
        container, blob, parsed, out = call.output
        if out.shape != image.shape or out.dtype != image.dtype:
            return [f"image {k}: decoded {out.dtype} {out.shape} for {image.dtype} {image.shape}"]
        if parsed != container:
            return [f"image {k}: container_from_bytes(c.to_bytes()) != c"]
        if k not in self.reference:
            error = self._kept_patch_error(container, out)
            if error:
                return [f"image {k}: {error}"]
            self.reference[k] = (blob, out, container)
            return []
        ref_blob, ref_out, _ = self.reference[k]
        if blob != ref_blob or not np.array_equal(out, ref_out):
            return [f"image {k}: output differs from the first round trip"]
        return []

    @staticmethod
    def _kept_patch_error(container, out) -> str | None:
        """Kept patches of the output must equal the codec-decoded condensed image."""
        spec = container.mask_spec()
        visible = unstack_visible(codec_decode(container.payload), spec, container.padded_grid())
        patches, _ = patchify(out, container.patch_size)
        kept = to_uint8(patches.data[list(spec.keep_indices)])
        if not np.array_equal(kept, to_uint8(visible)):
            return "kept patches differ from the codec-decoded condensed image"
        return None

    def finish(self) -> Finish:
        bpp, ssim = [], []
        for k, (_, out, container) in sorted(self.reference.items()):
            bpp.append(pl.rate_report(container).overall_bpp)
            ssim.append(metrics.ssim(self.images[k], out))
        return Finish(
            figures=[("bpp", float(np.mean(bpp)), "bit/px"), ("ssim", float(np.mean(ssim)), "")],
            attempted=1,
            failures=_lossless_failures(self.images[0], 16, self.seed),
        )

    def peak_alloc_mb(self) -> float:
        blob = pl.compress(self.images[0], self.config).to_bytes()
        return _peak_alloc_mb(lambda: pl.decompress(pl.container_from_bytes(blob), self.model))


# -- gray256_sweep -------------------------------------------------------------


class Gray256Sweep(Workload):
    """rd_sweep cells over 256x256x1 images, patch 8, 3 ratios x 3 qualities."""

    name = "gray256_sweep"
    op_unit = "cell"
    rate_name = "sweep_cells_per_s"
    IMAGES = INPUTS = 4
    RATIOS = [0.5, 0.67, 0.8]
    QUALITIES = [10, 50, 90]

    def setup(self, seed: int) -> None:
        t0 = clock()
        self.corpus = dataset.synthetic_corpus(self.IMAGES, size=256, channels=1, seed=seed)
        t1 = clock()
        self.model = mae.load_checkpoint(os.path.join(FIXTURE_DIR, "gray_p8.tmck"))
        t2 = clock()
        self.setup_parts = {"dataset.synthetic_corpus": t1 - t0, "mae.load_checkpoint": t2 - t1}
        self.seed = seed
        self.reference: dict[int, list] = {}
        self.cell_failures = 0
        sweep.rd_sweep(self.corpus[:1], [0.67], [50], self.model, seed=seed)  # warm-up

    def call(self, i: int) -> Call:
        entry = self.corpus[i % self.IMAGES]
        result, latencies, wall = _marked_call(
            sweep,
            "compress",
            lambda: sweep.rd_sweep([entry], self.RATIOS, self.QUALITIES, self.model, seed=self.seed),
        )
        return Call(wall_s=wall, latencies_ms=latencies, output=result)

    def check(self, i: int, call: Call) -> list[str]:
        k = i % self.IMAGES
        result = call.output
        self.cell_failures += len(result.failures)
        errors = [f"image {k}: cell failed: {f.error}" for f in result.failures]
        for pt in result.points:
            if not (0.0 < pt.ssim <= 1.0 and pt.overall_bpp > 0.0 and math.isfinite(pt.psnr)):
                errors.append(f"image {k}: implausible point {pt}")
        cells = len(self.RATIOS) * len(self.QUALITIES)
        if call.ops != cells or len(result.points) + len(result.failures) != cells:
            errors.append(f"image {k}: {call.ops} cells timed, {cells} expected")
        if not errors:
            if k not in self.reference:
                self.reference[k] = result.points
            elif result.points != self.reference[k]:
                errors.append(f"image {k}: sweep points differ from the first sweep")
        return errors

    def finish(self) -> Finish:
        points = [pt for pts in self.reference.values() for pt in pts]
        return Finish(
            figures=[
                ("bpp", float(np.mean([p.overall_bpp for p in points])), "bit/px"),
                ("ssim", float(np.mean([p.ssim for p in points])), ""),
            ],
            attempted=1,
            failures=_lossless_failures(self.corpus[0][1], 8, self.seed),
        )

    def peak_alloc_mb(self) -> float:
        config = pl.PipelineConfig(8, 0.67, self.seed, CodecParams(CODEC_DCT, 50))
        container = pl.compress(self.corpus[0][1], config)
        return _peak_alloc_mb(lambda: pl.decompress(container, self.model))


# -- train_toy32 ---------------------------------------------------------------


class TrainToy32(Workload):
    """training.train with the acceptance-test model on a fixed number of crops."""

    name = "train_toy32"
    op_unit = "crop"
    rate_name = "train_crops_per_s"
    IMAGES = 128
    MODEL = mae.TMAEConfig(
        patch_size=4, channels=1, enc_d_model=32, enc_depth=2, enc_heads=2,
        enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
    )

    def setup(self, seed: int) -> None:
        t0 = clock()
        self.corpus = dataset.synthetic_corpus(self.IMAGES, size=64, channels=1, seed=seed)
        t1 = clock()
        self.setup_parts = {"dataset.synthetic_corpus": t1 - t0, "mae.load_checkpoint": 0.0}
        self.train_config = training.TrainConfig(
            crop_size=32, epochs=4, batch_size=8, learning_rate=2e-3, seed=seed,
            ratio_low=0.5, ratio_high=0.8,
        )
        self.seed = seed
        self.reference: list[float] | None = None
        warm = training.TrainConfig(crop_size=32, epochs=1, batch_size=8, seed=seed)
        training.train(self.corpus[:16], self.MODEL, warm)

    def call(self, i: int) -> Call:
        result, latencies, wall = _marked_call(
            training,
            "forward_loss",
            lambda: training.train(self.corpus, self.MODEL, self.train_config),
        )
        return Call(wall_s=wall, latencies_ms=latencies, output=result.epoch_losses)

    def check(self, i: int, call: Call) -> list[str]:
        losses = call.output
        crops = self.IMAGES * self.train_config.epochs
        if call.ops != crops:
            return [f"call {i}: {call.ops} crops timed, {crops} expected"] * crops
        if not all(math.isfinite(x) for x in losses) or not losses[-1] < losses[0]:
            return [f"call {i}: loss did not fall: {losses}"] * crops
        if self.reference is None:
            self.reference = losses
        elif losses != self.reference:
            return [f"call {i}: losses differ from the first call"] * crops
        return []

    def finish(self) -> Finish:
        return Finish(figures=[("train_loss", self.reference[-1] if self.reference else math.nan, "mse")])

    def peak_alloc_mb(self) -> float:
        model = mae.init_model(self.MODEL, seed=self.seed)
        patches, grid = patchify(self.corpus[0][1][:32, :32], self.MODEL.patch_size)
        spec = generate_mask(self.seed, grid.n_patches, 0.67)
        return _peak_alloc_mb(lambda: autograd.backward(mae.forward_loss(model, patches, spec)))


WORKLOADS = {w.name: w for w in (KodakRGB, Gray256Sweep, TrainToy32)}
