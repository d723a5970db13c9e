"""Toy-scale training: Adam on the masked reconstruction loss.

Each batch draws one mask ratio uniformly from the configured range and
one mask seed, shared by every crop in the batch (crops share geometry,
so they share the MaskSpec). Gradients accumulate across the batch and
one Adam step follows. Single-threaded and deterministic for a given
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, NumericError
from .mae import (
    MaskedAutoencoder,
    TMAEConfig,
    decode_full,
    encode_visible,
    forward_loss,
    init_model,
)
from .masking import PAD_VALUE, generate_mask, patchify

_MASK_SEED_BOUND = 1 << 63
# Adam's moment decay rates and denominator floor (Kingma & Ba defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    crop_size: int = 64
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    ratio_low: float = 0.5
    ratio_high: float = 0.8

    def __post_init__(self):
        if min(self.crop_size, self.epochs, self.batch_size) < 1:
            raise ContractError("crop_size, epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if not 0.0 <= self.ratio_low <= self.ratio_high < 1.0:
            raise ContractError(
                f"ratio range [{self.ratio_low}, {self.ratio_high}] must sit inside [0, 1)"
            )


class Adam:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


@dataclass
class TrainResult:
    model: MaskedAutoencoder
    epoch_losses: list[float]


def _random_crop(image: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    h, w = image.shape[:2]
    if h <= size and w <= size:
        return image
    y = int(rng.integers(0, max(1, h - size + 1)))
    x = int(rng.integers(0, max(1, w - size + 1)))
    return image[y : y + size, x : x + size]


def train(
    corpus: list[tuple[str, np.ndarray]],
    model_config: TMAEConfig,
    cfg: TrainConfig,
    log=None,
) -> TrainResult:
    """Optimize a fresh model on random crops of the corpus.

    ``log`` is an optional callable given one line per epoch. Aborts with
    NumericError (carrying epoch/step context) if the loss goes non-finite.
    """
    if not corpus:
        raise ContractError("training corpus is empty")
    images = [img for _, img in corpus]
    rng = np.random.default_rng(cfg.seed)
    model = init_model(model_config, seed=cfg.seed)
    opt = Adam(model.parameters(), cfg.learning_rate)

    n_patches_per_crop = None
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(images))
        losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ratio = float(rng.uniform(cfg.ratio_low, cfg.ratio_high))
            mask_seed = int(rng.integers(0, _MASK_SEED_BOUND))
            spec = None
            opt.zero_grad()
            inv = 1.0 / len(batch)
            for idx in batch:
                crop = _random_crop(images[idx], cfg.crop_size, rng)
                patches, grid = patchify(crop, model_config.patch_size)
                if spec is None or spec.n_patches != grid.n_patches:
                    n_patches_per_crop = grid.n_patches
                    spec = generate_mask(mask_seed, grid.n_patches, ratio)
                loss = forward_loss(model, patches, spec)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(
                        f"non-finite loss {value} at epoch {epoch}, "
                        f"batch starting {start} (ratio {ratio:.3f})"
                    )
                ag.backward(ag.mul(loss, inv))
                losses.append(value)
            opt.step()
        epoch_losses.append(float(np.mean(losses)))
        if log is not None:
            log(
                f"epoch {epoch + 1}/{cfg.epochs}: loss {epoch_losses[-1]:.6f} "
                f"({n_patches_per_crop} patches/crop)"
            )
    return TrainResult(model=model, epoch_losses=epoch_losses)


def baseline_fill_mse(patches: Tensor, spec) -> float:
    """Masked-row MSE of a mid-gray fill; the floor a model must beat."""
    masked = patches.data[list(spec.masked_indices)]
    return float(np.mean((masked - PAD_VALUE) ** 2))


def masked_model_mse(model: MaskedAutoencoder, patches: Tensor, spec) -> float:
    """Masked-row MSE of the model's clamped predictions."""
    arr = patches.data
    latent = encode_visible(arr[list(spec.keep_indices)], spec.keep_indices, model)
    pred = np.clip(decode_full(latent, spec, model).data, 0.0, 1.0)
    masked = list(spec.masked_indices)
    return float(np.mean((pred[masked] - arr[masked]) ** 2))
