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
from .mae import MaskedAutoencoder, TMAEConfig, forward_loss, init_model, predict_masked
from .masking import PAD_VALUE, generate_mask, image_grid, keep_count_for_ratio, padded_grid, patchify

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0.0 <= self.ratio_low <= self.ratio_high < 1.0:
            raise ContractError(
                f"ratio range [{self.ratio_low}, {self.ratio_high}] must sit inside [0, 1)"
            )


def require_masked_patches(model_config: TMAEConfig, cfg: TrainConfig) -> None:
    """Refuse a config whose crops can hold no masked patch.

    A full crop's padded grid has the most patches and the highest ratio
    masks the most of them; smaller images and ratios mask no more. With
    none masked, the loss has no row to average.
    """
    grid = padded_grid(cfg.crop_size, cfg.crop_size, model_config.channels, model_config.patch_size)
    n_patches = grid.n_patches
    if keep_count_for_ratio(n_patches, cfg.ratio_high) == n_patches:
        raise ContractError(
            f"crops of {cfg.crop_size} px at patch size {model_config.patch_size} hold "
            f"{n_patches} patch(es), none masked at mask ratios up to {cfg.ratio_high}"
        )


class Adam:
    """Adam with both moments in flat float64 arrays, the parameters end to end.

    Each step updates every parameter in one pass over one concatenation of
    their gradients, so every parameter must have one. A gradient that is not
    finite is refused before the step changes any state.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros(sum(p.data.size for p in params))
        self.v = np.zeros_like(self.m)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        g = np.concatenate([p.grad for p in self.params], axis=None, dtype=np.float64)
        if not np.isfinite(g).all():
            raise NumericError("Adam step: gradient is not finite")
        self.t += 1
        self.m *= _BETA1
        self.m += (1.0 - _BETA1) * g
        self.v *= _BETA2
        self.v += (1.0 - _BETA2) * g * g
        np.divide(self.m, 1.0 - _BETA1**self.t, out=g)
        g *= self.lr
        g /= np.sqrt(self.v / (1.0 - _BETA2**self.t)) + _ADAM_EPS
        for p in self.params:
            p.data -= g[: p.data.size].reshape(p.data.shape)
            g = g[p.data.size :]


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


def _where(epoch: int, start: int, ratio: float) -> str:
    return f"at epoch {epoch}, batch starting {start} (ratio {ratio:.3f})"


def train(
    corpus: list[tuple[str, np.ndarray]],
    model_config: TMAEConfig,
    cfg: TrainConfig,
    log=None,
) -> TrainResult:
    """Optimize a fresh model on random crops of the corpus.

    ``log`` is an optional callable given one line per epoch. Aborts with
    NumericError, naming the epoch, batch and ratio, if the loss goes
    non-finite, a crop's forward pass meets a non-finite value, or the
    batch's summed gradient is not finite (Adam then takes no step).
    """
    if not corpus:
        raise ContractError("training corpus is empty")
    require_masked_patches(model_config, cfg)
    # Crops hold more than one patch, so a crop of an image whose grid holds
    # more than one holds more than one too, and a ratio in (0, 1) masks one.
    for name, image in corpus:
        arr, grid = image_grid(image, model_config.patch_size)
        if arr.shape[2] != model_config.channels:
            raise ContractError(
                f"corpus image {name!r} has {arr.shape[2]} channels, "
                f"but the model takes {model_config.channels}"
            )
        if grid.n_patches == 1:
            raise ContractError(
                f"corpus image {name!r} fits in one patch of {model_config.patch_size} px, "
                "so no mask ratio masks any of it"
            )
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
            try:
                for idx in batch:
                    crop = _random_crop(images[idx], cfg.crop_size, rng)
                    patches, grid = patchify(crop, model_config.patch_size)
                    if spec is None or spec.n_patches != grid.n_patches:
                        n_patches_per_crop = grid.n_patches
                        spec = generate_mask(mask_seed, grid.n_patches, ratio)
                    loss = forward_loss(model, patches, spec)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise NumericError(f"non-finite loss {value}")
                    # an overflow leaves a non-finite gradient, which Adam.step refuses
                    with np.errstate(over="ignore", invalid="ignore"):
                        ag.backward(ag.mul(loss, inv))
                    losses.append(value)
                opt.step()
            except NumericError as exc:
                raise NumericError(f"{exc} {_where(epoch, start, ratio)}") from exc
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
    """Masked-row MSE of the model's clamped predictions, made at the masked rows only."""
    arr = patches.data
    pred = np.clip(predict_masked(arr[list(spec.keep_indices)], spec, model).data, 0.0, 1.0)
    return float(np.mean((pred - arr[list(spec.masked_indices)]) ** 2))
