"""Masked autoencoder over image patches.

The encoder runs only on the visible tokens; the decoder sees the
projected latents of the kept patches, then a shared learnable mask token
for every masked patch, each row plus its patch's positional encoding.
Positions enter only as those rows, so this row order is free: the masked
patches are the decoder's last rows. In training it predicts the masked
patches, which alone enter the loss. At reconstruction the received
visible patches pass through verbatim. Either way ``predict_masked`` makes
the prediction, and the decoder's last block and the head run only at the
masked rows; keys and values still come from every token.

Checkpoint layout (little-endian): magic "TMCK", version u8 = 1, ten u32
config fields (patch_size, channels, enc d_model/depth/heads/d_ff, dec
d_model/depth/heads/d_ff, in ``TMAEConfig`` field order), then every
weight tensor as rank u8, dims u32 x rank, float32 data.

``_build`` states each weight's name, shape and initial value once, asking
a ``make`` callable for it; its call order is the serialization order.
``init_model`` passes a random maker, so training starts from weights that
track gradients. ``load_bytes`` passes a maker that hands out the stored
arrays in order, checking each one's shape and finiteness as the builder
asks for it; a loaded model is inference-only, its weights track no
gradients, so reconstructing with it builds no autograd graph, and they
are read-only.

The mask tokens carry only their position, so for a model that tracks no
gradients and a given mask the first decoder block's attention over them
is the same for every image. ``_mask_token_sums`` memoizes it in one
``functools.lru_cache(maxsize=1)``, keyed by the model (by identity) and
the mask's ``(seed, n_patches, keep_count)``: per head, the mask tokens'
keys and values and, for every masked query, the unshifted sums of
exp(logit) and of exp(logit)-weighted values over the mask-token keys,
masked rows x (3 d_head + 1) floats, read-only, built in attention-sized
row blocks. ``decode_full`` uses it when something is masked and neither
the latents nor any weight track gradients. A head then forms logits
against the kept keys only, the decoder's leading rows, and adds the
memo's sums (see ``transformer.multi_head_attention``), if the logit bound
over every scaled query and every key, kept or masked, is at most
``autograd._EXP_SAFE``, which keeps unshifted sums safe to add. Otherwise
that head takes the whole map, as a tracked model always does, and a
non-finite input still raises NumericError. A loaded model's weights are
read-only, so its identity stands for them.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from . import autograd as ag
from . import transformer as tf
from .autograd import Tensor
from .errors import CheckpointError, ContractError, NumericError, ShapeError
from .masking import MaskSpec, PatchGrid, to_uint8, unpatchify

CHECKPOINT_MAGIC = b"TMCK"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sB10I")
_MAX_TENSOR_ELEMENTS = 1 << 26


@dataclass(frozen=True)
class TMAEConfig:
    """Architecture of the autoencoder pair.

    The encoder must be at least as deep as the decoder (the decoder is
    the lightweight half). Widths must be even for the positional encoding;
    the decoder may have depth 0, reducing it to mask token, PE and head.
    """

    patch_size: int = 8
    channels: int = 1
    enc_d_model: int = 64
    enc_depth: int = 4
    enc_heads: int = 4
    enc_d_ff: int = 128
    dec_d_model: int = 32
    dec_depth: int = 2
    dec_heads: int = 4
    dec_d_ff: int = 64

    def __post_init__(self):
        if self.patch_size <= 0:
            raise ContractError(f"patch_size must be positive, got {self.patch_size}")
        if self.channels not in (1, 3):
            raise ContractError(f"channels must be 1 or 3, got {self.channels}")
        if self.enc_depth < 1:
            raise ContractError("encoder needs at least one block")
        if self.dec_depth < 0 or self.enc_depth < self.dec_depth:
            raise ContractError(
                f"encoder depth {self.enc_depth} must be >= decoder depth {self.dec_depth}"
            )
        # validate head splits and widths
        tf.AttentionConfig(self.enc_d_model, self.enc_heads)
        tf.AttentionConfig(self.dec_d_model, self.dec_heads)
        if self.enc_d_model % 2 or self.dec_d_model % 2:
            raise ContractError(f"d_model must be even, got {self.enc_d_model} and {self.dec_d_model}")
        if self.enc_d_ff < self.enc_d_model or self.dec_d_ff < self.dec_d_model:
            raise ContractError("d_ff must be >= d_model on both sides")

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def encoder_attention(self) -> tf.AttentionConfig:
        return tf.AttentionConfig(self.enc_d_model, self.enc_heads)

    @property
    def decoder_attention(self) -> tf.AttentionConfig:
        return tf.AttentionConfig(self.dec_d_model, self.dec_heads)


@dataclass(eq=False)
class MaskedAutoencoder:
    """Weights of the encoder/decoder pair, made by ``_build``."""

    config: TMAEConfig
    embed: Tensor
    enc_blocks: list[tf.EncoderBlockParams]
    enc_ln_gain: Tensor
    enc_ln_bias: Tensor
    enc2dec_w: Tensor
    enc2dec_b: Tensor
    mask_token: Tensor
    dec_blocks: list[tf.EncoderBlockParams]
    head_w: Tensor
    head_b: Tensor
    _named: list[tuple[str, Tensor]] = field(repr=False)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every weight tensor in the order ``_build`` made it: the serialization order."""
        return list(self._named)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._named]


def _build(config: TMAEConfig, make: tf.Make) -> MaskedAutoencoder:
    """Ask ``make`` for each weight; the call order is the serialization order."""
    p, d_enc, d_dec = config.patch_dim, config.enc_d_model, config.dec_d_model
    make, named = tf.recording(make)

    def blocks(side, attention, d_ff, depth):
        return [
            tf.build_encoder_block(
                attention, d_ff, lambda name, shape, init: make(f"{side}{i}.{name}", shape, init)
            )
            for i in range(depth)
        ]

    return MaskedAutoencoder(
        config=config,
        embed=make("embed", (p, d_enc), tf.fan_in_normal),
        enc_blocks=blocks("enc", config.encoder_attention, config.enc_d_ff, config.enc_depth),
        enc_ln_gain=make("enc_ln_gain", (d_enc,), tf.ones),
        enc_ln_bias=make("enc_ln_bias", (d_enc,), tf.zeros),
        enc2dec_w=make("enc2dec_w", (d_enc, d_dec), tf.fan_in_normal),
        enc2dec_b=make("enc2dec_b", (d_dec,), tf.zeros),
        mask_token=make("mask_token", (d_dec,), tf.normal(0.02)),
        dec_blocks=blocks("dec", config.decoder_attention, config.dec_d_ff, config.dec_depth),
        head_w=make("head_w", (d_dec, p), tf.fan_in_normal),
        head_b=make("head_b", (p,), tf.zeros),
        _named=named,
    )


def init_model(config: TMAEConfig, seed: int = 0) -> MaskedAutoencoder:
    """Fresh random weights; deterministic for a given seed."""
    return _build(config, tf.random_maker(np.random.default_rng(seed)))


def encode_visible(visible: np.ndarray, keep_indices: tuple[int, ...], model: MaskedAutoencoder) -> Tensor:
    """Latents of the visible tokens: embed, add positions, encode, norm.

    keep_indices is a tuple of patch indices, one per visible row, as
    ``MaskSpec.keep_indices`` holds them.
    """
    cfg = model.config
    vis = Tensor(visible)
    if vis.ndim != 2 or vis.shape[1] != cfg.patch_dim:
        raise ShapeError(
            f"visible patches must be k x {cfg.patch_dim}, got {vis.shape}"
        )
    if vis.shape[0] != len(keep_indices):
        raise ShapeError(f"{vis.shape[0]} patches for {len(keep_indices)} keep indices")
    if keep_indices and min(keep_indices) < 0:
        raise ContractError("negative patch index")
    if len(set(keep_indices)) != len(keep_indices):
        raise ContractError("keep indices must be distinct")
    pe = tf.positional_encoding(keep_indices, cfg.enc_d_model)
    seq = tf.TokenSequence(ag.add(ag.matmul(vis, model.embed), pe))
    for block in model.enc_blocks:
        seq = tf.encoder_block(seq, block)
    return ag.layer_norm(seq.tokens, model.enc_ln_gain, model.enc_ln_bias)


def decode_full(latent: Tensor, spec: MaskSpec, model: MaskedAutoencoder, rows=None) -> Tensor:
    """Predict every patch, in patch order, from visible latents plus mask tokens.

    The token rows are the projected latents in ``spec.keep_indices``
    order, then the mask tokens in ``spec.masked_indices`` order, each
    plus its patch's positional encoding. With ``rows`` (patch indices in
    0..n-1, else ContractError), predict only those patches, in that
    order; the masked patches are token rows keep_count..n-1. Every token
    still passes through every block but the last; the last block, or
    with no decoder blocks the head, runs only at ``rows``, however few.
    In the package only ``predict_masked`` calls it, with the masked
    rows. Each predicted row equals the same row of the full prediction
    under the conditions ``tf.encoder_block`` states; gradients through
    ``rows`` add their terms in another order than the full run's, so
    they agree with it to rounding, not bit for bit.

    When something is masked and neither the latents nor any weight track
    gradients (a loaded model), the first decoder block attends with the
    mask tokens' share of every head from ``_mask_token_sums``, one
    ``lru_cache(maxsize=1)`` keyed by the model and ``(spec.seed,
    spec.n_patches, spec.keep_count)`` that holds masked rows x
    (3 d_head + 1) floats per head. A decode that shares the last one's
    model and mask then forms and exponentiates logits against the kept
    keys only. A head whose logit bound over every query and key exceeds
    ``autograd._EXP_SAFE`` still takes the whole map (module docstring).
    """
    cfg = model.config
    if latent.shape != (spec.keep_count, cfg.enc_d_model):
        raise ShapeError(
            f"latent must be {spec.keep_count} x {cfg.enc_d_model}, got {latent.shape}"
        )
    n = spec.n_patches
    order = np.array(spec.keep_indices + spec.masked_indices)  # the patch at each token row
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ContractError(f"decode_full: patch index out of range for {n} patches")
    token_rows = np.argsort(order)[rows]
    proj = ag.affine(latent, model.enc2dec_w, model.enc2dec_b)
    mask_rows = ag.tile_rows(model.mask_token, len(spec.masked_indices))
    pe = tf.positional_encoding(range(n), cfg.dec_d_model)
    tokens = ag.add(ag.concat([proj, mask_rows], 0), ag.gather_rows(pe, order))
    seq = tf.TokenSequence(tokens)
    blocks = model.dec_blocks
    first = {}
    if (blocks and spec.masked_indices and not tokens.requires_grad
            and not any(p.requires_grad for p in model.parameters())):
        first = {"sums": _mask_token_sums(model, spec.seed, n, spec.keep_count)}
    for block in blocks[:-1]:
        seq = tf.encoder_block(seq, block, **first)
        first = {}
    if blocks:
        seq = tf.encoder_block(seq, blocks[-1], token_rows, **first)
    else:
        seq = tf.TokenSequence(ag.gather_rows(seq.tokens, token_rows))
    return ag.affine(seq.tokens, model.head_w, model.head_b)


@functools.lru_cache(maxsize=1)
def _mask_token_sums(model: MaskedAutoencoder, seed: int, n_patches: int, keep_count: int) -> tf.MaskTokenSums:
    """The first decoder block's ``tf.MaskTokenSums`` for the mask of this triple.

    Its rows are the decoder's last input rows, the mask token plus each
    masked patch's positional encoding, equal bit for bit to those rows
    of ``decode_full``'s tokens and the same for every image. The cache
    keeps the last model, by identity, alive with its table.
    """
    masked = list(MaskSpec(seed, n_patches, keep_count).masked_indices)
    pe = tf.positional_encoding(range(n_patches), model.config.dec_d_model).data
    return tf.mask_token_sums(model.mask_token.data + pe[masked], model.dec_blocks[0])


def predict_masked(visible: np.ndarray, spec: MaskSpec, model: MaskedAutoencoder) -> Tensor:
    """The model's prediction at ``spec.masked_indices``, one row each, in that order.

    visible holds the patches at ``spec.keep_indices`` on the model's scale.
    This is the masked path that reconstruction, the training loss and the
    held-out score share.
    """
    latent = encode_visible(visible, spec.keep_indices, model)
    return decode_full(latent, spec, model, list(spec.masked_indices))


def reconstruct(visible: np.ndarray, spec: MaskSpec, grid: PatchGrid, model: MaskedAutoencoder | None) -> np.ndarray:
    """The padded uint8 image: received patches verbatim, predictions elsewhere.

    visible is float64 on the model's scale, as unstack_visible returns it;
    it is u8 / 255, so to_uint8 gives back exactly the decoded bytes. Only
    the masked predictions are clamped to [0, 1] and quantized; the model
    runs only when something is masked, and may be None otherwise.
    """
    if visible.shape != (spec.keep_count, grid.patch_dim):
        raise ShapeError(
            f"visible patches must be {spec.keep_count} x {grid.patch_dim}, got {visible.shape}"
        )
    if spec.n_patches != grid.n_patches:
        raise ContractError(
            f"mask is for {spec.n_patches} patches, grid has {grid.n_patches}"
        )
    if spec.masked_indices and model is None:
        raise ContractError("masked positions present but no model supplied")
    full = np.empty((spec.n_patches, grid.patch_dim), dtype=np.uint8)
    parts = [(spec.keep_indices, visible)]
    if spec.masked_indices:
        if model.config.patch_dim != grid.patch_dim:
            raise ContractError(
                f"model expects {model.config.patch_dim}-dim patches, grid has {grid.patch_dim}"
            )
        parts.append((spec.masked_indices, predict_masked(visible, spec, model).data))
    rows = max(1, (1 << 16) // grid.patch_dim)  # to_uint8's float temporary: 64K samples
    for indices, values in parts:
        for a in range(0, len(indices), rows):
            full[list(indices[a : a + rows])] = to_uint8(values[a : a + rows])
    return unpatchify(full, grid)


def masked_mse(pred: Tensor, target: Tensor, spec: MaskSpec) -> Tensor:
    """Mean squared error over the masked rows only (differentiable).

    ``pred`` is ``predict_masked``'s output, one row per masked index;
    ``target`` holds every patch.
    """
    if not spec.masked_indices:
        raise ContractError("masked_mse undefined for an empty masked set")
    diff = ag.sub(pred, ag.gather_rows(target, list(spec.masked_indices)))
    return ag.mean_all(ag.mul(diff, diff))


def forward_loss(model: MaskedAutoencoder, patches: Tensor, spec: MaskSpec) -> Tensor:
    """Training objective for one image's patch matrix, predicted at the masked rows only."""
    pred = predict_masked(patches.data[list(spec.keep_indices)], spec, model)
    return masked_mse(pred, patches, spec)


# -- checkpoint serialization ------------------------------------------------


def save_bytes(model: MaskedAutoencoder) -> bytes:
    """The model's TMCK bytes; a weight that is not finite as float32 is refused.

    load_bytes refuses such a weight, so it is never written.
    """
    out = bytearray(
        _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(model.config))
    )
    for name, tensor in model.named_parameters():
        # an overflow to inf is refused below, not warned about
        with np.errstate(over="ignore"):
            arr = np.ascontiguousarray(tensor.data, dtype=np.float32)
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor {name} holds values that are not finite as float32")
        out.append(arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    return bytes(out)


def load_bytes(blob: bytes) -> MaskedAutoencoder:
    if len(blob) < _CKPT_HEADER.size:
        raise CheckpointError(f"checkpoint header truncated at {len(blob)} bytes")
    magic, version, *fields = _CKPT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        config = TMAEConfig(*fields)
    except ContractError as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from exc

    pos = _CKPT_HEADER.size
    arrays: list[np.ndarray] = []
    while pos < len(blob):
        rank = blob[pos]
        pos += 1
        if rank == 0 or rank > 2:
            raise CheckpointError(f"bad tensor rank {rank} at byte {pos - 1}")
        if pos + 4 * rank > len(blob):
            raise CheckpointError(f"tensor dims truncated at byte {pos}")
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        count = int(np.prod(dims, dtype=np.int64))
        if count <= 0 or count > _MAX_TENSOR_ELEMENTS:
            raise CheckpointError(f"implausible tensor shape {dims} at byte {pos}")
        if pos + 4 * count > len(blob):
            raise CheckpointError(f"tensor data truncated at byte {pos}")
        arrays.append(np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(dims))
        pos += 4 * count
    held = f"checkpoint holds {len(arrays)} tensors of {sum(a.size for a in arrays)} elements"
    stored = iter(arrays)

    def take(name, shape, init):
        # The header alone sizes the model, so each weight is checked
        # against the tensor actually present before it is converted.
        data = next(stored, None)
        if data is None:
            raise CheckpointError(f"{held}; none left for {name}")
        if data.shape != shape:
            raise CheckpointError(f"{held}; tensor {name} has shape {data.shape}, expected {shape}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name} holds non-finite values")
        weight = Tensor(data)
        weight.data.flags.writeable = False  # the mask-token memo keys the model by identity
        return weight

    model = _build(config, take)
    if next(stored, None) is not None:
        raise CheckpointError(f"{held}; config needs {len(model.named_parameters())}")
    return model


def save_checkpoint(model: MaskedAutoencoder, path) -> None:
    """Write save_bytes(model) to path, making its directory.

    The model is serialized first, so a refused weight makes no directory
    and no file and leaves a checkpoint already at path as it was.
    """
    blob = save_bytes(model)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> MaskedAutoencoder:
    with open(path, "rb") as fh:
        return load_bytes(fh.read())
