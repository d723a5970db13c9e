"""Building blocks for a small vision transformer.

Tokens are rows of a matrix (row-vector convention), so attention logits
are Q @ K^T scaled by 1/sqrt(d_head); each head is one fused
``autograd.attention`` op. Encoder blocks use the pre-norm residual form:
x + MHA(LN(x)) followed by x + FFN(LN(x)). A ``TokenSequence`` carries
only the token matrix: patch positions enter as positional-encoding rows
added to the tokens, never as metadata.

``build_encoder_block`` states each block weight's name, shape and
initial value once, asking a ``make`` callable for it; the call order is
the serialization order. Fresh and loaded models differ only in the maker:
``random_maker`` gives weights that track gradients, while a loaded
checkpoint hands out stored arrays that track none, so running its
blocks builds no autograd graph.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, ShapeError

POSITIONAL_BASE = 10000.0

# An initial value maps (rng, shape) to an array.
Init = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]
# A maker returns the weight ``name`` of ``shape``: a fresh one drawn from
# its initial value, or the next array of a loaded checkpoint.
Make = Callable[[str, tuple[int, ...], Init], Tensor]


@dataclass(frozen=True)
class AttentionConfig:
    """Width and head count of one attention stack; heads split the width."""

    d_model: int
    n_heads: int

    def __post_init__(self):
        if self.d_model <= 0 or self.n_heads <= 0:
            raise ContractError(
                f"d_model and n_heads must be positive, got {self.d_model}, {self.n_heads}"
            )
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class EncoderBlockParams:
    """Weights of one encoder block, made by ``build_encoder_block``.

    Q/K/V projections carry no bias; the output projection and the two
    feed-forward layers do. Layer norms come with their own gain/bias.
    """

    config: AttentionConfig
    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: list[Tensor]  # per head, (d_model, d_head)
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor  # (d_model, d_model)
    bo: Tensor  # (d_model,)
    ln2_gain: Tensor
    ln2_bias: Tensor
    w1: Tensor  # (d_model, d_ff)
    b1: Tensor  # (d_ff,)
    w2: Tensor  # (d_ff, d_model)
    b2: Tensor  # (d_model,)


@dataclass
class TokenSequence:
    """Token matrix, one row per token."""

    tokens: Tensor

    def __post_init__(self):
        if self.tokens.ndim != 2:
            raise ShapeError(f"tokens must be a matrix, got shape {self.tokens.shape}")


def positional_encoding(positions, d_model: int) -> Tensor:
    """Sinusoidal encoding, one row per patch index in ``positions``.

    PE[pos, 2i] = sin(pos / base^(2i/d_model)) and the matching cosine in
    the odd channel, base 10000.
    """
    if d_model % 2 != 0:
        raise ContractError(f"d_model must be even, got {d_model}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 1:
        raise ShapeError(f"positions must be 1-D, got shape {pos.shape}")
    freq = np.exp(
        -math.log(POSITIONAL_BASE) * np.arange(0, d_model, 2, dtype=np.float64) / d_model
    )
    angles = pos[:, None] * freq
    table = np.empty((pos.size, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return Tensor(table)


def multi_head_attention(x: TokenSequence, params: EncoderBlockParams) -> Tensor:
    """Per-head attention on projected tokens, concatenated and re-projected."""
    cfg = params.config
    if x.tokens.shape[1] != cfg.d_model:
        raise ShapeError(
            f"multi_head_attention: token width {x.tokens.shape[1]} != d_model {cfg.d_model}"
        )
    heads = []
    for h in range(cfg.n_heads):
        q = ag.matmul(x.tokens, params.wq[h])
        k = ag.matmul(x.tokens, params.wk[h])
        v = ag.matmul(x.tokens, params.wv[h])
        heads.append(ag.attention(q, k, v))
    return ag.add(ag.matmul(ag.concat_cols(heads), params.wo), params.bo)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    hidden = ag.gelu(ag.add(ag.matmul(x, params.w1), params.b1))
    return ag.add(ag.matmul(hidden, params.w2), params.b2)


def encoder_block(x: TokenSequence, params: EncoderBlockParams) -> TokenSequence:
    """Pre-norm residual block; positions enter only as PE rows in the tokens."""
    normed = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
    mid = ag.add(x.tokens, multi_head_attention(TokenSequence(normed), params))
    normed2 = ag.layer_norm(mid, params.ln2_gain, params.ln2_bias)
    return TokenSequence(ag.add(mid, feed_forward(normed2, params)))


def zeros(rng, shape):
    return np.zeros(shape)


def ones(rng, shape):
    return np.ones(shape)


def fan_in_normal(rng, shape):
    """normal(0, 1/sqrt(rows)), so x @ w keeps the scale of x."""
    return rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)


def normal(std: float) -> Init:
    return lambda rng, shape: rng.normal(0.0, std, shape)


def random_maker(rng: np.random.Generator) -> Make:
    """Fresh weights drawn from their initial values in call order; they track gradients."""
    return lambda name, shape, init: Tensor(init(rng, shape), requires_grad=True)


def recording(make: Make) -> tuple[Make, list[tuple[str, Tensor]]]:
    """``make`` that also lists every weight it hands out, by name, in call order."""
    named: list[tuple[str, Tensor]] = []

    def record(name, shape, init):
        tensor = make(name, shape, init)
        named.append((name, tensor))
        return tensor

    return record, named


def build_encoder_block(cfg: AttentionConfig, d_ff: int, make: Make) -> EncoderBlockParams:
    """Ask ``make`` for each weight; the call order is the serialization order."""
    if d_ff < cfg.d_model:
        raise ContractError(f"d_ff ({d_ff}) must be >= d_model ({cfg.d_model})")
    d, dh, heads = cfg.d_model, cfg.d_head, range(cfg.n_heads)
    return EncoderBlockParams(
        config=cfg,
        ln1_gain=make("ln1_gain", (d,), ones),
        ln1_bias=make("ln1_bias", (d,), zeros),
        wq=[make(f"wq{h}", (d, dh), fan_in_normal) for h in heads],
        wk=[make(f"wk{h}", (d, dh), fan_in_normal) for h in heads],
        wv=[make(f"wv{h}", (d, dh), fan_in_normal) for h in heads],
        wo=make("wo", (d, d), fan_in_normal),
        bo=make("bo", (d,), zeros),
        ln2_gain=make("ln2_gain", (d,), ones),
        ln2_bias=make("ln2_bias", (d,), zeros),
        w1=make("w1", (d, d_ff), fan_in_normal),
        b1=make("b1", (d_ff,), zeros),
        w2=make("w2", (d_ff, d), fan_in_normal),
        b2=make("b2", (d,), zeros),
    )
