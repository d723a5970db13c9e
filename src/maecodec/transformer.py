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

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, ShapeError

POSITIONAL_BASE = 10000.0

# An initial value maps (rng, shape) to an array. The Generator is named as a
# string: evaluating it here would make every import load numpy.random.
Init = Callable[["np.random.Generator", tuple[int, ...]], np.ndarray]
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


def positional_encoding(positions: range | tuple, d_model: int) -> Tensor:
    """Sinusoidal encoding, one row per patch index in ``positions``.

    PE[pos, 2i] = sin(pos / base^(2i/d_model)) and the matching cosine in
    the odd channel, base 10000.

    Positions are a ``range`` (the decoder's whole grid) or a tuple of ints
    (the encoder's kept indices); a list or an array raises TypeError. The
    table is shared and read-only, from an ``lru_cache(maxsize=2)`` keyed
    by positions and width, enough for both tables of one mask.
    """
    if d_model % 2 != 0:
        raise ContractError(f"d_model must be even, got {d_model}")
    return Tensor(_shared_table(positions, d_model))


@functools.lru_cache(maxsize=2)
def _shared_table(positions: range | tuple, d_model: int) -> np.ndarray:
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
    table.flags.writeable = False
    return table


def multi_head_attention(
    x: Tensor, params: EncoderBlockParams, queries: Tensor | None = None
) -> Tensor:
    """Per-head attention on projected tokens, concatenated and re-projected.

    Keys and values come from every row of the token matrix ``x``. Queries
    come from the rows of ``queries`` (``x`` when it is None); the output
    has one row per query row. How much of each head's map exists at once
    is ``autograd.attention``'s decision.
    """
    cfg = params.config
    if x.shape[1] != cfg.d_model:
        raise ShapeError(f"multi_head_attention: token width {x.shape[1]} != d_model {cfg.d_model}")
    if queries is None:
        queries = x
    heads = []
    for h in range(cfg.n_heads):
        q = ag.matmul(queries, params.wq[h])
        k = ag.matmul(x, params.wk[h])
        v = ag.matmul(x, params.wv[h])
        heads.append(ag.attention(q, k, v))
    return ag.affine(ag.concat_cols(heads), params.wo, params.bo)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    hidden = ag.gelu(ag.affine(x, params.w1, params.b1))
    return ag.affine(hidden, params.w2, params.b2)


def encoder_block(x: TokenSequence, params: EncoderBlockParams, rows=None) -> TokenSequence:
    """Pre-norm residual block; positions enter only as PE rows in the tokens.

    With ``rows`` (token indices), the output holds the block's result at
    those rows only, in that order. Every token still supplies keys and
    values; the queries, the residual, the second norm and the
    feed-forward cover only ``rows``, even a single one. Each output row
    equals the same row of the full block's output, bit for bit, wherever
    BLAS rounds a row of a product the same whatever the other rows are
    (``autograd`` keeps one-row products on gemm). OpenBLAS does not in
    two cases. First, when one product has at most 10^6 multiply-adds and
    a long inner dimension and the other more: its small-matrix kernel
    sums that dimension in one pass, its blocked kernel in parts. Second,
    when the output width is not a multiple of 4 and the inner dimension
    is 64 or more: gemm then rounds a row by its position in the product,
    as in p·V with a decoder ``d_head`` of 2 over 300 keys, or a head of
    width 9. Attention forms its map in row blocks of one height in both
    runs, bar the last, tracked or not (see ``autograd.attention``), not
    in one product whose size follows ``rows``.
    """
    normed = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
    queries, residual = None, x.tokens
    if rows is not None:
        queries, residual = ag.gather_rows(normed, rows), ag.gather_rows(x.tokens, rows)
    mid = ag.add(residual, multi_head_attention(normed, params, queries))
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
