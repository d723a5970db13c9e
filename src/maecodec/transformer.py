"""Building blocks for a small vision transformer.

Tokens are rows of a matrix (row-vector convention), so attention logits
are Q @ K^T scaled by 1/sqrt(d_head); each head is one fused
``autograd.attention`` op. Encoder blocks use the pre-norm residual form:
x + MHA(LN(x)) followed by x + FFN(LN(x)). A ``TokenSequence`` carries
only the token matrix: patch positions enter as positional-encoding rows
added to the tokens, never as metadata.

Training starts from ``mae.init_model``, whose blocks come from
``init_encoder_block`` and track gradients. A loaded checkpoint is
inference-only: its weights track no gradients, so running its blocks
builds no autograd graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, ShapeError

POSITIONAL_BASE = 10000.0


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
    """Weights of one encoder block.

    Q/K/V projections carry no bias; the output projection and the two
    feed-forward layers do. Layer norms come with their own gain/bias.
    """

    config: AttentionConfig
    wq: list[Tensor]  # per head, (d_model, d_head)
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor  # (d_model, d_model)
    bo: Tensor  # (d_model,)
    w1: Tensor  # (d_model, d_ff)
    b1: Tensor  # (d_ff,)
    w2: Tensor  # (d_ff, d_model)
    b2: Tensor  # (d_model,)
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def tensors(self) -> list[tuple[str, Tensor]]:
        """All weights in their fixed serialization order."""
        named: list[tuple[str, Tensor]] = [
            ("ln1_gain", self.ln1_gain),
            ("ln1_bias", self.ln1_bias),
        ]
        named += [(f"wq{h}", t) for h, t in enumerate(self.wq)]
        named += [(f"wk{h}", t) for h, t in enumerate(self.wk)]
        named += [(f"wv{h}", t) for h, t in enumerate(self.wv)]
        named += [
            ("wo", self.wo),
            ("bo", self.bo),
            ("ln2_gain", self.ln2_gain),
            ("ln2_bias", self.ln2_bias),
            ("w1", self.w1),
            ("b1", self.b1),
            ("w2", self.w2),
            ("b2", self.b2),
        ]
        return named


@dataclass
class TokenSequence:
    """Token matrix, one row per token."""

    tokens: Tensor

    def __post_init__(self):
        if self.tokens.ndim != 2:
            raise ShapeError(f"tokens must be a matrix, got shape {self.tokens.shape}")


def patch_embed(patches: Tensor, projection: Tensor) -> TokenSequence:
    """Project flattened patches into the embedding space."""
    return TokenSequence(ag.matmul(patches, projection))


def positional_encoding(n_positions: int, d_model: int) -> Tensor:
    """Sinusoidal position table.

    PE[pos, 2i] = sin(pos / base^(2i/d_model)) and the matching cosine in
    the odd channel, base 10000.
    """
    if d_model % 2 != 0:
        raise ContractError(f"d_model must be even, got {d_model}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    freq = np.exp(
        -math.log(POSITIONAL_BASE) * np.arange(0, d_model, 2, dtype=np.float64) / d_model
    )
    table = np.empty((n_positions, d_model))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return Tensor(table)


def positional_rows(positions, d_model: int) -> Tensor:
    """Positional encoding rows for an arbitrary set of patch indices."""
    positions = list(positions)
    if not positions:
        raise ContractError("positional_rows: empty position list")
    table = positional_encoding(max(positions) + 1, d_model)
    return Tensor(table.data[positions])


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
    merged = heads[0] if len(heads) == 1 else ag.concat_cols(heads)
    return ag.add(ag.matmul(merged, params.wo), params.bo)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    hidden = ag.gelu(ag.add(ag.matmul(x, params.w1), params.b1))
    return ag.add(ag.matmul(hidden, params.w2), params.b2)


def encoder_block(x: TokenSequence, params: EncoderBlockParams) -> TokenSequence:
    """Pre-norm residual block; positions enter only as PE rows in the tokens."""
    normed = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
    mid = ag.add(x.tokens, multi_head_attention(TokenSequence(normed), params))
    normed2 = ag.layer_norm(mid, params.ln2_gain, params.ln2_bias)
    return TokenSequence(ag.add(mid, feed_forward(normed2, params)))


def init_encoder_block(cfg: AttentionConfig, d_ff: int, rng: np.random.Generator) -> EncoderBlockParams:
    """Random block weights: scaled-normal projections, identity layer norms."""
    if d_ff < cfg.d_model:
        raise ContractError(f"d_ff ({d_ff}) must be >= d_model ({cfg.d_model})")
    d, dh = cfg.d_model, cfg.d_head

    def w(rows, cols):
        return Tensor(rng.normal(0.0, 1.0 / math.sqrt(rows), (rows, cols)), requires_grad=True)

    return EncoderBlockParams(
        config=cfg,
        wq=[w(d, dh) for _ in range(cfg.n_heads)],
        wk=[w(d, dh) for _ in range(cfg.n_heads)],
        wv=[w(d, dh) for _ in range(cfg.n_heads)],
        wo=w(d, d),
        bo=Tensor(np.zeros(d), requires_grad=True),
        w1=w(d, d_ff),
        b1=Tensor(np.zeros(d_ff), requires_grad=True),
        w2=w(d_ff, d),
        b2=Tensor(np.zeros(d), requires_grad=True),
        ln1_gain=Tensor(np.ones(d), requires_grad=True),
        ln1_bias=Tensor(np.zeros(d), requires_grad=True),
        ln2_gain=Tensor(np.ones(d), requires_grad=True),
        ln2_bias=Tensor(np.zeros(d), requires_grad=True),
    )


def encoder_block_size(cfg: AttentionConfig, d_ff: int) -> tuple[int, int]:
    """(tensor count, element count) of the weights ``init_encoder_block`` makes."""
    d = cfg.d_model
    # per-head Q/K/V (3 d^2 in all), wo, bo, w1, b1, w2, b2, two layer norms
    return 3 * cfg.n_heads + 10, 4 * d * d + 2 * d * d_ff + 6 * d + d_ff
