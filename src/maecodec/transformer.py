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


@dataclass(frozen=True)
class MaskTokenSums:
    """One block's attention over the input rows that do not depend on the image.

    In the first decoder block these are the mask tokens: the mask token
    plus each masked patch's positional encoding. They are the last rows
    of the block's input, after the kept tokens, so with m of them a
    token row p >= n - m is a mask token with table row p - (n - m).
    ``heads`` holds, per head, the mask tokens' keys k and values v and,
    for each mask-token query i, s_i = sum_j exp(qs_i . k_j) and
    u_i = sum_j exp(qs_i . k_j) v_j over the mask-token keys (qs the
    scaled queries), as ``autograd._exp_sums`` returns them; a head whose
    own logit bound exceeds ``autograd._EXP_SAFE`` holds None. That is
    masked rows x (3 d_head + 1) floats per head. Every array is read-only.
    """

    heads: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None, ...]


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
    x: Tensor, params: EncoderBlockParams, rows=None, sums: MaskTokenSums | None = None
) -> Tensor:
    """Per-head attention on projected tokens, concatenated and re-projected.

    Keys and values come from every row of the token matrix ``x``. Queries
    come from the rows of ``x`` at ``rows`` (every row when None); the
    output has one row per query row. How much of each head's map exists
    at once is ``autograd.attention``'s decision.

    With ``sums`` (``x``'s last rows are the ones it was made from, the
    kept tokens come first), a head whose table is there forms logits
    against the kept keys only, if every scaled query of ``x`` and every
    key, kept or in the table, keep the logits within
    ``autograd._EXP_SAFE`` (see ``_head_from_sums``). Any other head runs
    ``autograd.attention``.
    """
    cfg = params.config
    if x.shape[1] != cfg.d_model:
        raise ShapeError(f"multi_head_attention: token width {x.shape[1]} != d_model {cfg.d_model}")
    queries = x if rows is None else ag.gather_rows(x, rows)
    heads = []
    for h in range(cfg.n_heads):
        head = None
        if sums is not None and sums.heads[h] is not None:
            head = _head_from_sums(x, rows, params, h, sums.heads[h])
        if head is None:
            q = ag.matmul(queries, params.wq[h])
            k = ag.matmul(x, params.wk[h])
            v = ag.matmul(x, params.wv[h])
            head = ag.attention(q, k, v)
        heads.append(head)
    return ag.affine(ag.concat(heads, 1), params.wo, params.bo)


def _scaled_queries(x: Tensor, wq: Tensor) -> np.ndarray:
    """x @ wq scaled by 1/sqrt(d_head), as ``autograd.attention`` scales its queries."""
    return ag.matmul(x, wq).data * (1.0 / math.sqrt(wq.shape[1]))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def mask_token_sums(tokens: np.ndarray, params: EncoderBlockParams) -> MaskTokenSums:
    """``MaskTokenSums`` of the block whose last input rows are ``tokens``, in that order.

    The sums are formed in row blocks, as attention forms its map, and
    cost the mask-token-by-mask-token part of every head's map once.
    """
    normed = ag.layer_norm(Tensor(tokens), params.ln1_gain, params.ln1_bias)
    heads = []
    for h in range(params.config.n_heads):
        qs = _scaled_queries(normed, params.wq[h])
        k = ag.matmul(normed, params.wk[h]).data
        v = ag.matmul(normed, params.wv[h]).data
        with np.errstate(invalid="ignore", over="ignore"):
            safe = ag._logit_bound(qs, k) <= ag._EXP_SAFE
        heads.append(_read_only(k, v, *ag._exp_sums(qs, k, v)) if safe else None)
    return MaskTokenSums(tuple(heads))


def _head_from_sums(x: Tensor, rows, params: EncoderBlockParams, h: int, table) -> Tensor | None:
    """Head h's output at ``rows`` of ``x``, with ``table`` of ``MaskTokenSums.heads``; None if unsafe.

    ``x`` holds the kept tokens' rows first, then the table's m mask-token
    rows, so the kept keys come from the view ``x[:n - m]``. Each query
    row adds its sums over the kept keys, from ``autograd._exp_sums``, to
    its sums over the mask-token keys: row p >= n - m takes them from
    table row p - (n - m), a kept row has them formed from the table's
    keys and values. Its output is (u_table + u_kept) * 1 / (s_table +
    s_kept). The sums are unshifted, so this runs only when the logit
    bound of every scaled query of ``x`` (not only ``rows``'s, so that a
    row's path does not depend on the others) against every key is at
    most ``autograd._EXP_SAFE``; otherwise, a non-finite bound included,
    it returns None. Values that float32 weights give cannot overflow the
    sums.
    """
    k_m, v_m, s_m, u_m = table
    n_kept = x.shape[0] - len(s_m)
    kept = Tensor(x.data[:n_kept])
    qs = _scaled_queries(x, params.wq[h])
    k = ag.matmul(kept, params.wk[h]).data
    with np.errstate(invalid="ignore", over="ignore"):
        if not all(ag._logit_bound(qs, keys) <= ag._EXP_SAFE for keys in (k, k_m)):
            return None
    if rows is not None:
        qs = qs[rows]
    slots = (np.arange(x.shape[0]) if rows is None else np.asarray(rows)) - n_kept
    s, u = ag._exp_sums(qs, k, ag.matmul(kept, params.wv[h]).data)
    masked = slots >= 0
    s[masked] += s_m[slots[masked]]
    u[masked] += u_m[slots[masked]]
    if not masked.all():
        s_kept, u_kept = ag._exp_sums(qs[~masked], k_m, v_m)
        s[~masked] += s_kept
        u[~masked] += u_kept
    u *= 1.0 / s[:, None]
    return Tensor(u)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    hidden = ag.gelu(ag.affine(x, params.w1, params.b1))
    return ag.affine(hidden, params.w2, params.b2)


def encoder_block(x: TokenSequence, params: EncoderBlockParams, rows=None,
                  sums: MaskTokenSums | None = None) -> TokenSequence:
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

    ``sums``, for untracked weights and tokens only, is the block's
    ``MaskTokenSums`` for these tokens; ``multi_head_attention`` uses it.
    Whether a head uses it does not depend on ``rows``, so the rule above
    holds with it too.
    """
    normed = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
    residual = x.tokens if rows is None else ag.gather_rows(x.tokens, rows)
    mid = ag.add(residual, multi_head_attention(normed, params, rows, sums))
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
