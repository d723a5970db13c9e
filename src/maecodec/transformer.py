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
    x: Tensor, params: EncoderBlockParams, start: int = 0, sums: tuple | None = None
) -> Tensor:
    """Per-head attention on projected tokens, concatenated and re-projected.

    Keys and values come from every row of the token matrix ``x``. Queries
    come from its rows start..n-1, the tail; the output has one row per
    query row. How much of each head's map exists at once is
    ``autograd.attention``'s decision.

    With ``sums`` from ``mask_token_sums``, which needs start = n - m for
    its m rows (the queries are exactly the rows it was made from, after
    the kept tokens), a head whose entry is not None forms logits against
    the kept keys only (see ``_head_from_sums``). A head without an entry,
    or whose ``autograd._exp_sums`` refuses its queries against the kept
    keys, runs ``autograd.attention``; both exponentiate unshifted only if
    the queries they compute bound their logits within autograd's safe
    bound.
    """
    cfg = params.config
    if x.shape[1] != cfg.d_model:
        raise ShapeError(f"multi_head_attention: token width {x.shape[1]} != d_model {cfg.d_model}")
    queries = ag.gather_rows(x, range(start, x.shape[0])) if start else x
    heads = []
    for h in range(cfg.n_heads):
        head = None
        if sums is not None and sums[h] is not None:
            head = _head_from_sums(x, queries, params, h, sums[h])
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


def mask_token_sums(tokens: np.ndarray, params: EncoderBlockParams) -> tuple:
    """One block's attention among its last input rows ``tokens``, which no image changes.

    In a one-block decoder these are the mask tokens: the mask token plus
    each masked patch's positional encoding, after the kept tokens, and
    the block's only queries. Per head, the tuple holds None where
    ``autograd._exp_sums`` refuses, else, for each mask-token query i,
    s_i = sum_j exp(qs_i . k_j) and u_i = sum_j exp(qs_i . k_j) v_j over
    the mask-token keys (qs the scaled queries), as ``_exp_sums`` returns
    them: masked rows x (d_head + 1) read-only floats, formed in row blocks
    at the cost of the mask-token-by-mask-token part of the map once.
    """
    normed = ag.layer_norm(Tensor(tokens), params.ln1_gain, params.ln1_bias)
    heads = []
    for h in range(params.config.n_heads):
        k = ag.matmul(normed, params.wk[h]).data
        v = ag.matmul(normed, params.wv[h]).data
        sums = ag._exp_sums(_scaled_queries(normed, params.wq[h]), k, v)
        for a in sums or ():
            a.flags.writeable = False
        heads.append(sums)
    return tuple(heads)


def _head_from_sums(x: Tensor, queries: Tensor, params: EncoderBlockParams, h: int,
                    table) -> Tensor | None:
    """Head h's output for ``queries``, ``x``'s last m rows, with ``table``; None if refused.

    ``table`` is head h's entry of ``mask_token_sums`` for those m rows,
    the queries' sums over their own keys. ``x`` holds the kept tokens'
    rows first, so the kept keys come from the view ``x[:n - m]``; one
    ``autograd._exp_sums`` call forms the queries' sums over them, and the
    output is (u_table + u_kept) * 1 / (s_table + s_kept). When that call
    refuses the queries, it returns None. Values that float32 weights give
    cannot overflow the sums.
    """
    s_m, u_m = table
    kept = Tensor(x.data[: x.shape[0] - len(s_m)])
    qs = _scaled_queries(queries, params.wq[h])
    sums = ag._exp_sums(qs, ag.matmul(kept, params.wk[h]).data, ag.matmul(kept, params.wv[h]).data)
    if sums is None:
        return None
    s, u = sums
    s += s_m
    u += u_m
    u *= 1.0 / s[:, None]
    return Tensor(u)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    hidden = ag.gelu(ag.affine(x, params.w1, params.b1))
    return ag.affine(hidden, params.w2, params.b2)


def encoder_block(x: TokenSequence, params: EncoderBlockParams, start: int = 0,
                  sums: tuple | None = None) -> TokenSequence:
    """Pre-norm residual block; positions enter only as PE rows in the tokens.

    The output holds the block's result at token rows start..n-1, the
    tail: every token still supplies keys and values, while the queries,
    the residual, the second norm and the feed-forward cover only the
    tail, even a single row. The package runs each block at start 0 but
    the decoder's last, which runs from the first mask token. Each output
    row equals the same row of the block's output at start 0, bit for
    bit, where the logit bound of the tail's queries and that of every
    query fall on the same side of autograd's safe bound of 512 (each
    head bounds only the queries it computes, so one run may shift its
    logits where the other does not), and where BLAS rounds a row of a
    product the same whatever the other rows are (``autograd`` keeps
    one-row products on gemm). OpenBLAS does not in two cases. First, when
    one product has at most 10^6 multiply-adds and a long inner dimension
    and the other more: its small-matrix kernel sums that dimension in one
    pass, its blocked kernel in parts. Second, when the output width is
    not a multiple of 4 and the inner dimension is 64 or more: gemm then
    rounds a row by its position in the product, as in p·V with a decoder
    ``d_head`` of 2 over 300 keys, or a head of width 9. Attention forms
    its map in row blocks of one height in both runs, bar the last,
    tracked or not (see ``autograd.attention``), not in one product whose
    size follows ``start``.

    ``sums``, for untracked weights and tokens only, is the block's
    ``mask_token_sums`` for its last m tokens, used only with
    start = n - m; ``multi_head_attention`` uses it.
    """
    normed = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
    residual = ag.gather_rows(x.tokens, range(start, x.tokens.shape[0])) if start else x.tokens
    mid = ag.add(residual, multi_head_attention(normed, params, start, sums))
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
