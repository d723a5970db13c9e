"""Attention stack: closed-form cases, staged numpy oracles, equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import autograd as ag
from maecodec import transformer as tf
from maecodec.autograd import Tensor
from maecodec.errors import ContractError, ShapeError

from conftest import assert_grads_close, total


def _np_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_mha(x, params):
    heads = []
    for h in range(params.config.n_heads):
        q = x @ params.wq[h].data
        k = x @ params.wk[h].data
        v = x @ params.wv[h].data
        attn = _np_softmax_rows(q @ k.T / np.sqrt(q.shape[1]))
        heads.append(attn @ v)
    return np.concatenate(heads, axis=1) @ params.wo.data + params.bo.data


def _np_block(x, params):
    mid = x + _np_mha(_np_layer_norm(x, params.ln1_gain.data, params.ln1_bias.data), params)
    h = _np_layer_norm(mid, params.ln2_gain.data, params.ln2_bias.data)
    u = h @ params.w1.data + params.b1.data
    t = np.tanh(0.7978845608 * (u + 0.044715 * u**3))
    ffn = (0.5 * u * (1.0 + t)) @ params.w2.data + params.b2.data
    return mid + ffn


def _random_block(cfg, d_ff, seed):
    return _recorded_block(cfg, d_ff, seed)[0]


def _recorded_block(cfg, d_ff, seed):
    """A random block and its weights by name, in the order the builder made them."""
    make, named = tf.recording(tf.random_maker(np.random.default_rng(seed)))
    return tf.build_encoder_block(cfg, d_ff, make), named


# -- configs and sequences ----------------------------------------------------


def test_attention_config_head_split():
    cfg = tf.AttentionConfig(12, 3)
    assert cfg.d_head == 4


def test_attention_config_rejects_bad_split():
    with pytest.raises(ContractError):
        tf.AttentionConfig(10, 3)


# -- positional encoding -------------------------------------------------------


def test_positional_encoding_row_zero():
    pe = tf.positional_encoding(range(3), 8).data
    np.testing.assert_array_equal(pe[0, 0::2], np.zeros(4))
    np.testing.assert_array_equal(pe[0, 1::2], np.ones(4))


def test_positional_encoding_in_range():
    pe = tf.positional_encoding(range(50), 16).data
    assert (pe >= -1).all() and (pe <= 1).all()


def test_positional_encoding_closed_form():
    d = 16
    pe = tf.positional_encoding(range(5), d).data
    for pos in range(5):
        for i in range(d // 2):
            angle = pos / 10000 ** (2 * i / d)
            assert abs(pe[pos, 2 * i] - np.sin(angle)) < 1e-12
            assert abs(pe[pos, 2 * i + 1] - np.cos(angle)) < 1e-12


def test_positional_encoding_distinguishes_positions():
    pe = tf.positional_encoding(range(3), 16).data
    assert np.abs(pe[1] - pe[2]).max() > 1e-3


def test_positional_encoding_rejects_odd_width():
    with pytest.raises(ContractError):
        tf.positional_encoding(range(4), 7)


def test_positional_rows_match_table():
    """Rows for a set of positions equal the full table's rows, bit for bit."""
    table = tf.positional_encoding(range(9), 8).data
    rows = tf.positional_encoding([8, 2, 5], 8).data
    np.testing.assert_array_equal(rows, table[[8, 2, 5]])
    rng = np.random.default_rng(0)
    for d, n in [(16, 64), (32, 1536), (64, 4096)]:
        keep = rng.permutation(n)[: n // 3]
        table = tf.positional_encoding(range(n), d).data
        np.testing.assert_array_equal(tf.positional_encoding(keep, d).data, table[keep])


def test_positional_encoding_rejects_non_1d_positions():
    with pytest.raises(ShapeError):
        tf.positional_encoding(6, 8)
    with pytest.raises(ShapeError):
        tf.positional_encoding([[0, 1], [2, 3]], 8)


# -- scaled attention ----------------------------------------------------------


def _attention_map(q, k):
    """The attention map itself: attending over the identity as values."""
    return ag.attention(q, k, Tensor(np.eye(k.shape[0])))


def test_attention_single_key():
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 5)))
    out, attn = ag.attention(q, k, v), _attention_map(q, k)
    np.testing.assert_allclose(attn.data, np.ones((3, 1)))
    np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=0))


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(2, 4)))
    krow = rng.normal(size=4)
    k = Tensor(np.stack([krow, krow]))
    v = Tensor(rng.normal(size=(2, 3)))
    out = ag.attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)))


def test_attention_matches_formula_oracle():
    rng = np.random.default_rng(3)
    q, k = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 2))
    out = ag.attention(Tensor(q), Tensor(k), Tensor(v))
    attn = _attention_map(Tensor(q), Tensor(k))
    expect_attn = _np_softmax_rows(q @ k.T / 2.0)
    np.testing.assert_allclose(attn.data, expect_attn, atol=1e-12)
    np.testing.assert_allclose(out.data, expect_attn @ v, atol=1e-12)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        ag.attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        ag.attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        ag.attention(Tensor(np.ones((2, 3))), Tensor(np.ones((0, 3))), Tensor(np.ones((0, 2))))


# -- multi-head attention -------------------------------------------------------


def test_single_head_reduces_to_scaled_attention():
    cfg = tf.AttentionConfig(4, 1)
    params = _random_block(cfg, 8, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    out = tf.multi_head_attention(tf.TokenSequence(Tensor(x)), params)
    q, k, v = x @ params.wq[0].data, x @ params.wk[0].data, x @ params.wv[0].data
    single = ag.attention(Tensor(q), Tensor(k), Tensor(v))
    expect = single.data @ params.wo.data + params.bo.data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_two_head_staged_oracle():
    cfg = tf.AttentionConfig(4, 2)
    params = _random_block(cfg, 8, seed=6)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    out = tf.multi_head_attention(tf.TokenSequence(Tensor(x)), params)
    np.testing.assert_allclose(out.data, _np_mha(x, params), atol=1e-12)


def test_mha_permutation_equivariance():
    cfg = tf.AttentionConfig(8, 2)
    params = _random_block(cfg, 16, seed=8)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    out = tf.multi_head_attention(tf.TokenSequence(Tensor(x)), params)
    out_p = tf.multi_head_attention(tf.TokenSequence(Tensor(x[perm])), params)
    np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-9)


def test_mha_width_mismatch():
    cfg = tf.AttentionConfig(8, 2)
    params = _random_block(cfg, 16, seed=10)
    with pytest.raises(ShapeError):
        tf.multi_head_attention(tf.TokenSequence(Tensor(np.ones((3, 6)))), params)


# -- encoder block ---------------------------------------------------------------


def _zero_block(cfg, d_ff):
    params, named = _recorded_block(cfg, d_ff, seed=0)
    for _, tensor in named:
        tensor.data[...] = 0.0
    return params


def test_encoder_block_zero_weights_is_identity():
    cfg = tf.AttentionConfig(4, 2)
    params = _zero_block(cfg, 8)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4))
    out = tf.encoder_block(tf.TokenSequence(Tensor(x)), params)
    np.testing.assert_allclose(out.tokens.data, x)


def test_encoder_block_shape():
    cfg = tf.AttentionConfig(8, 4)
    params = _random_block(cfg, 16, seed=12)
    rng = np.random.default_rng(13)
    seq = tf.TokenSequence(Tensor(rng.normal(size=(5, 8))))
    out = tf.encoder_block(seq, params)
    assert out.tokens.shape == (5, 8)


def test_encoder_block_staged_oracle():
    cfg = tf.AttentionConfig(4, 2)
    params = _random_block(cfg, 8, seed=14)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 4))
    out = tf.encoder_block(tf.TokenSequence(Tensor(x)), params)
    np.testing.assert_allclose(out.tokens.data, _np_block(x, params), atol=1e-10)


def test_encoder_block_deterministic():
    cfg = tf.AttentionConfig(8, 2)
    params = _random_block(cfg, 16, seed=16)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 8))
    a = tf.encoder_block(tf.TokenSequence(Tensor(x)), params).tokens.data
    b = tf.encoder_block(tf.TokenSequence(Tensor(x)), params).tokens.data
    assert np.array_equal(a, b)


def test_block_equivariance_and_positional_breaking():
    cfg = tf.AttentionConfig(8, 2)
    params = _random_block(cfg, 16, seed=18)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(6, 8))
    perm = np.array([5, 0, 3, 1, 4, 2])

    plain = tf.encoder_block(tf.TokenSequence(Tensor(x)), params).tokens.data
    plain_p = tf.encoder_block(tf.TokenSequence(Tensor(x[perm])), params).tokens.data
    np.testing.assert_allclose(plain_p, plain[perm], atol=1e-9)

    pe = tf.positional_encoding(range(6), 8).data
    with_pe = tf.encoder_block(tf.TokenSequence(Tensor(x + pe)), params).tokens.data
    with_pe_p = tf.encoder_block(tf.TokenSequence(Tensor(x[perm] + pe)), params).tokens.data
    assert np.abs(with_pe_p - with_pe[perm]).max() > 1e-3


def test_init_rejects_narrow_ffn():
    with pytest.raises(ContractError):
        _random_block(tf.AttentionConfig(8, 2), 4, seed=0)


def test_encoder_block_gradients():
    cfg = tf.AttentionConfig(4, 2)
    params, named = _recorded_block(cfg, 6, seed=20)
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))

    def loss():
        out = tf.encoder_block(tf.TokenSequence(x), params)
        return total(ag.mul(out.tokens, w))

    assert_grads_close(loss, [("x", x)] + named)


@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([(4, 1), (4, 2), (8, 2)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_attention_row_stochastic_property(n_tokens, arch, seed):
    d_model, heads = arch
    cfg = tf.AttentionConfig(d_model, heads)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_tokens, d_model)) * 3
    q = Tensor(x @ rng.normal(size=(d_model, cfg.d_head)))
    k = Tensor(x @ rng.normal(size=(d_model, cfg.d_head)))
    attn = _attention_map(q, k)
    np.testing.assert_allclose(attn.data.sum(axis=1), np.ones(n_tokens), atol=1e-9)
