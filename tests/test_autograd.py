"""Tensor engine: forward values against closed forms, gradients against
central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import autograd as ag
from maecodec.autograd import Tensor
from maecodec.errors import ContractError, NumericError, ShapeError

from conftest import assert_grads_close, total


def t(data, grad=True):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=grad)


def test_tensor_keeps_a_float64_array_it_is_given():
    a = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(Tensor(a).data, a)
    ints = np.arange(6).reshape(2, 3)
    converted = Tensor(ints).data
    assert converted.dtype == np.float64 and not np.shares_memory(converted, ints)


# -- forward values ---------------------------------------------------------


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(a, t(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])


def test_matmul_hand_value():
    out = ag.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])


def test_matmul_zero_annihilates():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(a, t(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(t(np.ones((2, 3))), t(np.ones((2, 2))))


def test_matmul_associative_on_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        left = ag.matmul(ag.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = ag.matmul(Tensor(a), ag.matmul(Tensor(b), Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_symmetry():
    out = ag.softmax_rows(t([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_closed_form():
    # exp(ln 3) = 3, so the row splits 1:3
    out = ag.softmax_rows(t([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_large_values_stable():
    out = ag.softmax_rows(t([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        ag.softmax_rows(t([[0.0, float("nan")]]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    out = ag.softmax_rows(Tensor(rng.normal(size=(5, 7)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-9)
    assert (out.data >= 0).all() and (out.data <= 1).all()


def test_softmax_rows_matches_reference_bitwise():
    # the textbook out-of-place formula, evaluated with the same float ops
    def reference(x):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(7)
    for shape in [(1, 1), (7, 13), (300, 300)]:
        x = rng.normal(size=shape) * 10.0
        x += rng.choice([0.0, 1e3, -1e4, 1e6], size=(shape[0], 1))
        out = ag.softmax_rows(Tensor(x))
        assert np.array_equal(out.data, reference(x))


def _attention_chain(q, kt, v):
    scale = 1.0 / math.sqrt(q.shape[1])
    return ag.matmul(ag.softmax_rows(ag.mul(ag.matmul(q, kt), scale)), v)


@pytest.mark.parametrize(
    "n_q,n_k,d,d_v",
    [(1, 1, 1, 1), (1, 6, 4, 3), (5, 1, 2, 2), (6, 3, 8, 5), (9, 9, 16, 4),
     (40, 33, 4, 8), (300, 257, 8, 8), (3, 70000, 2, 2)],
)
def test_attention_matches_op_chain_bitwise(n_q, n_k, d, d_v):
    rng = np.random.default_rng(n_q * 1000 + n_k)
    arrays = [rng.normal(size=(n_q, d)) * 3, rng.normal(size=(n_k, d)) * 3,
              rng.normal(size=(n_k, d_v))]
    w = Tensor(rng.normal(size=(n_q, d_v)))
    fused = [Tensor(a, requires_grad=True) for a in arrays]
    # the chain takes K^T as a leaf of its own, one contiguous matrix
    q = Tensor(arrays[0], requires_grad=True)
    kt = Tensor(arrays[1].T.copy(), requires_grad=True)
    v = Tensor(arrays[2], requires_grad=True)
    out_f = ag.attention(*fused)
    out_c = _attention_chain(q, kt, v)
    assert np.array_equal(out_f.data, out_c.data)
    ag.backward(total(ag.mul(out_f, w)))
    ag.backward(total(ag.mul(out_c, w)))
    for name, a, b in zip("qkv", fused, (q.grad, kt.grad.T, v.grad)):
        assert np.array_equal(a.grad, b), name


def test_attention_rejects_non_finite_logits():
    q = t([[0.0, float("inf")]])
    with pytest.raises(NumericError):
        ag.attention(q, t(np.ones((3, 2))), t(np.ones((3, 1))))


def test_layer_norm_constant_row_is_zero():
    out = ag.layer_norm(t([[3.0, 3.0, 3.0]]), t(np.ones(3)), t(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-9)


def test_layer_norm_two_point_row():
    # mean 2, population variance 1, so the rows are [-1, 1] / sqrt(1 + eps)
    out = ag.layer_norm(t([[1.0, 3.0]]), t(np.ones(2)), t(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1.0 + 1e-5), atol=1e-12)


def test_layer_norm_zero_gain_broadcasts_bias():
    out = ag.layer_norm(t([[5.0, -1.0, 2.0]]), t(np.zeros(3)), t([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])


def test_layer_norm_standardizes_random_rows():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 16)) * 5 + 2)
    out = ag.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
    var = x.data.var(axis=1)
    np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(6), atol=1e-9)
    np.testing.assert_allclose(out.data.var(axis=1), var / (var + 1e-5), atol=1e-12)


def test_gelu_fixed_points():
    out = ag.gelu(t([0.0, 10.0, -10.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-6
    assert abs(out.data[2]) < 1e-6


def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3))
    ag.backward(total(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = t([1.0, 2.0, 3.0])
    ag.backward(total(ag.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_non_scalar():
    x = t(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ag.backward(ag.mul(x, 2.0))


def test_backward_rejects_untracked_loss():
    x = Tensor(np.ones(3), requires_grad=False)
    with pytest.raises(ContractError):
        ag.backward(total(x))


def test_grad_accumulates_across_backward_calls():
    x = t([2.0])
    ag.backward(total(x))
    ag.backward(total(ag.mul(x, 3.0)))
    np.testing.assert_allclose(x.grad, [4.0])


def test_diamond_graph_grad():
    # y = x*x + x: reuse of x must accumulate both paths
    x = t([3.0])
    y = ag.add(ag.mul(x, x), x)
    ag.backward(total(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_no_graph_retained_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    out = ag.matmul(a, Tensor(np.ones((2, 2))))
    assert out._grad_fn is None and out._parents == ()


def test_row_vector_bias_add():
    a = t(np.zeros((3, 2)))
    b = t([1.0, 2.0])
    out = ag.add(a, b)
    np.testing.assert_array_equal(out.data, [[1, 2]] * 3)
    ag.backward(total(out))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.add(t(np.ones((2, 3))), t(np.ones((3, 2))))


def test_sub_requires_equal_shapes():
    with pytest.raises(ShapeError):
        ag.sub(t(np.ones((3, 2))), t([1.0, 2.0]))


def test_scatter_rows_rejects_duplicates():
    with pytest.raises(ContractError):
        ag.scatter_rows(4, [1, 1], t(np.ones((2, 3))))


def test_gather_rows_out_of_range():
    with pytest.raises(ContractError):
        ag.gather_rows(t(np.ones((2, 2))), [2])


def test_gather_scatter_round_trip():
    x = t(np.arange(12.0).reshape(4, 3))
    idx = [2, 0]
    picked = ag.gather_rows(x, idx)
    placed = ag.scatter_rows(4, idx, picked)
    np.testing.assert_array_equal(placed.data[idx], x.data[idx])
    np.testing.assert_array_equal(placed.data[[1, 3]], np.zeros((2, 3)))


def test_concat_cols_places_parts_side_by_side():
    a, b = t(np.ones((2, 2))), t(np.full((2, 3), 2.0))
    merged = ag.concat_cols([a, b])
    assert merged.shape == (2, 5)
    np.testing.assert_array_equal(merged.data[:, :2], a.data)
    np.testing.assert_array_equal(merged.data[:, 2:], b.data)


# -- gradients vs finite differences ----------------------------------------


def _gradcheck_unary(op, shape, seed, **kw):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    assert_grads_close(lambda: total(op(x, **kw)), [("x", x)])


def test_grad_matmul():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    assert_grads_close(lambda: total(ag.mul(ag.matmul(a, b), ag.matmul(a, b))),
                       [("a", a), ("b", b)])


def test_grad_softmax():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    assert_grads_close(
        lambda: total(ag.mul(ag.softmax_rows(x), w)), [("x", x)]
    )


def test_grad_attention():
    rng = np.random.default_rng(8)
    q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)))
    assert_grads_close(
        lambda: total(ag.mul(ag.attention(q, k, v), w)),
        [("q", q), ("k", k), ("v", v)],
    )


def test_grad_layer_norm():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)))
    assert_grads_close(
        lambda: total(ag.mul(ag.layer_norm(x, gain, bias), w)),
        [("x", x), ("gain", gain), ("bias", bias)],
    )


def test_grad_gelu():
    _gradcheck_unary(ag.gelu, (3, 4), 7)


def test_grad_mean_all():
    _gradcheck_unary(lambda x: ag.mean_all(ag.mul(x, x)), (3, 3), 9)


def test_grad_gather_scatter_tile():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=3), requires_grad=True)

    def loss():
        picked = ag.gather_rows(x, [4, 0, 2])
        placed = ag.scatter_rows(6, [1, 3, 5], picked)
        tiled = ag.scatter_rows(6, [0, 2, 4], ag.tile_rows(v, 3))
        y = ag.add(placed, tiled)
        return total(ag.mul(y, y))

    assert_grads_close(loss, [("x", x), ("v", v)])


def test_grad_concat_cols():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)))

    def loss():
        merged = ag.concat_cols([a, b])
        return total(ag.mul(ag.matmul(merged, w), ag.matmul(merged, w)))

    assert_grads_close(loss, [("a", a), ("b", b)])


# -- properties --------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_softmax_rows_stochastic_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    out = ag.softmax_rows(Tensor(rng.normal(size=(rows, cols)) * 20.0))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(rows), atol=1e-9)
    assert (out.data >= 0).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_add_mul_grads_match_fd_property(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert_grads_close(
        lambda: total(ag.mul(ag.add(a, b), ag.sub(a, b))), [("a", a), ("b", b)]
    )
