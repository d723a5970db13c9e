"""Tensor engine: forward values against closed forms, gradients against
central finite differences."""

import contextlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import autograd as ag
from maecodec import mae
from maecodec.autograd import Tensor
from maecodec.dataset import synthetic_image
from maecodec.errors import ContractError, NumericError, ShapeError
from maecodec.masking import generate_mask, patchify

from conftest import assert_grads_close, total
from test_mae import _golden_decode_cases


def t(data, grad=True):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=grad)


def test_tensor_keeps_a_float64_array_it_is_given():
    a = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(Tensor(a).data, a)
    ints = np.arange(6).reshape(2, 3)
    converted = Tensor(ints).data
    assert converted.dtype == np.float64 and not np.shares_memory(converted, ints)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_of_any_one_element_tensor(shape):
    value = Tensor(np.full(shape, 3.5)).item()
    assert value == 3.5 and type(value) is float
    with pytest.raises(ContractError):
        Tensor(np.zeros((*shape, 2))).item()


# -- forward values ---------------------------------------------------------


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(a, t(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])


# At output widths that are multiples of 4, OpenBLAS's gemm rounds a row the
# same whatever the other rows are; so must a one-row matmul.
@pytest.mark.parametrize(
    "inner,width", [(8, 16), (13, 4), (64, 8), (100, 32), (257, 64), (300, 16)]
)
def test_matmul_of_one_row_equals_that_row_among_others(inner, width):
    rng = np.random.default_rng(inner)
    a, b = rng.normal(size=(6, inner)), rng.normal(size=(inner, width))
    full = ag.matmul(Tensor(a), Tensor(b)).data
    for i in range(a.shape[0]):
        assert np.array_equal(ag.matmul(Tensor(a[i : i + 1]), Tensor(b)).data, full[i : i + 1])


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


def test_softmax_rows_matches_reference_bitwise():
    # the textbook out-of-place formula, evaluated with the same float ops
    def reference(x):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e * (1.0 / e.sum(axis=1, keepdims=True))

    rng = np.random.default_rng(7)
    for shape in [(1, 1), (7, 13), (300, 300)]:
        x = rng.normal(size=shape) * 10.0
        x += rng.choice([0.0, 1e3, -1e4, 1e6], size=(shape[0], 1))
        out = ag.softmax_rows(Tensor(x))
        assert np.array_equal(out.data, reference(x))


def test_softmax_rows_in_place_matches_a_fresh_output_bitwise():
    rng = np.random.default_rng(8)
    for shape in [(1, 1), (7, 13), (300, 300)]:
        x = rng.normal(size=shape) * 10.0
        expected = ag.softmax_rows(Tensor(x)).data
        a = Tensor(x.copy())
        out = ag.softmax_rows(a, out=a.data)
        assert out.data is a.data and np.array_equal(out.data, expected)
        other = np.empty(shape)
        assert ag.softmax_rows(Tensor(x), out=other).data is other
        assert np.array_equal(other, expected)


def test_softmax_rows_in_place_rejects_non_finite_input():
    for bad in (float("nan"), float("inf"), -float("inf")):
        a = Tensor(np.array([[0.0, 1.0], [2.0, bad]]))
        with pytest.raises(NumericError):
            ag.softmax_rows(a, out=a.data)


def test_bounded_softmax_rows_is_within_4_ulp_of_a_longdouble_softmax():
    # the reference means something only where longdouble is wider than float64
    assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
    rng = np.random.default_rng(9)
    for scale in (1.0, 10.0, 100.0, 500.0, ag._EXP_SAFE):
        x = rng.uniform(-scale, scale, size=(64, 300))
        x[0, :2] = -scale, scale
        y = ag.softmax_rows(Tensor(x), bound=scale).data
        e = np.exp(x.astype(np.longdouble))
        reference = e / e.sum(axis=1, keepdims=True)
        ulps = np.abs(y - reference) / np.spacing(reference.astype(np.float64))
        assert ulps.max() <= 4, (scale, ulps.max())


def _record_numpy_calls(monkeypatch):
    """Make autograd's numpy record the name of every function it calls."""
    calls = []

    class Recorder:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, type):
                return attr

            def call(*args, **kwargs):
                calls.append(name)
                return attr(*args, **kwargs)

            return call

    monkeypatch.setattr(ag, "np", Recorder())
    return calls


def test_softmax_rows_skips_the_shift_exactly_up_to_its_safe_bound(monkeypatch):
    x = np.random.default_rng(10).uniform(-500.0, 500.0, size=(5, 9))
    calls = _record_numpy_calls(monkeypatch)
    for bound, shifted in ((ag._EXP_SAFE, False), (np.nextafter(ag._EXP_SAFE, np.inf), True)):
        calls.clear()
        y = ag.softmax_rows(Tensor(x), bound=bound).data
        assert ("subtract" in calls) == shifted and calls.count("exp") == 1, calls
        e = np.exp(x - x.max(axis=1, keepdims=True) if shifted else x)
        assert np.array_equal(y, e * (1.0 / e.sum(axis=1, keepdims=True)))


def _attention_chain(q, kt, v):
    """attention as an op chain, its softmax given the fused op's logit bound."""
    qs = ag.mul(q, 1.0 / math.sqrt(q.shape[1]))
    bound = ag._logit_bound(qs.data, np.ascontiguousarray(kt.data.T))
    return ag.matmul(ag.softmax_rows(ag.matmul(qs, kt), bound=bound), v)


def _assert_attention_matches_op_chain(n_q, n_k, d, d_v, scale):
    """Assert attention equals the op chain bit for bit, gradients too; return the logit bound."""
    rng = np.random.default_rng(n_q * 1000 + n_k)
    arrays = [rng.normal(size=(n_q, d)) * scale, rng.normal(size=(n_k, d)) * scale,
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
    return ag._logit_bound(arrays[0] * (1.0 / math.sqrt(d)), arrays[1])


@pytest.mark.parametrize(
    "n_q,n_k,d,d_v",
    [(1, 1, 1, 1), (1, 6, 4, 3), (5, 1, 2, 2), (6, 3, 8, 5), (9, 9, 16, 4),
     (40, 33, 4, 8), (300, 257, 8, 8), (3, 70000, 2, 2),
     # a tracked map whose last block is one row
     (219, 300, 4, 4)],
)
def test_attention_matches_op_chain_bitwise(n_q, n_k, d, d_v):
    # logits this small are exponentiated unshifted
    assert _assert_attention_matches_op_chain(n_q, n_k, d, d_v, 3.0) <= ag._EXP_SAFE


@pytest.mark.parametrize("n_q,n_k,d,d_v", [(1, 6, 4, 3), (40, 33, 4, 8), (219, 300, 4, 4)])
def test_attention_past_the_logit_bound_matches_op_chain_bitwise(n_q, n_k, d, d_v):
    # logits of a few hundred, whose bound takes the shifted path
    assert _assert_attention_matches_op_chain(n_q, n_k, d, d_v, 30.0) > ag._EXP_SAFE


@pytest.mark.parametrize(
    "n_q,n_k,d,d_v",
    [(1, 1, 1, 1), (6, 3, 8, 5), (40, 33, 4, 8),
     # a block of 218 rows and a lone row, a block of its own computed as
     # two copies of that row
     (219, 300, 4, 4),
     (300, 257, 8, 8), (506, 506, 32, 32), (1030, 1536, 8, 8), (1536, 1536, 16, 16),
     # 70000 keys leave one row per block
     (3, 70000, 2, 2)],
)
def test_untracked_attention_matches_tracked(n_q, n_k, d, d_v):
    rng = np.random.default_rng(n_q * 1000 + n_k)
    arrays = [rng.normal(size=(n_q, d)) * 3, rng.normal(size=(n_k, d)) * 3,
              rng.normal(size=(n_k, d_v))]
    tracked = ag.attention(*(Tensor(a, requires_grad=True) for a in arrays))
    untracked = ag.attention(*(Tensor(a) for a in arrays))
    assert not untracked.requires_grad and untracked._grad_fn is None
    assert np.array_equal(untracked.data, tracked.data)


def test_attention_rejects_non_finite_logits():
    # 1 and 2 query rows, and 300 rows whose map spans two blocks of 218
    # and 82 rows; inf in q, finite q whose logits overflow, or a row whose
    # logits alternate -inf and a finite value, which only the map's
    # minimum shows: q[bad_row] = (1, -1e300) against keys (1, 1e300), (1, 1)
    overflow = np.full((300, 2), 1e300)
    alternating = np.ones((300, 2))
    alternating[::2, 1] = 1e300
    for n_q, bad_row in ((1, 0), (2, 1), (300, 250)):
        for bad, k in ((float("inf"), overflow), (1e300, overflow), (-1e300, alternating)):
            for tracked in (False, True):
                q = np.ones((n_q, 2))
                q[bad_row, 1] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericError):
                        ag.attention(Tensor(q, requires_grad=tracked), Tensor(k),
                                     Tensor(np.ones((300, 1))))


def test_attention_rejects_non_finite_keys():
    # a NaN or inf key entry makes the logit bound NaN or inf, so the
    # shifted path runs and finds the non-finite logits it forms
    for n_q in (1, 2, 300):
        for bad in (float("nan"), float("inf"), -float("inf")):
            for tracked in (False, True):
                k = np.ones((300, 2))
                k[250, 1] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericError):
                        ag.attention(Tensor(np.ones((n_q, 2))), Tensor(k, requires_grad=tracked),
                                     Tensor(np.ones((300, 1))))


def test_attention_of_no_queries_is_an_empty_output():
    for tracked in (False, True):
        q = Tensor(np.zeros((0, 4)), requires_grad=tracked)
        out = ag.attention(q, Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5))))
        assert out.shape == (0, 5)


# (queries, keys) on both sides of the row-buffer threshold and of numpy's
# 8192-element default buffer; 70000 keys leave one row per block
_BUFFER_CASES = [(100, 64), (60, 255), (60, 256), (40, 506), (30, 1024), (50, 1536),
                 (10, 8191), (10, 8192), (3, 70000)]
_NUMPY_BUFFER = 8192


def _buffer_arrays(n_q, n_k):
    rng = np.random.default_rng(n_k)
    return [rng.normal(size=(n_q, 4)) * 3, rng.normal(size=(n_k, 4)) * 3,
            rng.normal(size=(n_k, 4))]


def _attention_with_grads(arrays, tracked):
    """Attention's output, and when tracked its q, k and v gradients too."""
    q, k, v = (Tensor(a, requires_grad=tracked) for a in arrays)
    out = ag.attention(q, k, v)
    if not tracked:
        return [out.data]
    ag.backward(total(ag.mul(out, Tensor(np.cos(out.data)))))
    return [out.data, q.grad, k.grad, v.grad]


def _record_buffers(monkeypatch):
    """Make softmax_rows and _softmax_grad record numpy's buffer size as they run."""
    seen = {"softmax_rows": [], "_softmax_grad": []}
    for name, sizes in seen.items():
        def wrapper(*args, _original=getattr(ag, name), _sizes=sizes, **kwargs):
            _sizes.append(np.getbufsize())
            return _original(*args, **kwargs)

        monkeypatch.setattr(ag, name, wrapper)
    return seen


@pytest.mark.parametrize("n_q,n_k", _BUFFER_CASES)
def test_attention_row_buffer_changes_no_bit(n_q, n_k, monkeypatch):
    arrays = _buffer_arrays(n_q, n_k)
    seen = _record_buffers(monkeypatch)
    shipped = [_attention_with_grads(arrays, tracked) for tracked in (False, True)]
    shipped_sizes = set(seen["softmax_rows"] + seen["_softmax_grad"])
    cut = ag._ROW_BUFFER_MIN <= n_k < _NUMPY_BUFFER
    seen["softmax_rows"].clear()
    seen["_softmax_grad"].clear()
    monkeypatch.setattr(ag, "_ROW_BUFFER_MIN", sys.maxsize)
    default = [_attention_with_grads(arrays, tracked) for tracked in (False, True)]
    # the comparison means something: where the rule cuts the buffer, the
    # shipped runs used another buffer than the default ones
    assert (shipped_sizes != set(seen["softmax_rows"] + seen["_softmax_grad"])) == cut
    for shipped_run, default_run in zip(shipped, default):
        for name, a, b in zip(("out", "q", "k", "v"), shipped_run, default_run):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("n_q,n_k", _BUFFER_CASES)
def test_attention_cuts_the_buffer_to_one_row_from_the_threshold(n_q, n_k, monkeypatch):
    seen = _record_buffers(monkeypatch)
    for tracked in (False, True):
        _attention_with_grads(_buffer_arrays(n_q, n_k), tracked)
    # from 256 keys on, at most one row and a multiple of 16, as numpy requires
    expected = _NUMPY_BUFFER if n_k < 256 else min(_NUMPY_BUFFER, 16 * (n_k // 16))
    assert len(seen["softmax_rows"]) >= 2 and len(seen["_softmax_grad"]) == 1
    assert set(seen["softmax_rows"]) == set(seen["_softmax_grad"]) == {expected}


@pytest.mark.parametrize("caller_buffer", [None, 4096])
def test_attention_restores_the_callers_buffer_and_error_state(caller_buffer):
    arrays = _buffer_arrays(40, 506)
    bad_maps = []
    for bad in (float("inf"), 1e300):  # inf in q, or finite q whose logits overflow
        q = np.ones((300, 2))
        q[250, 1] = bad
        bad_maps.append((q, np.full((300, 2), 1e300), np.ones((300, 1))))
    scope = contextlib.nullcontext() if caller_buffer is None else np.errstate(divide="raise")
    with scope:
        if caller_buffer is not None:
            np.setbufsize(caller_buffer)
        state = (np.getbufsize(), np.geterr())
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out = ag.attention(q, k, v)
        assert (np.getbufsize(), np.geterr()) == state
        ag.backward(total(out))
        assert (np.getbufsize(), np.geterr()) == state
        for bad_map in bad_maps:
            for tracked in (False, True):
                with pytest.raises(NumericError):
                    ag.attention(*(Tensor(a, requires_grad=tracked) for a in bad_map))
                assert (np.getbufsize(), np.geterr()) == state


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


def _layer_norm_reference(x, gain, bias, g):
    """Output and x, gain, bias gradients for upstream g, in the np.mean/np.var form."""
    mean = x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + ag._LN_EPS)
    xhat = (x - mean) * inv
    dxhat = g * gain
    dx = (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    ) * inv
    return xhat * gain + bias, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _bits(a):
    return np.asarray(a).shape, np.asarray(a).tobytes()


@pytest.mark.parametrize("rows", [1, 300])
@pytest.mark.parametrize("width", [1, 2, 3, 16, 32, 48, 64])
def test_layer_norm_matches_the_mean_var_formulation_bitwise(rows, width):
    rng = np.random.default_rng(100 * rows + width)
    x = rng.normal(size=(rows, width)) * 5.0 + rng.normal(size=(rows, 1)) * 100.0
    gain, bias = rng.normal(size=width), rng.normal(size=width)
    g = rng.normal(size=(rows, width))
    params = [Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias)]
    out = ag.layer_norm(*params)
    out._grad_fn(g)
    expected = _layer_norm_reference(x, gain, bias, g)
    assert _bits(out.data) == _bits(expected[0])
    for p, grad in zip(params, expected[1:]):
        # a first gradient is zeros + grad, as the sweep has always stored it
        assert _bits(p.grad) == _bits(np.zeros_like(grad) + grad)


def test_gelu_fixed_points():
    out = ag.gelu(t([0.0, 10.0, -10.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-6
    assert abs(out.data[2]) < 1e-6


def test_gelu_matches_the_pow_cube_formula_within_2_ulp():
    """gelu cubes with two multiplies; the x**3 formula agrees to 2 ulp of |x|.

    Ulps are of |x|, which bounds |gelu(x)|, not of the output itself: for
    x below about -2, 1 + tanh cancels, and the one-ulp change in tanh that
    a last-bit change in the cube can cause is tens of ulps of the output.
    """
    x = np.random.default_rng(21).standard_normal(100_000)
    formula = 0.5 * x * (1.0 + np.tanh(ag._GELU_C * (x + ag._GELU_A * x**3)))
    out = ag.gelu(Tensor(x)).data
    assert np.all(np.abs(out - formula) <= 2 * np.spacing(np.abs(x)))
    assert np.any(out != formula)  # the two cubes do differ on this sample


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


# -- the sweep before leaves were skipped, as an oracle --------------------------


def _oracle_accumulate(t, g):
    """A first gradient as zeros, then every gradient added in place."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _oracle_linearize(root):
    """Topological order of every tensor below root, leaves included."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _oracle_backward(loss):
    """The backward sweep over every tensor, ops accumulating with _oracle_accumulate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ag, "_accumulate", _oracle_accumulate)
        order = _oracle_linearize(loss)
        _oracle_accumulate(loss, np.ones_like(loss.data))
        for node in reversed(order):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)


def _forward_loss_case(cfg, image, ratio, seed, upstream):
    """A function making forward_loss on image's patches times upstream, and the parameters."""

    def build():
        model = mae.init_model(cfg, seed=seed)
        patches, grid = patchify(image, cfg.patch_size)
        spec = generate_mask(seed, grid.n_patches, ratio)
        return ag.mul(mae.forward_loss(model, patches, spec), upstream), model.parameters()

    return build


def _shared_add_operand_case(swap):
    """add(y, y), whose gradient array the outer add also hands to the leaf q.

    Were that array stored as both y's and q's first gradient, y's second
    gradient would add into q's too.
    """

    def build():
        rng = np.random.default_rng(int(swap))
        p, q = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        y = ag.gelu(p)
        twice = ag.add(y, y)
        s = ag.add(q, twice) if swap else ag.add(twice, q)
        return ag.mean_all(ag.mul(s, s)), [p, q]

    return build


def _negative_zero_upstream_case():
    """An upstream gradient of -0.0, which leaves receive directly: stored, it is +0.0."""

    def build():
        rng = np.random.default_rng(5)
        p, q = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        return ag.mul(ag.mean_all(ag.add(p, ag.mul(q, q))), -0.0), [p, q]

    return build


def _oracle_cases():
    train_toy32 = mae.TMAEConfig(
        patch_size=4, channels=1, enc_d_model=32, enc_depth=2, enc_heads=2,
        enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
    )
    crop = synthetic_image(np.random.default_rng(32), 32, 1)
    yield "train_toy32", _forward_loss_case(train_toy32, crop, 0.65, 3, 1.0 / 8)
    yield "train_toy32, upstream -0.0", _forward_loss_case(train_toy32, crop, 0.65, 3, -0.0)
    for seed, (cfg, image, ratio) in enumerate(_golden_decode_cases()):
        yield f"golden decode case {seed}", _forward_loss_case(cfg, image, ratio, seed, 1.0)
    yield "shared add operand", _shared_add_operand_case(False)
    yield "shared add operand, swapped", _shared_add_operand_case(True)
    yield "upstream -0.0", _negative_zero_upstream_case()


def test_backward_matches_the_sweep_over_every_tensor_bitwise():
    """Skipping leaves and copying first gradients leave every parameter gradient's bits."""
    for name, build in _oracle_cases():
        grads = []
        for sweep in (ag.backward, _oracle_backward):
            loss, params = build()
            sweep(loss)
            grads.append([p.grad for p in params])
        assert all(g is not None for g in grads[0]), name
        assert [_bits(g) for g in grads[0]] == [_bits(g) for g in grads[1]], name


@pytest.mark.parametrize("n,d_in,d_out", [(1, 3, 4), (5, 8, 2), (40, 16, 32)])
def test_affine_matches_matmul_then_add_bitwise(n, d_in, d_out):
    rng = np.random.default_rng(n * 100 + d_in)
    arrays = [rng.normal(size=(n, d_in)), rng.normal(size=(d_in, d_out)), rng.normal(size=d_out)]
    up = Tensor(rng.normal(size=(n, d_out)))
    fused = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    chain = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out_f = ag.affine(*fused)
    out_c = ag.add(ag.matmul(chain[0], chain[1]), ag.tile_rows(chain[2], n))
    assert np.array_equal(out_f.data, out_c.data)
    ag.backward(total(ag.mul(out_f, up)))
    ag.backward(total(ag.mul(out_c, up)))
    for name, a, b in zip("xwb", fused, chain):
        assert np.array_equal(a.grad, b.grad), name


@pytest.mark.parametrize("d_out", [64, 255, 256, 768, 1000])
def test_affine_row_buffer_changes_no_bit(d_out, monkeypatch):
    rng = np.random.default_rng(d_out)
    x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((1030, 16), (16, d_out), (d_out,)))
    plain = ag._product(x.data, w.data)
    plain += b.data
    widths = []
    row_buffer = ag._row_buffer

    def recording(n_keys):
        widths.append(n_keys)
        return row_buffer(n_keys)

    monkeypatch.setattr(ag, "_row_buffer", recording)
    buffer = np.getbufsize()
    out = ag.affine(x, w, b)
    # from 256 columns on, the bias goes in under a one-row buffer; below, the
    # context manager is not entered at all
    assert widths == ([d_out] if d_out >= ag._ROW_BUFFER_MIN else [])
    assert np.getbufsize() == buffer
    assert np.array_equal(out.data, plain)


def test_affine_shape_errors():
    with pytest.raises(ShapeError):
        ag.affine(t(np.ones((2, 3))), t(np.ones((2, 2))), t(np.ones(2)))
    with pytest.raises(ShapeError):
        ag.affine(t(np.ones((2, 3))), t(np.ones((3, 2))), t(np.ones(3)))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.add(t(np.ones((2, 3))), t(np.ones((3, 2))))


def test_sub_requires_equal_shapes():
    with pytest.raises(ShapeError):
        ag.sub(t(np.ones((3, 2))), t([1.0, 2.0]))


def test_gather_rows_out_of_range():
    with pytest.raises(ContractError):
        ag.gather_rows(t(np.ones((2, 2))), [2])


def test_gather_concat_round_trip():
    """Rows split by two gathers, joined by concat and gathered back by the inverse order."""
    x = t(np.arange(12.0).reshape(4, 3))
    order = [2, 0, 1, 3]
    joined = ag.concat([ag.gather_rows(x, order[:2]), ag.gather_rows(x, order[2:])], 0)
    np.testing.assert_array_equal(ag.gather_rows(joined, np.argsort(order)).data, x.data)


@pytest.mark.parametrize(
    "axis,b_shape,joined", [(0, (3, 2), (5, 2)), (1, (2, 3), (2, 5))], ids=["rows", "cols"]
)
def test_concat_joins_parts_along_its_axis(axis, b_shape, joined):
    a, b = t(np.ones((2, 2))), t(np.full(b_shape, 2.0))
    merged = ag.concat([a, b], axis)
    assert merged.shape == joined
    first = merged.data[:2] if axis == 0 else merged.data[:, :2]
    rest = merged.data[2:] if axis == 0 else merged.data[:, 2:]
    np.testing.assert_array_equal(first, a.data)
    np.testing.assert_array_equal(rest, b.data)


def test_concat_refuses_mismatched_parts():
    with pytest.raises(ContractError):
        ag.concat([], 0)
    with pytest.raises(ContractError):
        ag.concat([t(np.ones((2, 2)))], 2)
    for axis in (0, 1):
        with pytest.raises(ShapeError):
            ag.concat([t(np.ones((2, 3))), t(np.ones((3, 4)))], axis)
    with pytest.raises(ShapeError):
        ag.concat([t(np.ones(3)), t(np.ones((1, 3)))], 0)


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


def test_grad_affine():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    assert_grads_close(lambda: total(ag.mul(ag.affine(x, w, b), ag.affine(x, w, b))),
                       [("x", x), ("w", w), ("b", b)])


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


def test_grad_gather_concat_tile():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=3), requires_grad=True)

    def loss():
        # decode_full's layout: picked rows, then a tiled vector, then a reorder
        y = ag.concat([ag.gather_rows(x, [4, 0, 2]), ag.tile_rows(v, 3)], 0)
        y = ag.gather_rows(y, [3, 0, 4, 1, 5, 2])
        return total(ag.mul(y, y))

    assert_grads_close(loss, [("x", x), ("v", v)])


@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "cols"])
def test_grad_concat(axis):
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3) if axis == 1 else (3, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4) if axis == 1 else (2, 4)))

    def loss():
        merged = ag.concat([a, b], axis)
        return total(ag.mul(ag.matmul(merged, w), ag.matmul(merged, w)))

    assert_grads_close(loss, [("a", a), ("b", b)])


# -- properties --------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_softmax_rows_stochastic_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    out = ag.softmax_rows(Tensor(rng.normal(size=(rows, cols)) * 20.0))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(rows), atol=1e-9)
    assert (out.data >= 0).all() and (out.data <= 1).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_add_mul_grads_match_fd_property(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert_grads_close(
        lambda: total(ag.mul(ag.add(a, b), ag.sub(a, b))), [("a", a), ("b", b)]
    )
