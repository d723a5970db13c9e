"""Dense float64 arrays with reverse-mode automatic differentiation.

Just enough machinery to train a small transformer: matmul, add/sub/mul,
``affine`` (a matmul and a row bias as one op, the bias added in place to
the product), row softmax, fused scaled dot-product attention, layer norm,
GELU, the mean of all elements, row gather and tile, and row or column
concatenation. ``softmax_rows`` can write its result into a given array,
its own input included: attention's one loop over row blocks normalizes
each block in place. Attention scales its queries by 1/sqrt(d) before the
loop, and softmax_rows multiplies each row by the reciprocal of its sum,
so no pass over the map scales or divides it. Every op is a plain
function; ``Tensor`` has no operator overloads. There is deliberately no
broadcasting beyond ``affine``'s row bias and scaling by a number; every
other shape mismatch is an error, which keeps the gradient rules small and
auditable. A vector reaches every row of a matrix elsewhere through
``tile_rows``.

Attention also bounds its logits once per call, before the loop: by
Cauchy-Schwarz, the largest row norm of the scaled queries times the
largest row norm of the keys caps every |logit|. When that bound is at
most ``_EXP_SAFE`` = 512, softmax_rows exponentiates each block as it is,
with no row maximum, minimum or subtraction pass. exp(512) times 2^22 keys
is about 1e229, so no row sum overflows, and exp(-512), about 4e-223, is a
normal float64, so no entry loses relative precision; the bound's own
rounding error is a few ULP, far inside the margin up to exp's overflow
at 709.78. The unshifted path is also the more accurate one: against a
longdouble softmax of the same float64 logits it stayed within 4 ULP at
every scale up to 512, while the max-shifted path reached 129 ULP at
|logits| near 100 and 514 near 500, because its subtraction rounds before
exp amplifies that error. Any other bound (NaN or inf from a non-finite
q or k, finite q and k whose logits could overflow, or the default inf of
a standalone call) takes the shifted path, which refuses non-finite
logits with NumericError. ``_exp_sums`` applies the same rule to the
queries and keys it is given: within the bound it returns each query row's
unshifted sums of exp(logit) and of exp(logit)-weighted values, which add
over disjoint key sets (``mae``'s mask-token memo relies on that), and past
it None. The bound covers only the queries a call computes, so rows
computed alone can equal the same rows computed among all, bit for bit,
only where both bounds fall on the same side of ``_EXP_SAFE``.

Attention runs its softmax passes, forward and backward, with numpy's ufunc
buffer cut to at most one map row once a row holds ``_ROW_BUFFER_MIN`` keys
or more, and ``affine`` adds its row bias so from that many columns on.
numpy copies a broadcast operand (a ``(rows, 1)`` column or a bias row)
through that buffer whenever a row is shorter than it, so the default
8192-element buffer makes the in-place ``y *= 1 / row_sum``,
``y * (g - dot)``, ``y += bias`` and the shifted path's ``x - row_max``
spend most of their time copying: at 42 x 1536 the reciprocal multiply
took 36 µs with the default buffer and 14 µs with one row's, and the bias
on a 1030 x 768 head output 541 against 322 µs (numpy 2.4, 2 cores).
Elementwise IEEE operations and numpy's contiguous row reductions do not
depend on how numpy chunks them, so the bits are the same. Shorter rows
keep the default, which is faster for them (1024 x 64: 54 against 98 µs),
and the setting never leaves those two ops, since other passes,
``patchify``'s uint8 conversion among them, slow down as the buffer
shrinks.

Graph edges live on the output tensor (parents plus a closure that routes
the upstream gradient), so independent computations share no state and may
run on separate threads. ``backward`` skips leaves and copies first gradients.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# tanh-approximation GELU constants, pinned for portability
_GELU_C = 0.7978845608
_GELU_A = 0.044715
# layer norm's variance floor
_LN_EPS = 1e-5
# Elements in one row block of the attention map, which one softmax_rows
# call normalizes: 512 KiB of float64, so its temporaries stay in cache.
_SOFTMAX_BLOCK = 1 << 16
# Map rows of at least this many keys run attention's softmax passes with
# numpy's ufunc buffer cut to one row (see the module docstring); measured.
_ROW_BUFFER_MIN = 256
# numpy's default ufunc buffer, in elements
_DEFAULT_BUFFER = 8192
# softmax_rows exponentiates its input unshifted when a bound on every
# |entry| is at most this (see the module docstring)
_EXP_SAFE = 512.0


class Tensor:
    """A float64 array with an optional gradient.

    A float64 array passed in is kept, not copied, so the tensor shares
    its memory; anything else is converted to a new float64 array. Treat
    ``data`` as immutable once the tensor participates in a computation;
    ``grad`` is filled in (accumulated) by :func:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents, grad_fn) -> Tensor:
    """Build an op output; graph edges are recorded only when needed."""
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._grad_fn = True, tuple(parents), grad_fn
            break
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:  # zeros + g's bits in one pass; never g, which add gives two parents
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Same-shape elementwise sum."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    """Same-shape elementwise product, or scaling by a Python/numpy number."""
    if isinstance(b, (int, float, np.integer, np.floating)):
        c = float(b)
        return _result(a.data * c, (a,), lambda g: _accumulate(a, g * c))
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), back)


# -- linear algebra -------------------------------------------------------


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, with a one-row ``a`` computed as two copies of that row.

    numpy computes a one-row matrix product with gemv, which rounds
    differently from the gemm that computes the same row among others;
    two rows keep every forward product on gemm. With ``out``, the
    product is written there and ``out`` is returned.
    """
    if a.shape[0] == 1:
        row = (np.concatenate((a, a)) @ b)[:1]
        if out is None:
            return row
        out[...] = row
        return out
    return np.matmul(a, b, out=out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(_product(a.data, b.data), (a, b), back)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w plus the 1-D bias b on every row, as one op.

    The bias is added in place to the product, so the output is written
    once; from ``_ROW_BUFFER_MIN`` columns on, under a one-row ufunc buffer,
    as attention's softmax passes are. Output and gradients equal, bit for bit, those of the chain
    ``add(matmul(x, w), tile_rows(b, n))`` over x's n rows.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias shape {b.shape} for {w.shape[1]} columns")
    y = _product(x.data, w.data)
    if y.shape[1] < _ROW_BUFFER_MIN:
        y += b.data
    else:
        with _row_buffer(y.shape[1]):
            y += b.data

    def back(g):
        _accumulate(b, g.sum(axis=0))
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)

    return _result(y, (x, w, b), back)


# -- nonlinearities and normalization -------------------------------------


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient of a row softmax with output y: y * (g - sum(g * y, per row))."""
    dot = (g * y).sum(axis=1, keepdims=True)
    return y * (g - dot)


@contextlib.contextmanager
def _row_buffer(n_keys: int):
    """Run the block with numpy's ufunc buffer at most one row of n_keys.

    Rows shorter than ``_ROW_BUFFER_MIN`` keep the caller's buffer. numpy
    needs a multiple of 16; the caller's value is restored on the way out.
    """
    if n_keys < _ROW_BUFFER_MIN:
        yield
        return
    previous = np.setbufsize(min(_DEFAULT_BUFFER, 16 * (n_keys // 16)))
    try:
        yield
    finally:
        np.setbufsize(previous)


def softmax_rows(a: Tensor, out: np.ndarray | None = None, bound: float = math.inf) -> Tensor:
    """Row-wise softmax; each row is multiplied by the reciprocal of its sum.

    ``bound`` is a number that caps every |entry| of a. Up to
    ``_EXP_SAFE`` the entries are exponentiated as they are, unshifted;
    any other bound (the default inf, or NaN) takes the shifted path, which
    subtracts each row's maximum first and raises NumericError for a
    non-finite input. With ``out`` (a float64 array of a's shape, which may
    be ``a.data`` itself), the result is written there and becomes the
    output's data.
    """
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expected a matrix, got shape {a.shape}")
    if bound <= _EXP_SAFE:
        y = np.exp(a.data, out=out)
    else:
        # NaN and +inf show in the row maxima, -inf in the minimum.
        row_max = a.data.max(axis=1, keepdims=True)
        if not (np.isfinite(row_max).all() and a.data.min() > -np.inf):
            raise NumericError("softmax_rows: non-finite input")
        y = np.subtract(a.data, row_max, out=out)
        np.exp(y, out=y)
    inv = y.sum(axis=1, keepdims=True)
    np.divide(1.0, inv, out=inv)
    y *= inv
    return _result(y, (a,), lambda g: _accumulate(a, _softmax_grad(y, g)))


def _logit_bound(qs: np.ndarray, k: np.ndarray) -> float:
    """max_i |qs_i| * max_j |k_j| over Euclidean row norms.

    By Cauchy-Schwarz it caps every |qs_i . k_j|. A non-finite entry in
    either matrix makes it inf or NaN; no rows of qs make it 0. One square
    root of the product of the largest squared norms keeps the numpy calls
    few, which small maps notice; where that product overflows, the bound
    is far above ``_EXP_SAFE`` either way.
    """
    def peak(a):
        return np.einsum("ij,ij->i", a, a).max(initial=0.0)

    return math.sqrt(peak(qs) * peak(k))


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax((q / sqrt(d)) k^T) v, in one loop over row blocks of the map.

    The (queries, d) matrix q is scaled by 1/sqrt(d) once, before the loop,
    and ``_logit_bound`` of the scaled q and k is computed once and passed
    to every block's softmax_rows (see the module docstring).
    Each block of about ``_SOFTMAX_BLOCK`` map entries has its logits
    written into a map buffer, normalized there in place by softmax_rows,
    and multiplied by v straight into the output rows.
    Tracking gradients chooses only the buffer: the whole (queries, keys)
    map, which the backward pass needs, or one block buffer that every
    block reuses. So tracked and untracked output are equal bit for bit.
    Both equal the op chain
    ``matmul(softmax_rows(matmul(mul(q, s), kt), bound=b), v)`` (``kt`` is
    K^T as a contiguous matrix, ``b`` the same bound), gradients too, bit
    for bit when the map is one block; for larger maps, only where BLAS
    rounds a block's rows as it rounds them in the whole product.
    Non-finite logits raise NumericError, without a numpy warning.

    With ``_ROW_BUFFER_MIN`` keys or more, the block loop and the backward
    softmax rule run with numpy's ufunc buffer cut to one map row, which
    spares their row-broadcast passes a copy through the buffer and changes
    no bit; the caller's buffer size is restored on return or on an error.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: Q {q.shape} vs K {k.shape}")
    if k.shape[0] == 0 or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: K {k.shape} vs V {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[1])
    # scaling q rather than each block spares a pass over the map
    qs = q.data * scale
    # BLAS may round differently for a transposed operand than for a
    # contiguous one, so K^T is laid out as one contiguous matrix.
    kt = k.data.T.copy()
    m, rows = q.shape[0], max(1, _SOFTMAX_BLOCK // k.shape[0])
    tracked = q.requires_grad or k.requires_grad or v.requires_grad
    y = np.empty((m if tracked else min(rows, m), k.shape[0]))
    out = np.empty((m, v.shape[1]))
    # numpy warns as it forms a bound or logits that are or become
    # non-finite; softmax_rows refuses such logits with NumericError instead.
    with np.errstate(invalid="ignore", over="ignore"), _row_buffer(k.shape[0]):
        bound = _logit_bound(qs, k.data)
        for a in range(0, m, rows):
            block = y[a : a + rows] if tracked else y[: min(rows, m - a)]
            _product(qs[a : a + rows], kt, block)
            softmax_rows(Tensor(block), out=block, bound=bound)
            _product(block, v.data, out[a : a + rows])

    def back(g):
        # the chain's rules, in the order its backward sweep runs them
        _accumulate(v, y.T @ g)
        with _row_buffer(k.shape[0]):
            gl = _softmax_grad(y, g @ v.data.T)
        _accumulate(k, (qs.T @ gl).T)
        _accumulate(q, (gl @ kt.T) * scale)

    return _result(out, (q, k, v), back)


def _exp_sums(qs: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Per row i of qs: s_i = sum_j exp(qs_i . k_j) and u_i = sum_j exp(qs_i . k_j) v_j.

    Plain arrays in and out, no graph: the (rows,) vector s and the
    (rows, v columns) matrix u, or None unless ``_logit_bound(qs, k)`` is
    at most ``_EXP_SAFE``, the rule by which ``attention`` skips its shift.
    Within it the logits are exponentiated unshifted, so sums over two key
    sets add to the sums over their union, and u / s is attention's output
    row. Rows go in blocks of about ``_SOFTMAX_BLOCK`` logits, as in
    ``attention``, through one buffer that every block reuses, and both
    products go through ``_product``, so a one-row block stays on gemm.
    """
    # numpy warns as it forms a bound that is or becomes non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        if not _logit_bound(qs, k) <= _EXP_SAFE:
            return None
    m, n_keys = qs.shape[0], k.shape[0]
    rows = max(1, _SOFTMAX_BLOCK // max(1, n_keys))
    kt = k.T.copy()  # contiguous, as attention lays out K^T
    s, u = np.empty(m), np.empty((m, v.shape[1]))
    e = np.empty((min(rows, m), n_keys))
    for a in range(0, m, rows):
        block = e[: min(rows, m - a)]
        _product(qs[a : a + rows], kt, block)
        np.exp(block, out=block)
        block.sum(axis=1, out=s[a : a + rows])
        _product(block, v, u[a : a + rows])
    return s, u


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization (population variance) then gain and bias."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm: expected a matrix, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match row width {d}"
        )
    # numpy's mean and var (row sums divided by d); xhat is centred once, in place
    xhat = x.data - x.data.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / d + _LN_EPS)
    xhat *= inv

    def back(g):
        dxhat = g * gain.data
        dx = dxhat - dxhat.sum(axis=1, keepdims=True) / d
        dx -= xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / d)
        dx *= inv
        _accumulate(x, dx)
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))

    return _result(xhat * gain.data + bias.data, (x, gain, bias), back)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5*x*(1 + tanh(0.7978845608*(x + 0.044715*x^3)))."""
    x = a.data
    # x * x * x, not x**3: numpy computes **3 with libm pow, many times slower
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)

    def back(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
        _accumulate(a, g * d)

    return _result(0.5 * x * (1.0 + t), (a,), back)


# -- reductions ------------------------------------------------------------


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def back(g):
        _accumulate(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _result(np.array(a.data.mean()), (a,), back)


# -- row/column rearrangement ---------------------------------------------


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by index; gradients scatter-add back."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _result(a.data[idx], (a,), back)


def tile_rows(vec: Tensor, n_rows: int) -> Tensor:
    """Repeat a 1-D vector as n_rows identical rows."""
    if vec.ndim != 1:
        raise ShapeError(f"tile_rows: expected a vector, got shape {vec.shape}")
    return _result(
        np.tile(vec.data, (n_rows, 1)), (vec,), lambda g: _accumulate(vec, g.sum(axis=0))
    )


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Join matrices along ``axis``: 0 stacks their rows, 1 sets them side by side.

    The gradient splits back at the seams.
    """
    if not parts:
        raise ContractError("concat: empty input")
    if axis not in (0, 1):
        raise ContractError(f"concat: axis must be 0 or 1, got {axis}")
    shapes = [p.shape for p in parts]
    if any(len(s) != 2 or s[1 - axis] != shapes[0][1 - axis] for s in shapes):
        raise ShapeError(f"concat: inconsistent shapes {shapes} along axis {axis}")

    def back(g):
        at = 0
        for p, s in zip(parts, shapes):
            _accumulate(p, g[at : at + s[0]] if axis == 0 else g[:, at : at + s[1]])
            at += s[axis]

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


# -- backward sweep ---------------------------------------------------------


def _linearize(root: Tensor) -> list[Tensor]:
    """Topological order of the op outputs below ``root`` (inputs first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if parent._grad_fn is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every tracked tensor.

    Gradients add to any existing ``grad`` (a first one is stored as a copy), so
    zero them between steps. Leaves are not swept; op outputs keep their order.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: loss is not connected to any tracked tensor")
    order = _linearize(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._grad_fn is not None and node.grad is not None:
            node._grad_fn(node.grad)
