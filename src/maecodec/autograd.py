"""Dense float64 arrays with reverse-mode automatic differentiation.

Just enough machinery to train a small transformer: matmul, add/sub/mul,
row softmax, fused scaled dot-product attention, layer norm, GELU, the
mean of all elements, row gather/scatter/tile and column concatenation.
Every op is a plain function; ``Tensor`` has no operator overloads.
There is deliberately no broadcasting beyond adding a 1-D vector to
every row of a matrix and scaling by a number; every other shape
mismatch is an error, which keeps the gradient rules small and
auditable.

Graph edges live on the output tensor (parent references plus a closure
that routes the upstream gradient), so independent computations never
share state and may run on separate threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# tanh-approximation GELU constants, pinned for portability
_GELU_C = 0.7978845608
_GELU_A = 0.044715
# layer norm's variance floor
_LN_EPS = 1e-5
# Elements of the attention map that one softmax_rows call normalizes:
# 512 KiB of float64, so each block's temporaries stay in cache.
_SOFTMAX_BLOCK = 1 << 16


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
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents, grad_fn) -> Tensor:
    """Build an op output; graph edges are recorded only when needed."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Same-shape sum, or a 1-D vector added to every row of a matrix."""
    if a.shape == b.shape:

        def back(g):
            _accumulate(a, g)
            _accumulate(b, g)

        return _result(a.data + b.data, (a, b), back)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:

        def back_row(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))

        return _result(a.data + b.data, (a, b), back_row)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), back)


# -- nonlinearities and normalization -------------------------------------


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient of a row softmax with output y: y * (g - sum(g * y, per row))."""
    dot = (g * y).sum(axis=1, keepdims=True)
    return y * (g - dot)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expected a matrix, got shape {a.shape}")
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_rows: non-finite input")
    # The subtraction yields a fresh array, so exp and normalize it in place.
    y = a.data - a.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    return _result(y, (a,), lambda g: _accumulate(a, _softmax_grad(y, g)))


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v in one (queries, keys) buffer.

    The logits are scaled in place, and :func:`softmax_rows` normalizes
    them block of rows by block of rows outside the graph, each block
    written back over its logits. The backward pass keeps only the
    attention map. Forward output and gradients equal, bit for bit, those
    of the op chain ``matmul(softmax_rows(mul(matmul(q, kt), s)), v)``,
    where ``kt`` is K^T as a contiguous matrix.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: Q {q.shape} vs K {k.shape}")
    if k.shape[0] == 0 or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: K {k.shape} vs V {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[1])
    # BLAS may round differently for a transposed operand than for a
    # contiguous one, so K^T is laid out as one contiguous matrix.
    kt = k.data.T.copy()
    y = q.data @ kt
    y *= scale
    rows = max(1, _SOFTMAX_BLOCK // y.shape[1])
    for r in range(0, y.shape[0], rows):
        y[r:r + rows] = softmax_rows(_result(y[r:r + rows], (), None)).data

    def back(g):
        # the chain's rules, in the order its backward sweep runs them
        _accumulate(v, y.T @ g)
        gl = _softmax_grad(y, g @ v.data.T)
        gl *= scale
        _accumulate(q, gl @ kt.T)
        _accumulate(k, (q.data.T @ gl).T)

    return _result(y @ v.data, (q, k, v), back)


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
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x.data - mean) * inv

    def back(g):
        dxhat = g * gain.data
        dx = (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) * inv
        _accumulate(x, dx)
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))

    return _result(xhat * gain.data + bias.data, (x, gain, bias), back)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5*x*(1 + tanh(0.7978845608*(x + 0.044715*x^3)))."""
    x = a.data
    u = _GELU_C * (x + _GELU_A * x**3)
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

    return _result(a.data[idx].copy(), (a,), back)


def scatter_rows(n_rows: int, indices, rows: Tensor) -> Tensor:
    """Place ``rows`` at ``indices`` in an otherwise zero (n_rows, d) matrix."""
    if rows.ndim != 2:
        raise ShapeError(f"scatter_rows: expected a matrix, got shape {rows.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (rows.shape[0],):
        raise ShapeError(f"scatter_rows: {idx.size} indices for {rows.shape[0]} rows")
    if np.unique(idx).size != idx.size:
        raise ContractError("scatter_rows: duplicate indices")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ContractError(f"scatter_rows: index out of range for {n_rows} rows")
    data = np.zeros((n_rows, rows.shape[1]))
    data[idx] = rows.data
    return _result(data, (rows,), lambda g: _accumulate(rows, g[idx].copy()))


def tile_rows(vec: Tensor, n_rows: int) -> Tensor:
    """Repeat a 1-D vector as n_rows identical rows."""
    if vec.ndim != 1:
        raise ShapeError(f"tile_rows: expected a vector, got shape {vec.shape}")
    return _result(
        np.tile(vec.data, (n_rows, 1)), (vec,), lambda g: _accumulate(vec, g.sum(axis=0))
    )


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols: empty input")
    rows = parts[0].shape[0]
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: inconsistent shapes {[p.shape for p in parts]}"
            )
    widths = [p.shape[1] for p in parts]

    def back(g):
        at = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[:, at : at + w])
            at += w

    return _result(
        np.concatenate([p.data for p in parts], axis=1), tuple(parts), back
    )


# -- backward sweep ---------------------------------------------------------


def _linearize(root: Tensor) -> list[Tensor]:
    """Topological order of the graph below ``root`` (inputs first)."""
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
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every tracked tensor.

    Gradients add to any existing ``grad``, so zero them between steps.
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
