"""Shared test helpers: finite-difference gradient checking, tiny configs."""

from __future__ import annotations

import numpy as np
import pytest

from maecodec import autograd as ag
from maecodec.autograd import Tensor
from maecodec.mae import TMAEConfig

FD_STEP = 1e-5
FD_TOL = 1e-4


def total(x: Tensor) -> Tensor:
    """Sum of all elements as the mean times the count; its gradient is exactly 1."""
    return ag.mul(ag.mean_all(x), float(x.data.size))


def numeric_grad(loss_fn, param: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every param entry."""
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn().item()
        flat[i] = orig - step
        lo = loss_fn().item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def assert_grads_close(loss_fn, params: list[tuple[str, Tensor]], tol: float = FD_TOL):
    """Backward pass vs central differences for every named parameter."""
    for _, p in params:
        p.grad = None
    loss = loss_fn()
    ag.backward(loss)
    worst = ("", 0.0)
    for name, p in params:
        assert p.grad is not None, f"no gradient reached {name}"
        num = numeric_grad(loss_fn, p)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(p.grad)), 1e-6)
        rel = np.abs(p.grad - num) / denom
        err = float(rel.max())
        if err > worst[1]:
            worst = (name, err)
        assert err < tol, f"{name}: max relative gradient error {err:.3e} >= {tol}"
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_mae_config():
    """Smallest config that exercises every layer type."""
    return TMAEConfig(
        patch_size=2,
        channels=1,
        enc_d_model=8,
        enc_depth=1,
        enc_heads=2,
        enc_d_ff=8,
        dec_d_model=4,
        dec_depth=1,
        dec_heads=2,
        dec_d_ff=4,
    )
