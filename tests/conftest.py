"""Shared test helpers: finite-difference gradient checking, allocation peaks, tiny configs,
the BLAS-thread registry and its child pytest runs."""

from __future__ import annotations

import contextlib
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import maecodec
from maecodec import autograd as ag
from maecodec import mae
from maecodec.autograd import Tensor
from maecodec.mae import TMAEConfig

FD_STEP = 1e-5
FD_TOL = 1e-4

# Every test that pins bytes the package computes to a golden value, and
# every bitwise test that compares two arrangements of BLAS products (a row
# among rows, a strip against its blocks, a fused op against its op chain,
# the SSIM reference memo against the five-map oracle). A new golden or such
# test is registered here. Each test maps to its number of cases, written
# out, so that a renamed test or a shrunken case list fails the launcher.
BLAS_THREAD_TESTS = {
    "test_autograd.py::test_affine_matches_matmul_then_add_bitwise": 3,
    "test_autograd.py::test_attention_matches_op_chain_bitwise": 9,
    "test_autograd.py::test_attention_past_the_logit_bound_matches_op_chain_bitwise": 3,
    "test_autograd.py::test_backward_matches_the_sweep_over_every_tensor_bitwise": 1,
    "test_autograd.py::test_matmul_of_one_row_equals_that_row_among_others": 6,
    "test_autograd.py::test_softmax_rows_skips_the_shift_exactly_up_to_its_safe_bound": 1,
    "test_autograd.py::test_untracked_attention_matches_tracked": 9,
    "test_codec.py::test_codec_golden_digest": 1,
    "test_codec.py::test_colour_codec_output_does_not_depend_on_the_band_size": 2,
    "test_codec.py::test_container_golden_digest": 1,
    "test_codec.py::test_dct_golden_bytes": 1,
    "test_codec.py::test_dct_round_trip_orthogonal": 1,
    "test_codec.py::test_gray_codec_matches_per_block_statement": 3,
    "test_codec.py::test_null_golden_bytes": 1,
    "test_codec.py::test_strip_transform_matches_per_block_products": 1,
    "test_mae.py::test_decode_golden_digest": 1,
    "test_mae.py::test_forward_loss_is_masked_mse_of_predict_masked_bitwise": 1,
    "test_mae.py::test_a_logit_bound_above_exp_safe_decodes_as_the_whole_map_bitwise": 1,
    "test_mae.py::test_deeper_decoders_fill_no_memo_and_decode_as_their_tracked_copies_bitwise": 2,
    "test_mae.py::test_mask_token_sums_alternating_models_and_masks_miss_every_time": 1,
    "test_mae.py::test_mask_token_sums_cold_and_warm_decodes_are_equal_bitwise": 1,
    "test_mae.py::test_row_subset_matches_full_rows": 21,
    "test_metrics.py::test_ssim_alternating_references_miss_every_time": 1,
    "test_metrics.py::test_ssim_equals_the_five_map_oracle_through_the_memo": 16,
    "test_metrics.py::test_ssim_memo_keys_float_references_by_their_bytes": 1,
    "test_pipeline.py::test_container_golden_bytes": 1,
    "test_pipeline.py::test_kodak_sized_round_trip_golden_digest": 1,
    "test_sweep.py::test_sweep_points_equal_a_sweep_scored_by_the_ssim_oracle": 1,
    "test_training.py::test_train_golden_digest": 1,
}


@functools.cache
def run_at_blas_threads(threads: str) -> subprocess.CompletedProcess:
    """Every registered test, in one child pytest run whose BLAS runs this many threads.

    The run is made once per thread count and read by every test that asks for it.
    """
    tests = Path(__file__).resolve().parent
    src = str(Path(maecodec.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider",
         *(str(tests / t) for t in BLAS_THREAD_TESTS)],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300,
    )


def passed_at_blas_threads(threads: str, test: str) -> int:
    """How many cases of a registered test passed in that child run."""
    assert test in BLAS_THREAD_TESTS, test
    node = f"PASSED tests/{test}"
    lines = run_at_blas_threads(threads).stdout.splitlines()
    return sum(line == node or line.startswith(node + "[") for line in lines)


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


@contextlib.contextmanager
def traced_peak():
    """Trace Python allocations in the block.

    Afterwards ``.peak`` is their peak in bytes and ``.current`` the bytes
    allocated in the block and still held when it ended.
    """
    trace = SimpleNamespace(peak=None, current=None)
    tracemalloc.start()
    try:
        yield trace
    finally:
        trace.current, trace.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Smallest config that exercises every layer type.
TINY_MAE_CONFIG = TMAEConfig(
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


# A small untrained model with 8-pixel patches, for pipeline and sweep runs.
P8_MAE_CONFIG = TMAEConfig(
    patch_size=8,
    channels=1,
    enc_d_model=16,
    enc_depth=1,
    enc_heads=2,
    enc_d_ff=16,
    dec_d_model=8,
    dec_depth=1,
    dec_heads=2,
    dec_d_ff=8,
)


def p8_model():
    return mae.init_model(P8_MAE_CONFIG, seed=0)


@pytest.fixture
def tiny_mae_config():
    return TINY_MAE_CONFIG


@pytest.fixture(params=["uint16", "int64", "float32", "float64-nan", "bool"])
def non_uint8_image(request):
    """A 16x16x1 image of a sample type other than uint8; images enter as uint8 only."""
    samples = np.random.default_rng(0).integers(0, 256, (16, 16, 1))
    if request.param == "bool":
        return samples > 127
    if request.param == "float32":
        return (samples / 255.0).astype(np.float32)
    if request.param == "float64-nan":
        image = samples / 255.0
        image[3, 4, 0] = np.nan
        return image
    return samples.astype(request.param)
