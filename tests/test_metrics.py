"""SSIM/PSNR/MSE: closed forms, brute-force window oracle, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import metrics
from maecodec.errors import ContractError, ShapeError

C1 = (0.01 * 255) ** 2
C2 = (0.03 * 255) ** 2


def _oracle_window():
    # rebuilt from the definition, independent of the implementation
    g = np.empty((11, 11))
    for i in range(11):
        for j in range(11):
            g[i, j] = math.exp(-((i - 5) ** 2 + (j - 5) ** 2) / (2 * 1.5**2))
    return g / g.sum()


def brute_force_ssim(x, y):
    """Direct per-window evaluation of the SSIM formula."""
    w = _oracle_window()
    h, wd = x.shape
    vals = []
    for i in range(h - 10):
        for j in range(wd - 10):
            a = x[i : i + 11, j : j + 11]
            b = y[i : i + 11, j : j + 11]
            mu_a = float((w * a).sum())
            mu_b = float((w * b).sum())
            var_a = float((w * a * a).sum()) - mu_a**2
            var_b = float((w * b * b).sum()) - mu_b**2
            cov = float((w * a * b).sum()) - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + C1) * (2 * cov + C2))
                / ((mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2))
            )
    return float(np.mean(vals))


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (16, 20, 3), dtype=np.uint8)
    assert metrics.ssim(img, img) == 1.0


def test_ssim_constant_black_vs_white_closed_form():
    black = np.zeros((16, 16, 1), dtype=np.uint8)
    white = np.full((16, 16, 1), 255, dtype=np.uint8)
    expected = C1 / (255.0**2 + C1)  # ~1.0e-4
    assert abs(metrics.ssim(black, white) - expected) < 1e-12
    assert abs(expected - 1.0e-4) < 2e-8


def test_ssim_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        y = np.clip(x + rng.normal(0, 20, x.shape), 0, 255).astype(np.uint8)
        fast = metrics.ssim(x[:, :, None], y[:, :, None])
        slow = brute_force_ssim(x.astype(float), y.astype(float))
        assert abs(fast - slow) < 1e-9


def test_gaussian_taps_outer_product_is_oracle_window():
    window = np.outer(metrics.GAUSSIAN_TAPS, metrics.GAUSSIAN_TAPS)
    assert np.abs(window - _oracle_window()).max() < 1e-15


@pytest.mark.parametrize("shape", [(11, 11), (11, 40), (37, 11), (23, 58)])
def test_ssim_matches_oracle_on_non_square_and_edge_11_planes(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.integers(0, 256, shape, dtype=np.uint8)
    y = np.clip(x + rng.normal(0, 20, x.shape), 0, 255).astype(np.uint8)
    fast = metrics.ssim(x[:, :, None], y[:, :, None])
    assert abs(fast - brute_force_ssim(x.astype(float), y.astype(float))) < 1e-9


def test_ssim_rgb_matches_luma_plane_oracle():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, (19, 27, 3), dtype=np.uint8)
    b = np.clip(a + rng.normal(0, 30, a.shape), 0, 255).astype(np.uint8)
    oracle = brute_force_ssim(metrics.luma(a), metrics.luma(b))
    assert abs(metrics.ssim(a, b) - oracle) < 1e-9


@pytest.mark.parametrize("shape", [(256, 256, 1), (512, 768, 3)])
def test_ssim_identity_is_exactly_one_at_full_size(shape):
    img = np.random.default_rng(7).integers(0, 256, shape, dtype=np.uint8)
    assert metrics.ssim(img, img) == 1.0


def test_ssim_noise_monotonicity():
    rng = np.random.default_rng(2)
    base = rng.integers(0, 256, (32, 32, 1), dtype=np.uint8)
    light = np.clip(base + rng.normal(0, 5, base.shape), 0, 255).astype(np.uint8)
    heavy = np.clip(base + rng.normal(0, 25, base.shape), 0, 255).astype(np.uint8)
    assert metrics.ssim(base, heavy) < metrics.ssim(base, light)


def test_ssim_symmetry():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, (20, 14, 3), dtype=np.uint8)
    b = rng.integers(0, 256, (20, 14, 3), dtype=np.uint8)
    assert abs(metrics.ssim(a, b) - metrics.ssim(b, a)) < 1e-12


def test_ssim_dimension_mismatch():
    with pytest.raises(ShapeError):
        metrics.ssim(np.zeros((16, 16, 1), dtype=np.uint8), np.zeros((16, 17, 1), dtype=np.uint8))


def test_ssim_rejects_tiny_images():
    with pytest.raises(ContractError):
        metrics.ssim(np.zeros((8, 8, 1), dtype=np.uint8), np.zeros((8, 8, 1), dtype=np.uint8))


def test_luma_weights():
    img = np.zeros((1, 3, 3))
    img[0, 0] = [255, 0, 0]
    img[0, 1] = [0, 255, 0]
    img[0, 2] = [0, 0, 255]
    y = metrics.luma(img)
    np.testing.assert_allclose(y[0], [0.299 * 255, 0.587 * 255, 0.114 * 255])


def test_psnr_identity_sentinel():
    img = np.zeros((4, 4, 1), dtype=np.uint8)
    assert metrics.psnr(img, img) == math.inf
    flat = np.full((16, 16, 1), 70, dtype=np.uint8)
    assert metrics.ssim(flat, flat) == 1.0
    assert metrics.psnr(flat, flat) == math.inf and metrics.mse(flat, flat) == 0.0


def test_psnr_unit_mse_closed_form():
    a = np.zeros((10, 10, 1), dtype=np.uint8)
    b = np.ones((10, 10, 1), dtype=np.uint8)
    expected = 20 * math.log10(255)  # 48.1308 dB
    assert abs(metrics.psnr(a, b) - expected) < 1e-9
    assert abs(expected - 48.1308) < 1e-4


def test_psnr_uniform_offset_equals_unit_mse():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 255, (12, 9, 3), dtype=np.uint8)
    b = (a + 1).astype(np.uint8)
    assert abs(metrics.psnr(a, b) - 20 * math.log10(255)) < 1e-9


def test_mse_all_channels():
    a = np.zeros((2, 2, 3), dtype=np.uint8)
    b = a.copy()
    b[0, 0, 0] = 12
    assert abs(metrics.mse(a, b) - 144 / 12) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ssim_range_property(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(11, 24)), int(rng.integers(11, 24)), int(rng.choice([1, 3])))
    a = rng.integers(0, 256, shape, dtype=np.uint8)
    b = rng.integers(0, 256, shape, dtype=np.uint8)
    val = metrics.ssim(a, b)
    assert -1.0 <= val <= 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_ssim_oracle_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    y = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    fast = metrics.ssim(x[:, :, None], y[:, :, None])
    assert abs(fast - brute_force_ssim(x.astype(float), y.astype(float))) < 1e-9
