"""SSIM/PSNR/MSE: closed forms, brute-force window oracle, the reference memo, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import BLAS_THREAD_TESTS, passed_at_blas_threads, run_at_blas_threads, traced_peak
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
    # images are HxWxC; a flat HxW array is not one
    with pytest.raises(ShapeError):
        metrics.ssim(np.zeros((16, 16), dtype=np.uint8), np.zeros((16, 16), dtype=np.uint8))


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


# -- the reference memo ---------------------------------------------------------


def _five_map_ssim_plane(x, y):
    """SSIM as computed before the reference memo: all five maps filtered together."""
    g = metrics.GAUSSIAN_TAPS
    s = np.stack([x, y, x * x, y * y, x * y])
    s = sliding_window_view(s, 11, axis=2) @ g
    mu_x, mu_y, xx, yy, xy = sliding_window_view(s, 11, axis=1) @ g
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + C1) * (2.0 * cov + C2)
    den = (mu_x * mu_x + mu_y * mu_y + C1) * (var_x + var_y + C2)
    return float(np.mean(num / den))


def five_map_ssim(a, b):
    """Oracle for metrics.ssim, bit for bit; it keeps no memo."""
    return _five_map_ssim_plane(metrics.luma(a), metrics.luma(b))


def _bits(value):
    return np.float64(value).tobytes()


def _score(a, b):
    """metrics.ssim(a, b) and whether it found a's statistics in the cache."""
    hits = metrics._reference_stats.cache_info().hits
    value = metrics.ssim(a, b)
    return value, metrics._reference_stats.cache_info().hits > hits


_MEMO_SHAPES = [(11, 11), (11, 300), (37, 64), (256, 256)]


@pytest.mark.parametrize("shape", _MEMO_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", ["uint8", "float64"])
def test_ssim_equals_the_five_map_oracle_through_the_memo(shape, channels, dtype):
    rng = np.random.default_rng([*shape, channels, len(dtype)])
    if dtype == "uint8":
        ref = rng.integers(0, 256, (*shape, channels), dtype=np.uint8)
    else:
        # halves, so that float32 holds the same values
        ref = rng.integers(0, 511, (*shape, channels)) / 2.0
    dec = np.clip(ref + rng.normal(0, 20, ref.shape), 0, 255).astype(ref.dtype)
    expected = five_map_ssim(ref, dec)

    metrics._reference_stats.cache_clear()
    assert _score(ref, dec) == (expected, False)  # cold, a fresh reference
    assert _score(ref, dec) == (expected, True)  # warm, the same object
    assert _score(ref.copy(), dec) == (expected, True)  # an equal copy
    ref[-1, 0, 0] = 255 - ref[-1, 0, 0]  # changed in place: a miss
    assert _score(ref, dec) == (five_map_ssim(ref, dec), False)
    assert _score(ref.astype(np.float32), dec) == (five_map_ssim(ref, dec), False)


def test_ssim_memo_keys_float_references_by_their_bytes():
    rng = np.random.default_rng(23)
    ref = np.round(rng.random((24, 31, 1)) * 255)
    ref[2:5, 3:9] = 0.0
    dec = np.clip(ref + rng.normal(0, 9, ref.shape), 0, 255)
    expected = five_map_ssim(ref, dec)
    metrics._reference_stats.cache_clear()
    assert _score(ref, dec) == (expected, False)
    # -0.0 equals 0.0 but has other bytes: a miss with the same result
    ref[3, 4, 0] = -0.0
    assert _score(ref, dec) == (expected, False)
    ref[7, 8, 0] = np.nan
    value, hit = _score(ref, dec)
    assert math.isnan(value) and _bits(value) == _bits(five_map_ssim(ref, dec)) and not hit
    # NaN != NaN, yet the same bytes are a hit
    value, hit = _score(ref.copy(), dec)
    assert _bits(value) == _bits(five_map_ssim(ref, dec)) and hit


def test_ssim_object_reference_bypasses_the_memo():
    # an object array's bytes are the addresses of its elements, not their
    # values, so it is refused before it could key the memo
    rng = np.random.default_rng(27)
    ref = rng.integers(0, 256, (15, 18, 1), dtype=np.uint8)
    dec = ref[::-1].copy()
    metrics.ssim(ref, dec)
    info = metrics._reference_stats.cache_info()
    with pytest.raises(ContractError, match="object"):
        metrics.ssim(ref.astype(object), dec)
    assert metrics._reference_stats.cache_info() == info


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ssim_equals_the_five_map_oracle_at_blas_threads(threads):
    """The oracle test in the registry's child pytest run whose BLAS runs this many threads."""
    test = "test_metrics.py::test_ssim_equals_the_five_map_oracle_through_the_memo"
    assert BLAS_THREAD_TESTS[test] == 4 * len(_MEMO_SHAPES)
    passed = passed_at_blas_threads(threads, test)
    assert passed == BLAS_THREAD_TESTS[test], run_at_blas_threads(threads).stdout


def test_ssim_alternating_references_miss_every_time():
    rng = np.random.default_rng(29)
    refs = [rng.integers(0, 256, (40, 52, 3), dtype=np.uint8) for _ in range(2)]
    decs = [np.clip(r + rng.normal(0, 15, r.shape), 0, 255).astype(np.uint8) for r in refs]
    metrics._reference_stats.cache_clear()
    for k in (0, 1, 0, 1):
        assert _score(refs[k], decs[k]) == (five_map_ssim(refs[k], decs[k]), False)


def _kodak_pair(seed):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 256, (512, 768, 3), dtype=np.uint8)
    return ref, np.clip(ref + rng.normal(0, 20, ref.shape), 0, 255).astype(np.uint8)


def test_ssim_memo_holds_only_the_last_reference():
    big = _kodak_pair(31)
    small = np.random.default_rng(37).integers(0, 256, (16, 16, 1), dtype=np.uint8)
    with traced_peak() as trace:
        metrics.ssim(*big)
        metrics.ssim(small, small[::-1])
    assert trace.current < 2**20


def test_ssim_kodak_sized_peaks():
    ref, dec = _kodak_pair(41)
    metrics._reference_stats.cache_clear()
    with traced_peak() as cold:
        metrics.ssim(ref, dec)
    with traced_peak() as warm:
        metrics.ssim(ref, dec)
    # 70.7 MiB without the memo; 54.2 MiB measured warm
    assert cold.peak <= 70.7 * 2**20
    assert warm.peak < 1.15 * 54.2 * 2**20
