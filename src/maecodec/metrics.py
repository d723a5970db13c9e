"""Full-reference quality metrics: SSIM, PSNR, MSE.

All metrics take HxWxC images of identical shape: 8-bit, or float arrays
on the 0..255 scale. Any other rank is a ShapeError, and an object-dtype
array, whose bytes are element addresses, a ContractError. SSIM follows
the reference parameterization: 11x11 Gaussian window with sigma 1.5,
applied as two separable 11-tap passes (rows, then columns),
C1 = (0.01*255)^2, C2 = (0.03*255)^2, computed on BT.601 luma only (a
3-channel image is reduced to one luma plane first), borders handled by
valid-window cropping.

SSIM's first argument is the reference. Its window statistics (local
means and local means of squares, 16 bytes per window position) come from
``_reference_stats``, an ``lru_cache(maxsize=1)`` keyed by its dtype,
shape and bytes, so scoring several decodes against one reference filters
it once. The result is the same bits as without the cache.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError

WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2

PSNR_INF = math.inf


def _gaussian_taps() -> np.ndarray:
    # The 2-D window is outer(taps, taps), so it is applied as two 1-D passes.
    coords = np.arange(WINDOW_SIZE) - (WINDOW_SIZE - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * WINDOW_SIGMA**2))
    return g / g.sum()

GAUSSIAN_TAPS = _gaussian_taps()


def _as_planes(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.dtype.hasobject:
        raise ContractError("images hold numbers, got an object array")
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"expected a non-empty HxWxC image, got shape {arr.shape}")
    return arr.astype(np.float64, copy=False)


def _check_same_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"image dimensions differ: {a.shape} vs {b.shape}")


def luma(image) -> np.ndarray:
    """BT.601 luma plane on the input's own scale."""
    arr = _as_planes(image)
    if arr.shape[2] == 1:
        return arr[:, :, 0]
    if arr.shape[2] == 3:
        return 0.299 * arr[:, :, 0] + 0.587 * arr[:, :, 1] + 0.114 * arr[:, :, 2]
    raise ShapeError(f"expected 1 or 3 channels, got {arr.shape[2]}")


def _window_means(maps: np.ndarray) -> np.ndarray:
    """Gaussian-weighted means of every valid 11x11 window of each map in a stack."""
    g = GAUSSIAN_TAPS
    rows = sliding_window_view(maps, WINDOW_SIZE, axis=2) @ g
    return sliding_window_view(rows, WINDOW_SIZE, axis=1) @ g


@functools.lru_cache(maxsize=1)
def _reference_stats(dtype: np.dtype, shape: tuple, data: bytes) -> np.ndarray:
    """Window means of the reference's luma and luma squared, read-only."""
    x = luma(np.frombuffer(data, dtype).reshape(shape))
    stats = _window_means(np.stack([x, x * x]))
    stats.flags.writeable = False
    return stats


def _ssim_plane(x: np.ndarray, y: np.ndarray, key: tuple) -> float:
    h, w = x.shape
    if h < WINDOW_SIZE or w < WINDOW_SIZE:
        raise ContractError(
            f"image {h}x{w} smaller than the {WINDOW_SIZE}x{WINDOW_SIZE} SSIM window"
        )
    mu_x, xx = _reference_stats(*key)
    mu_y, yy, xy = _window_means(np.stack([y, y * y, x * y]))
    mxx = mu_x * mu_x
    myy = mu_y * mu_y
    mxy = mu_x * mu_y
    # 2.0 * mxy + C1 is 2.0 * mu_x * mu_y + C1 bit for bit: doubling is exact,
    # and a product too small for that to hold vanishes beside C1
    num = (2.0 * mxy + C1) * (2.0 * (xy - mxy) + C2)
    den = (mxx + myy + C1) * ((xx - mxx) + (yy - myy) + C2)
    return float(np.mean(num / den))


def ssim(a, b) -> float:
    """Mean local SSIM of the BT.601 luma planes; ``a`` is the reference.

    The last reference's window statistics are cached (``_reference_stats``,
    ``lru_cache(maxsize=1)``, keyed by ``a``'s dtype, shape and bytes).
    """
    pa, pb = _as_planes(a), _as_planes(b)
    _check_same_dims(pa, pb)
    ref = np.asarray(a)
    return _ssim_plane(luma(pa), luma(pb), (ref.dtype, ref.shape, ref.tobytes()))


def mse(a, b) -> float:
    pa, pb = _as_planes(a), _as_planes(b)
    _check_same_dims(pa, pb)
    diff = pa - pb
    return float(np.mean(diff * diff))


def psnr(a, b) -> float:
    """10*log10(255^2 / mse); identical images give the +inf sentinel."""
    err = mse(a, b)
    if err == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(255.0**2 / err)
