"""Transmitter-side geometry: patchify, seeded masking, visible-patch stacking.

The mask protocol must reproduce bit-identically on both ends of the link,
so the random source is pinned to SplitMix64 (state advance by the golden
gamma, the published finalizer) driving a Fisher-Yates shuffle with modulo
draws. Modulo bias is negligible for n <= 2^20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import ContainerError, ContractError, ShapeError

MASK_ALGORITHM_ID = 1  # SplitMix64 + Fisher-Yates, modulo draw
PAD_VALUE = 0.5  # mid-gray pad patches carry the least DCT energy

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_U64_MAX = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of a p-divisible image cut into non-overlapping patches."""

    width: int
    height: int
    channels: int
    patch_size: int

    def __post_init__(self):
        if min(self.width, self.height, self.channels, self.patch_size) <= 0:
            raise ContractError(f"non-positive grid field: {self}")
        if self.width % self.patch_size or self.height % self.patch_size:
            raise ContractError(
                f"patch_size {self.patch_size} must divide {self.width}x{self.height}"
            )

    @property
    def grid_cols(self) -> int:
        return self.width // self.patch_size

    @property
    def grid_rows(self) -> int:
        return self.height // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


@dataclass(frozen=True)
class MaskSpec:
    """Keep/mask partition of the patch index set.

    The partition is a pure function of (seed, n_patches, keep_count); those
    three travel in the container. The requested mask ratio is not kept:
    generate_mask turns it into keep_count, and the receiver only ever
    sees that count.
    """

    seed: int
    n_patches: int
    keep_count: int
    keep_indices: tuple[int, ...]
    masked_indices: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.seed <= _U64_MAX:
            raise ContractError(f"seed out of u64 range: {self.seed}")
        if not 1 <= self.keep_count <= self.n_patches:
            raise ContractError(
                f"keep_count {self.keep_count} outside 1..{self.n_patches}"
            )
        if len(self.keep_indices) != self.keep_count:
            raise ContractError("keep_indices length != keep_count")
        if len(self.keep_indices) + len(self.masked_indices) != self.n_patches:
            raise ContractError("keep/masked do not partition the index set")


def keep_count_for_ratio(n_patches: int, mask_ratio: float) -> int:
    """max(1, floor(n*(1-R))); floor keeps the bit budget, never exceeds it."""
    if n_patches < 1:
        raise ContractError(f"n_patches must be >= 1, got {n_patches}")
    if not 0.0 <= mask_ratio < 1.0:
        raise ContractError(f"mask_ratio must lie in [0, 1), got {mask_ratio}")
    return max(1, math.floor(n_patches * (1.0 - mask_ratio)))


def splitmix64_sequence(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64 seeded at `seed`, vectorized."""
    if not 0 <= seed <= _U64_MAX:
        raise ContractError(f"seed out of u64 range: {seed}")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GAMMA  # u64 wraparound intended
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _shuffled_indices(seed: int, n: int) -> list[int]:
    """Fisher-Yates over 0..n-1; draw j = next() mod (i+1) for i = n-1..1."""
    perm = list(range(n))
    if n < 2:
        return perm
    draws = splitmix64_sequence(seed, n - 1)
    sizes = np.arange(n, 1, -1, dtype=np.uint64)
    js = (draws % sizes).tolist()
    i = n - 1
    for j in js:
        perm[i], perm[j] = perm[j], perm[i]
        i -= 1
    return perm


def _build_spec(seed: int, n_patches: int, keep_count: int) -> MaskSpec:
    perm = _shuffled_indices(seed, n_patches)
    return MaskSpec(
        seed=seed,
        n_patches=n_patches,
        keep_count=keep_count,
        keep_indices=tuple(sorted(perm[:keep_count])),
        masked_indices=tuple(sorted(perm[keep_count:])),
    )


def mask_from_counts(seed: int, n_patches: int, keep_count: int) -> MaskSpec:
    """Rebuild the partition from the protocol triple carried in the container."""
    if n_patches < 1 or not 1 <= keep_count <= n_patches:
        raise ContractError(f"keep_count {keep_count} outside 1..{n_patches}")
    return _build_spec(seed, n_patches, keep_count)


def generate_mask(seed: int, n_patches: int, mask_ratio: float) -> MaskSpec:
    keep_count = keep_count_for_ratio(n_patches, mask_ratio)
    return _build_spec(seed, n_patches, keep_count)


def _as_array(patches) -> np.ndarray:
    return patches.data if isinstance(patches, Tensor) else np.asarray(patches)


def patchify(image, patch_size: int) -> tuple[Tensor, PatchGrid]:
    """Cut an image into flattened patches scaled to [0, 1].

    Integer images are divided by 255; float images are taken as already
    scaled. Dimensions that are not multiples of patch_size are padded by
    edge replication (the caller records true dims and crops after decode).
    Patches are enumerated row-major over the grid and each patch is
    flattened row-major as (row, col, channel).
    """
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"expected a non-empty HxWxC image, got shape {arr.shape}")
    if patch_size <= 0:
        raise ContractError(f"patch_size must be positive, got {patch_size}")
    if np.issubdtype(arr.dtype, np.integer):
        arr = arr / 255.0  # float64 for every integer dtype, no intermediate copy
    else:
        arr = arr.astype(np.float64, copy=False)
    h, w, c = arr.shape
    pad_h = (-h) % patch_size
    pad_w = (-w) % patch_size
    if pad_h or pad_w:
        arr = np.pad(arr, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    h, w = arr.shape[:2]
    grid = PatchGrid(width=w, height=h, channels=c, patch_size=patch_size)
    p = patch_size
    tiles = arr.reshape(grid.grid_rows, p, grid.grid_cols, p, c)
    patches = tiles.transpose(0, 2, 1, 3, 4).reshape(grid.n_patches, grid.patch_dim)
    return Tensor(np.ascontiguousarray(patches)), grid


def unpatchify(patches, grid: PatchGrid) -> np.ndarray:
    """Exact inverse of patchify; returns the float image, unclamped."""
    arr = _as_array(patches)
    if arr.ndim != 2 or arr.shape != (grid.n_patches, grid.patch_dim):
        raise ShapeError(
            f"expected {grid.n_patches}x{grid.patch_dim} patches, got {arr.shape}"
        )
    p = grid.patch_size
    tiles = arr.reshape(grid.grid_rows, grid.grid_cols, p, p, grid.channels)
    image = tiles.transpose(0, 2, 1, 3, 4).reshape(
        grid.height, grid.width, grid.channels
    )
    return np.ascontiguousarray(image)


def to_uint8(image) -> np.ndarray:
    """Export helper: clamp to [0, 1], quantize to 8 bits."""
    arr = _as_array(image)
    return np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)


def condensed_grid_for(keep_count: int, grid: PatchGrid) -> PatchGrid:
    """Layout of keep_count stacked patches: full-width rows, last row padded."""
    rows = -(-keep_count // grid.grid_cols)
    return PatchGrid(
        width=grid.width,
        height=rows * grid.patch_size,
        channels=grid.channels,
        patch_size=grid.patch_size,
    )


def stack_visible(patches, spec: MaskSpec, grid: PatchGrid) -> tuple[np.ndarray, PatchGrid]:
    """Lay the kept patches row-major into a condensed image.

    Slot s holds the patch at keep_indices[s]; trailing slots in the last
    row are mid-gray pad patches.
    """
    arr = _as_array(patches)
    if spec.n_patches != grid.n_patches:
        raise ContractError(
            f"mask is for {spec.n_patches} patches, grid has {grid.n_patches}"
        )
    if arr.shape != (grid.n_patches, grid.patch_dim):
        raise ShapeError(
            f"expected {grid.n_patches}x{grid.patch_dim} patches, got {arr.shape}"
        )
    cgrid = condensed_grid_for(spec.keep_count, grid)
    slots = np.full((cgrid.n_patches, grid.patch_dim), PAD_VALUE)
    slots[: spec.keep_count] = arr[list(spec.keep_indices)]
    return unpatchify(slots, cgrid), cgrid


def unstack_visible(condensed, spec: MaskSpec, grid: PatchGrid) -> np.ndarray:
    """Recover the visible patches (keep-index order) from a condensed image."""
    arr = np.asarray(condensed)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    cgrid = condensed_grid_for(spec.keep_count, grid)
    if arr.shape != (cgrid.height, cgrid.width, cgrid.channels):
        raise ContainerError(
            f"condensed image is {arr.shape}, header implies "
            f"({cgrid.height}, {cgrid.width}, {cgrid.channels})"
        )
    patches, _ = patchify(arr, grid.patch_size)
    return patches.data[: spec.keep_count]
