"""Transmitter-side geometry: patchify, seeded masking, visible-patch stacking.

The mask protocol must reproduce bit-identically on both ends of the link,
so the random source is pinned to SplitMix64 (state advance by the golden
gamma, the published finalizer) driving a Fisher-Yates shuffle with modulo
draws, of which only the steps that decide the partition run. Modulo
bias is negligible for n <= 2^20. ``MaskSpec(seed, n_patches,
keep_count)`` is the one constructor of a mask: it checks the triple and
derives the kept and masked index sets from it.
``generate_mask`` (transmitter, from a mask ratio) and
``mask_from_counts`` (receiver, from the container header) only name its
two uses.

The partition is a pure function of the triple, so ``_partition`` is an
``lru_cache(maxsize=1)`` over it. A compress and decompress in one
process, and every sweep cell of one image and ratio, then run the
shuffle once; any other triple replaces the entry. The cache holds no
more than the last mask built holds anyway.

``patchify`` is the only function here that returns a ``Tensor`` (one that
owns its array); every other function takes and returns plain ndarrays.

Images enter as uint8 HxWxC arrays; ``image_grid``, the one entry point
of ``compress`` and ``patchify``, refuses any other dtype or rank.
``gather_patches`` cuts patches out of the image as bytes and
``stack_visible`` lays the kept ones into the condensed uint8 image the
codec takes. Float64 in [0, 1] is the model's scale: ``patchify``
(training, and the receiver through ``unstack_visible``) is the u8 / 255
view of every patch, and ``to_uint8`` turns it back into bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import ContainerError, ContractError, ShapeError

MASK_ALGORITHM_ID = 1  # SplitMix64 + Fisher-Yates, modulo draw
PAD_VALUE = 0.5  # mid-gray pad patches carry the least DCT energy
PAD_BYTE = 128  # to_uint8(PAD_VALUE), the pad sample of the condensed uint8 image

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
    """Keep/mask partition of the patch index set, built from its protocol triple.

    (seed, n_patches, keep_count) travel in the container and are the only
    fields that can be set. The partition is a pure function of them:
    the first keep_count entries of the seeded shuffle of 0..n_patches-1
    are kept, the rest masked, and both sets are stored sorted. The
    requested mask ratio is not kept: generate_mask turns it into
    keep_count, and the receiver only ever sees that count. ``_partition``
    caches the sets of the last triple built (``lru_cache(maxsize=1)``),
    so building it again skips the shuffle.
    """

    seed: int
    n_patches: int
    keep_count: int
    keep_indices: tuple[int, ...] = field(init=False)
    masked_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0 <= self.seed <= _U64_MAX:
            raise ContractError(f"seed out of u64 range: {self.seed}")
        if not 1 <= self.keep_count <= self.n_patches:
            raise ContractError(
                f"keep_count {self.keep_count} outside 1..{self.n_patches}"
            )
        keep, masked = _partition(self.seed, self.n_patches, self.keep_count)
        object.__setattr__(self, "keep_indices", keep)
        object.__setattr__(self, "masked_indices", masked)


@functools.lru_cache(maxsize=1)
def _partition(seed: int, n: int, keep_count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted kept and masked index sets of a checked triple."""
    perm = _shuffled_indices(seed, n, keep_count)
    return tuple(sorted(perm[:keep_count])), tuple(sorted(perm[keep_count:]))


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


def _shuffled_indices(seed: int, n: int, keep_count: int) -> list[int]:
    """0..n-1 with the kept set of the seeded shuffle in its first keep_count entries.

    Fisher-Yates draws j = next() mod (i+1) for i = n-1..1. The steps
    i < keep_count only swap inside the first keep_count entries, whose
    order the caller discards, so only the n - keep_count steps down to
    i = keep_count run, on the first n - keep_count draws.
    """
    perm = list(range(n))
    draws = splitmix64_sequence(seed, n - keep_count)
    sizes = np.arange(n, keep_count, -1, dtype=np.uint64)
    js = (draws % sizes).tolist()
    i = n - 1
    for j in js:
        perm[i], perm[j] = perm[j], perm[i]
        i -= 1
    return perm


def mask_from_counts(seed: int, n_patches: int, keep_count: int) -> MaskSpec:
    """Rebuild the partition from the protocol triple carried in the container."""
    return MaskSpec(seed, n_patches, keep_count)


def generate_mask(seed: int, n_patches: int, mask_ratio: float) -> MaskSpec:
    """The partition that keeps keep_count_for_ratio(n_patches, mask_ratio) patches."""
    return MaskSpec(seed, n_patches, keep_count_for_ratio(n_patches, mask_ratio))


def padded_grid(height: int, width: int, channels: int, patch_size: int) -> PatchGrid:
    """Grid of an image of these dimensions, edge-padded to patch multiples."""
    return PatchGrid(
        width=-(-width // patch_size) * patch_size,
        height=-(-height // patch_size) * patch_size,
        channels=channels,
        patch_size=patch_size,
    )


def image_grid(image, patch_size: int) -> tuple[np.ndarray, PatchGrid]:
    """The uint8 HxWxC image as an array and its padded grid, from dtype and shape alone."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ContractError(f"images hold uint8 samples, got {arr.dtype}")
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"expected a non-empty HxWxC image, got shape {arr.shape}")
    if patch_size <= 0:
        raise ContractError(f"patch_size must be positive, got {patch_size}")
    return arr, padded_grid(*arr.shape, patch_size)


def _tiles(arr: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """(grid_rows, p, grid_cols, p, C) view of arr edge-padded to the grid.

    Dimensions that are not multiples of the patch size are padded by edge
    replication; the patch at row r, column c of the grid is [r, :, c].
    """
    h, w = arr.shape[:2]
    if (h, w) != (grid.height, grid.width):
        arr = np.pad(arr, ((0, grid.height - h), (0, grid.width - w), (0, 0)), mode="edge")
    p = grid.patch_size
    return arr.reshape(grid.grid_rows, p, grid.grid_cols, p, grid.channels)


def patchify(image, patch_size: int) -> tuple[Tensor, PatchGrid]:
    """Every patch of a uint8 image as a float64 row of u8 / 255, in [0, 1].

    The rows are gather_patches' over all patch indices: dimensions that
    are not multiples of patch_size are padded by edge replication (the
    caller records true dims and crops after decode), patches are
    enumerated row-major over the grid and each is flattened row-major as
    (row, col, channel).
    """
    arr, grid = image_grid(image, patch_size)
    return Tensor(gather_patches(arr, np.arange(grid.n_patches), grid) / 255.0), grid


def gather_patches(image: np.ndarray, indices, grid: PatchGrid) -> np.ndarray:
    """The patches at `indices` as uint8 rows, copied as they are.

    image is the uint8 HxWxC array and grid its padded grid, as image_grid
    returns them. Patch i is row i // grid_cols, column i % grid_cols of
    the grid, flattened row-major as (row, col, channel).
    """
    idx = np.asarray(indices, dtype=np.intp)
    samples = _tiles(image, grid)[idx // grid.grid_cols, :, idx % grid.grid_cols]
    return samples.reshape(len(idx), grid.patch_dim)


def unpatchify(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Exact inverse of patchify's patch order; keeps the patches' dtype and values."""
    if patches.shape != (grid.n_patches, grid.patch_dim):
        raise ShapeError(
            f"expected {grid.n_patches}x{grid.patch_dim} patches, got {patches.shape}"
        )
    p = grid.patch_size
    tiles = patches.reshape(grid.grid_rows, grid.grid_cols, p, p, grid.channels)
    image = tiles.transpose(0, 2, 1, 3, 4).reshape(
        grid.height, grid.width, grid.channels
    )
    return np.ascontiguousarray(image)


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Bytes of samples on the model's scale: clamp to [0, 1], round x * 255."""
    scaled = np.asarray(np.clip(image, 0.0, 1.0))  # the one float temporary
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    return scaled.astype(np.uint8)


def condensed_grid_for(keep_count: int, grid: PatchGrid) -> PatchGrid:
    """Layout of keep_count stacked patches: full-width rows, last row padded."""
    rows = -(-keep_count // grid.grid_cols)
    return PatchGrid(
        width=grid.width,
        height=rows * grid.patch_size,
        channels=grid.channels,
        patch_size=grid.patch_size,
    )


def stack_visible(kept: np.ndarray, spec: MaskSpec, grid: PatchGrid) -> np.ndarray:
    """Lay the kept patches row-major into a condensed uint8 image.

    kept holds the uint8 patches at keep_indices, in that order, one per
    row as gather_patches returns them. Slot s holds kept[s]; trailing
    slots in the last row are mid-gray pad patches of PAD_BYTE.
    """
    if spec.n_patches != grid.n_patches:
        raise ContractError(
            f"mask is for {spec.n_patches} patches, grid has {grid.n_patches}"
        )
    if kept.shape != (spec.keep_count, grid.patch_dim):
        raise ShapeError(
            f"expected {spec.keep_count}x{grid.patch_dim} kept patches, got {kept.shape}"
        )
    if kept.dtype != np.uint8:
        raise ContractError(f"condensed images hold uint8 samples, got {kept.dtype}")
    cgrid = condensed_grid_for(spec.keep_count, grid)
    slots = np.full((cgrid.n_patches, grid.patch_dim), PAD_BYTE, dtype=np.uint8)
    slots[: spec.keep_count] = kept
    return unpatchify(slots, cgrid)


def unstack_visible(condensed: np.ndarray, spec: MaskSpec, grid: PatchGrid) -> np.ndarray:
    """Recover the visible patches (keep-index order) from an HxWxC condensed image.

    The patches come back as patchify gives them: float64 in [0, 1], the
    model's scale.
    """
    cgrid = condensed_grid_for(spec.keep_count, grid)
    if condensed.shape != (cgrid.height, cgrid.width, cgrid.channels):
        raise ContainerError(
            f"condensed image is {condensed.shape}, header implies "
            f"({cgrid.height}, {cgrid.width}, {cgrid.channels})"
        )
    patches, _ = patchify(condensed, grid.patch_size)
    return patches.data[: spec.keep_count]
