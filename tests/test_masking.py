"""Mask protocol and patch geometry.

The RNG reference values below were produced by an independent scalar
implementation of SplitMix64 (golden-gamma advance, published finalizer)
plus a textbook Fisher-Yates loop; the seed-0 outputs match the
generator's published test vectors. The same scalar oracle is re-run
in-process for randomized cross-checks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import masking
from maecodec.errors import ContainerError, ContractError, ShapeError

MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def oracle_partition(seed, n, keep_count):
    rng = ScalarSplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(sorted(perm[:keep_count])), tuple(sorted(perm[keep_count:]))


# -- RNG stream ---------------------------------------------------------------


def test_splitmix64_published_vectors_seed_zero():
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    assert masking.splitmix64_sequence(0, 4).tolist() == expected


def test_splitmix64_frozen_seed_42():
    expected = [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
        0x581CE1FF0E4AE394,
    ]
    assert masking.splitmix64_sequence(42, 4).tolist() == expected


def test_splitmix64_matches_scalar_oracle_at_max_seed():
    rng = ScalarSplitMix64(2**64 - 1)
    expected = [rng.next() for _ in range(16)]
    assert masking.splitmix64_sequence(2**64 - 1, 16).tolist() == expected


def test_splitmix64_rejects_out_of_range_seed():
    with pytest.raises(ContractError):
        masking.splitmix64_sequence(-1, 4)
    with pytest.raises(ContractError):
        masking.splitmix64_sequence(2**64, 4)


# -- mask generation ------------------------------------------------------------


def test_keep_count_rule():
    assert masking.keep_count_for_ratio(1536, 0.67) == 506
    assert masking.keep_count_for_ratio(16, 0.0) == 16
    assert masking.keep_count_for_ratio(4, 0.95) == 1  # floor would give 0
    assert masking.keep_count_for_ratio(1, 0.5) == 1


def test_keep_count_rejects_bad_ratio():
    for ratio in (-0.1, 1.0, 1.5):
        with pytest.raises(ContractError):
            masking.keep_count_for_ratio(10, ratio)


def test_ratio_zero_keeps_everything():
    spec = masking.generate_mask(9, 12, 0.0)
    assert spec.keep_indices == tuple(range(12))
    assert spec.masked_indices == ()


def test_frozen_mask_seed42_n16():
    spec = masking.generate_mask(42, 16, 0.5)
    assert spec.keep_count == 8
    assert spec.keep_indices == (2, 4, 6, 7, 8, 12, 13, 14)
    assert spec.masked_indices == (0, 1, 3, 5, 9, 10, 11, 15)


def test_frozen_mask_more_cases():
    cases = [
        (0, 5, 2, (2, 3)),
        (12345, 12, 4, (0, 1, 4, 10)),
        (2**64 - 1, 7, 3, (4, 5, 6)),
    ]
    for seed, n, keep, expected in cases:
        spec = masking.mask_from_counts(seed, n, keep)
        assert spec.keep_indices == expected


def test_generate_equals_reconstruction_from_counts():
    spec = masking.generate_mask(42, 16, 0.5)
    again = masking.mask_from_counts(42, 16, spec.keep_count)
    assert spec == again


def test_mask_determinism_repeated_calls():
    a = masking.generate_mask(7, 100, 0.67)
    b = masking.generate_mask(7, 100, 0.67)
    assert a == b and a.keep_indices == b.keep_indices


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.0, max_value=0.95, exclude_max=False, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_mask_matches_scalar_oracle_property(seed, n, ratio):
    spec = masking.generate_mask(seed, n, ratio)
    keep, masked = oracle_partition(seed, n, spec.keep_count)
    assert spec.keep_indices == keep
    assert spec.masked_indices == masked


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_mask_partition_property(seed, n, ratio):
    spec = masking.generate_mask(seed, n, ratio)
    merged = sorted(spec.keep_indices + spec.masked_indices)
    assert merged == list(range(n))
    assert set(spec.keep_indices).isdisjoint(spec.masked_indices)
    assert list(spec.keep_indices) == sorted(spec.keep_indices)
    assert list(spec.masked_indices) == sorted(spec.masked_indices)


def test_keep_count_monotone_in_ratio():
    for n in (1, 7, 64, 1536):
        counts = [masking.keep_count_for_ratio(n, r) for r in np.linspace(0, 0.99, 50)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


# -- patchify / unpatchify -------------------------------------------------------


def test_patchify_32x32_single_channel():
    img = np.zeros((32, 32, 1), dtype=np.uint8)
    patches, grid = masking.patchify(img, 16)
    assert patches.shape == (4, 256)
    assert (grid.grid_rows, grid.grid_cols) == (2, 2)


def test_patchify_kodak_dims():
    img = np.zeros((512, 768, 3), dtype=np.uint8)
    patches, grid = masking.patchify(img, 16)
    assert grid.n_patches == 48 * 32 == 1536
    assert patches.shape == (1536, 16 * 16 * 3)


def test_patchify_row_major_flattening():
    # 2x2 patches over a 2x4 image: patch 0 is the left 2x2 block
    img = np.arange(8, dtype=np.uint8).reshape(2, 4, 1)
    patches, grid = masking.patchify(img, 2)
    assert grid.grid_cols == 2
    np.testing.assert_allclose(patches.data[0] * 255.0, [0, 1, 4, 5])
    np.testing.assert_allclose(patches.data[1] * 255.0, [2, 3, 6, 7])


def test_patchify_round_trip_exact_on_8bit():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (48, 32, 3), dtype=np.uint8)
    patches, grid = masking.patchify(img, 16)
    assert np.array_equal(masking.to_uint8(masking.unpatchify(patches.data, grid)), img)


def test_patchify_pads_by_edge_replication():
    img = np.full((5, 5, 1), 9, dtype=np.uint8)
    img[4, 4] = 200
    patches, grid = masking.patchify(img, 4)
    assert (grid.height, grid.width) == (8, 8)
    back = masking.unpatchify(patches.data, grid)
    assert back[7, 7, 0] == 200 / 255.0  # corner replicated
    assert back[0, 7, 0] == 9 / 255.0


def test_patchify_rejects_empty():
    with pytest.raises(ShapeError):
        masking.patchify(np.zeros((0, 4, 1), dtype=np.uint8), 2)


def test_patchify_accepts_float_input_as_scaled():
    img = np.full((4, 4, 1), 0.25)
    patches, _ = masking.patchify(img, 4)
    np.testing.assert_array_equal(patches.data, np.full((1, 16), 0.25))


def test_patchify_owns_its_array_for_float_input():
    # On a one-column grid (8x8x1 at patch 8) the input is already in patch
    # order, so a view of it could pass for the patch matrix.
    for shape, p in [((8, 8, 1), 8), ((16, 24, 3), 4)]:
        for dtype in (np.float64, np.float32):
            img = np.random.default_rng(0).random(shape).astype(dtype)
            patches, _ = masking.patchify(img, p)
            assert not np.shares_memory(patches.data, img), (shape, dtype)


def test_patchify_peak_memory_on_kodak_sized_uint8():
    img = np.random.default_rng(0).integers(0, 256, (512, 768, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        masking.patchify(img, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 9 MiB float64 patch matrix, not a second full-size copy of it
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_unpatchify_single_patch():
    patch = np.arange(16.0)[None, :] / 16.0
    grid = masking.PatchGrid(4, 4, 1, 4)
    np.testing.assert_array_equal(
        masking.unpatchify(patch, grid), patch.reshape(4, 4, 1)
    )


def test_unpatchify_zero_patches_black_image():
    grid = masking.PatchGrid(8, 8, 3, 4)
    out = masking.unpatchify(np.zeros((4, 48)), grid)
    assert out.shape == (8, 8, 3) and not out.any()


def test_unpatchify_count_mismatch():
    grid = masking.PatchGrid(8, 8, 1, 4)
    with pytest.raises(ShapeError):
        masking.unpatchify(np.zeros((3, 16)), grid)


def test_grid_validates_divisibility():
    with pytest.raises(ContractError):
        masking.PatchGrid(10, 8, 1, 4)


# -- to_uint8 and gather_patches --------------------------------------------------


def test_to_uint8_maps_pad_value_to_pad_byte():
    assert masking.to_uint8(np.array([masking.PAD_VALUE])).tolist() == [masking.PAD_BYTE]


def test_to_uint8_makes_one_float_temporary():
    x = np.random.default_rng(0).normal(0.5, 1.0, 1 << 20)
    tracemalloc.start()
    try:
        out = masking.to_uint8(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8))
    # one 8 MiB float64 temporary and the 1 MiB result
    assert peak < x.nbytes + 2 * out.nbytes, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64, np.float32, bool])
def test_gather_patches_equals_bytes_of_patchify(dtype):
    rng = np.random.default_rng(7)
    img = rng.normal(100.0, 200.0, (13, 21, 3))
    if dtype is bool:
        img = img > 100.0
    elif np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        img = np.clip(img, info.min, info.max)
    else:
        img /= 255.0
    img = img.astype(dtype)
    patches, grid = masking.patchify(img, 4)  # edge-padded to 16x24
    arr, gathered_grid = masking.image_grid(img, 4)
    assert gathered_grid == grid
    indices = [0, 5, 11, 17, 23]  # the last column and row are padding
    kept = masking.gather_patches(arr, indices, grid)
    assert kept.dtype == np.uint8 and kept.shape == (5, grid.patch_dim)
    assert np.array_equal(kept, masking.to_uint8(patches.data[indices]))


# -- stacking ----------------------------------------------------------------------


def _kept_patches(img, patch_size, spec):
    arr, grid = masking.image_grid(img, patch_size)
    return masking.gather_patches(arr, spec.keep_indices, grid)


def test_stack_exact_fill_no_pads():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (16, 16, 1), dtype=np.uint8)
    grid = masking.PatchGrid(16, 16, 1, 4)  # 4x4 grid
    spec = masking.mask_from_counts(5, grid.n_patches, 8)  # two full rows
    condensed, cgrid = masking.stack_visible(_kept_patches(img, 4, spec), spec, grid)
    assert condensed.shape == (8, 16, 1) and condensed.dtype == np.uint8
    assert cgrid.n_patches == 8  # no pad slots


def test_stack_pad_arithmetic_kodak():
    grid = masking.PatchGrid(768, 512, 3, 16)
    spec = masking.mask_from_counts(0, 1536, 506)
    cgrid = masking.condensed_grid_for(spec.keep_count, grid)
    assert cgrid.grid_cols == 48
    assert cgrid.grid_rows == 11
    assert cgrid.n_patches - spec.keep_count == 22


def test_stack_pads_are_mid_gray():
    img = np.zeros((8, 8, 1), dtype=np.uint8)
    grid = masking.PatchGrid(8, 8, 1, 4)
    spec = masking.mask_from_counts(1, 4, 1)
    condensed, _ = masking.stack_visible(_kept_patches(img, 4, spec), spec, grid)
    assert condensed.shape == (4, 8, 1)
    np.testing.assert_array_equal(condensed[:, :4], np.zeros((4, 4, 1), dtype=np.uint8))
    np.testing.assert_array_equal(condensed[:, 4:], np.full((4, 4, 1), 128, dtype=np.uint8))


def test_stack_unstack_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (40, 24, 3), dtype=np.uint8)
    patches, grid = masking.patchify(img, 8)
    for keep in (1, 5, grid.n_patches):
        spec = masking.mask_from_counts(11, grid.n_patches, keep)
        condensed, _ = masking.stack_visible(_kept_patches(img, 8, spec), spec, grid)
        vis = masking.unstack_visible(condensed, spec, grid)
        assert np.array_equal(vis, patches.data[list(spec.keep_indices)])


def test_unstack_single_patch():
    kept = np.full((1, 16), 64, dtype=np.uint8)
    grid = masking.PatchGrid(8, 8, 1, 4)
    spec = masking.mask_from_counts(2, 4, 1)
    condensed, _ = masking.stack_visible(kept, spec, grid)
    vis = masking.unstack_visible(condensed, spec, grid)
    np.testing.assert_array_equal(vis, np.full((1, 16), 64 / 255.0))


def test_unstack_dimension_mismatch_is_container_error():
    grid = masking.PatchGrid(8, 8, 1, 4)
    spec = masking.mask_from_counts(2, 4, 1)  # expects a 4x8 condensed image
    with pytest.raises(ContainerError):
        masking.unstack_visible(np.zeros((8, 8, 1)), spec, grid)
    with pytest.raises(ContainerError):
        masking.unstack_visible(np.zeros((4, 8, 3)), spec, grid)


def test_stack_rejects_mismatched_spec():
    patches = np.zeros((4, 16))
    grid = masking.PatchGrid(8, 8, 1, 4)
    spec = masking.mask_from_counts(0, 9, 3)
    with pytest.raises(ContractError):
        masking.stack_visible(patches, spec, grid)


def test_stack_takes_only_the_kept_uint8_patches():
    grid = masking.PatchGrid(8, 8, 1, 4)
    spec = masking.mask_from_counts(0, 4, 2)
    with pytest.raises(ShapeError):
        masking.stack_visible(np.zeros((4, 16), dtype=np.uint8), spec, grid)
    with pytest.raises(ContractError):
        masking.stack_visible(np.zeros((2, 16)), spec, grid)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_stack_unstack_property(seed, rows, cols, ratio):
    rng = np.random.default_rng(seed % (2**32))
    img = rng.integers(0, 256, (rows * 4, cols * 4, 1), dtype=np.uint8)
    patches, grid = masking.patchify(img, 4)
    spec = masking.generate_mask(seed, grid.n_patches, ratio)
    condensed, _ = masking.stack_visible(_kept_patches(img, 4, spec), spec, grid)
    vis = masking.unstack_visible(condensed, spec, grid)
    assert np.array_equal(vis, patches.data[list(spec.keep_indices)])
