"""Container format, compress/decompress paths, rate accounting."""

import dataclasses
import hashlib
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import dataset, mae
from maecodec import pipeline as pl
from maecodec.codec import CODEC_DCT, CODEC_NULL, CodecParams, codec_decode, codec_encode
from maecodec.errors import BitstreamError, ContainerError, ContractError, NumericError, ShapeError
from maecodec.masking import (
    PAD_VALUE,
    condensed_grid_for,
    generate_mask,
    patchify,
    to_uint8,
    unpatchify,
    unstack_visible,
)

# 8x8 constant-gray image, patch 8, nothing masked, null codec, seed 7.
# 35-byte container header + 19-byte codec header + 64 raw samples.
GOLDEN_CONTAINER = bytes.fromhex(
    "544d41450108000000080000000108000100000001000000070000000000000001"
    "00324244433100320800000008000000014000000080808080808080808080808080"
    "8080808080808080808080808080808080808080808080808080808080808080808080"
    "80808080808080808080808080808080"
)


def _pipeline_model():
    cfg = mae.TMAEConfig(
        patch_size=8, channels=1, enc_d_model=16, enc_depth=1, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    return mae.init_model(cfg, seed=0)


def test_container_golden_bytes():
    img = np.full((8, 8, 1), 128, dtype=np.uint8)
    cfg = pl.PipelineConfig(
        patch_size=8, mask_ratio=0.0, seed=7, codec=CodecParams(CODEC_NULL, 50)
    )
    blob = pl.compress(img, cfg).to_bytes()
    assert blob == GOLDEN_CONTAINER
    assert len(blob) == 118


def test_container_parse_golden():
    c = pl.container_from_bytes(GOLDEN_CONTAINER)
    assert (c.orig_width, c.orig_height, c.channels) == (8, 8, 1)
    assert (c.patch_size, c.n_patches, c.keep_count, c.seed) == (8, 1, 1, 7)
    assert c.codec == CodecParams(CODEC_NULL, 50)
    assert c.total_bytes == 118


def test_container_round_trip():
    img = np.random.default_rng(0).integers(0, 256, (24, 33, 3), dtype=np.uint8)
    c = pl.compress(img, pl.PipelineConfig(patch_size=16, mask_ratio=0.6, seed=3))
    assert pl.container_from_bytes(c.to_bytes()) == c


def test_compress_deterministic():
    img = np.random.default_rng(1).integers(0, 256, (32, 32, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.5, seed=9)
    assert pl.compress(img, cfg).to_bytes() == pl.compress(img, cfg).to_bytes()


def _header(**overrides):
    fields = dict(
        magic=b"TMAE", version=1, w=16, h=16, channels=1, patch=8,
        n_patches=4, keep=2, seed=0, alg=1, codec=0, quality=50,
    )
    fields.update(overrides)
    return struct.pack(
        "<4sBIIBHIIQBBB",
        fields["magic"], fields["version"], fields["w"], fields["h"],
        fields["channels"], fields["patch"], fields["n_patches"],
        fields["keep"], fields["seed"], fields["alg"], fields["codec"],
        fields["quality"],
    )


@pytest.mark.parametrize(
    "blob",
    [
        GOLDEN_CONTAINER[:20],  # truncated header
        _header(magic=b"JUNK"),
        _header(version=9),
        _header(alg=2),
        _header(w=0),
        _header(h=0),
        _header(channels=2),
        _header(patch=0),
        _header(n_patches=5),  # inconsistent with dims
        _header(w=4096, h=2048, patch=1, n_patches=4096 * 2048, keep=1),  # too many
        _header(keep=0),
        _header(keep=5),  # exceeds n_patches
        _header(codec=9),
        _header(quality=0),
        _header(quality=101),
    ],
)
def test_container_rejects_malformed(blob):
    with pytest.raises(ContainerError):
        pl.container_from_bytes(blob)


def test_decompress_rejects_oversized_varint():
    # an 8x8x1 image, nothing masked; its one block holds a ten-byte varint
    # whose value needs more than 64 bits
    payload = bytes([0] + [0xFF] * 9 + [0x7F, 0xFF])
    bits = struct.pack("<4sBBIIBI", b"BDC1", CODEC_DCT, 50, 8, 8, 1, len(payload)) + payload
    blob = _header(w=8, h=8, n_patches=1, keep=1, codec=CODEC_DCT) + bits
    with pytest.raises(BitstreamError) as err:
        pl.decompress(pl.container_from_bytes(blob), model=None)
    assert err.value.offset == 29


@pytest.mark.parametrize(
    "codec", [CodecParams(CODEC_NULL, 7), CodecParams(CODEC_DCT, 7), CodecParams(CODEC_NULL, 90)]
)
def test_decompress_rejects_payload_of_another_codec(codec):
    img = np.random.default_rng(4).integers(0, 256, (16, 16, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.0, seed=1, codec=CodecParams(CODEC_DCT, 90))
    forged = dataclasses.replace(pl.compress(img, cfg), codec=codec)
    with pytest.raises(ContainerError, match="stream header"):
        pl.decompress(pl.container_from_bytes(forged.to_bytes()), model=None)


def test_decompress_rejects_oversized_payload_before_decoding():
    # a 16x16 container whose payload declares a 512x512 image
    params = CodecParams(CODEC_DCT, 50)
    payload = codec_encode(np.zeros((512, 512, 1), dtype=np.uint8), params)
    container = pl.Container(
        orig_width=16, orig_height=16, channels=1, patch_size=8, n_patches=4,
        keep_count=4, seed=0, codec=params, payload=payload,
    )
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError):
            pl.decompress(container, model=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


# (shape, patch size) of images whose container container_from_bytes refuses:
# channels other than 1 or 3, and 2049 * 2048 patches, past the 2**22 bound.
UNPARSABLE_IMAGES = [((8, 8, 2), 8), ((8, 8, 4), 8), ((8, 8, 256), 8), ((2049, 2048), 1), ((2049, 2048, 3), 1)]


@pytest.mark.parametrize("shape,patch", UNPARSABLE_IMAGES)
def test_compress_refuses_what_the_parser_refuses(shape, patch):
    # a broadcast view costs nothing, so only a look at the shape stays small
    img = np.broadcast_to(np.zeros((1,) * len(shape), dtype=np.uint8), shape)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError):
            pl.compress(img, pl.PipelineConfig(patch_size=patch, mask_ratio=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


def test_compress_refuses_an_oversized_condensed_image_from_its_shape(monkeypatch):
    # 17x17 = 289 patches of 1024, well inside the patch bound; at ratio 0
    # they make a 17408x17408 condensed image, more samples than codec_encode
    # takes. A broadcast view costs nothing, so only a look at the shape
    # stays small.
    img = np.broadcast_to(np.zeros((1, 1, 1), dtype=np.uint8), (17000, 17000, 1))

    def unreachable(*args, **kwargs):
        raise AssertionError("compress cut patches out of an image it must refuse")

    # every step that cuts patches out of the image, before and after the
    # uint8 gather, so that no version of compress allocates here
    for name in ("patchify", "gather_patches", "stack_visible"):
        monkeypatch.setattr(pl, name, unreachable, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="condensed image"):
            pl.compress(img, pl.PipelineConfig(patch_size=1024, mask_ratio=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


@pytest.mark.parametrize("where,value", [("kept", np.nan), ("masked", np.nan), ("kept", np.inf)])
def test_compress_refuses_non_finite_samples(where, value, monkeypatch):
    img = np.random.default_rng(9).random((16, 16, 3))
    config = pl.PipelineConfig(patch_size=8, mask_ratio=0.5, seed=4)
    spec = generate_mask(config.seed, 4, config.mask_ratio)
    patch = (spec.keep_indices if where == "kept" else spec.masked_indices)[0]
    r, c = divmod(patch, 2)
    img[8 * r + 3, 8 * c + 5, 1] = value

    def unreachable(*args, **kwargs):
        raise AssertionError("a non-finite image reached the codec")

    monkeypatch.setattr(pl, "codec_encode", unreachable)
    with pytest.raises(NumericError):
        pl.compress(img, config)


@pytest.mark.parametrize("shape", [(21, 13, 1), (21, 16, 1), (16, 13, 3)])
def test_decompress_of_a_padded_image_returns_its_own_array(shape):
    img = np.random.default_rng(10).integers(0, 256, shape, dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.0, seed=0, codec=CodecParams(CODEC_NULL, 50))
    out = pl.decompress(pl.compress(img, cfg), model=None)
    assert out.flags.c_contiguous and out.flags.owndata
    np.testing.assert_array_equal(out, img)


def test_lossless_degenerate_path():
    """Nothing masked plus the raw codec reproduces the image bit for bit."""
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (16, 16, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(
        patch_size=8, mask_ratio=0.0, seed=0, codec=CodecParams(CODEC_NULL, 50)
    )
    out = pl.decompress(pl.compress(img, cfg), model=None)
    np.testing.assert_array_equal(out, img)


def test_lossless_path_odd_dims_rgb():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (21, 13, 3), dtype=np.uint8)
    cfg = pl.PipelineConfig(
        patch_size=8, mask_ratio=0.0, seed=5, codec=CodecParams(CODEC_NULL, 50)
    )
    out = pl.decompress(pl.compress(img, cfg), model=None)
    assert out.shape == img.shape
    np.testing.assert_array_equal(out, img)


def test_mask_agreement_between_ends():
    """The receiver rebuilds the identical mask from the header triple."""
    img = np.zeros((40, 40, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.67, seed=123)
    c = pl.compress(img, cfg)
    assert c.mask_spec() == generate_mask(123, c.n_patches, 0.67)


def test_visible_patches_match_codec_output_not_original():
    """After a lossy codec the passthrough copies decoded pixels verbatim."""
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (32, 32, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(
        patch_size=8, mask_ratio=0.5, seed=2, codec=CodecParams(CODEC_DCT, 60)
    )
    c = pl.compress(img, cfg)
    model = _pipeline_model()
    out = pl.decompress(c, model)

    spec, grid = c.mask_spec(), c.padded_grid()
    visible = unstack_visible(codec_decode(c.payload), spec, grid)
    p = c.patch_size
    for s, idx in enumerate(spec.keep_indices):
        r, col = divmod(idx, grid.grid_cols)
        block = out[r * p : (r + 1) * p, col * p : (col + 1) * p, 0] / 255.0
        expected = visible[s].reshape(p, p)
        assert np.abs(block - expected).max() <= 1 / 255.0 + 1e-12


def test_decompress_model_mismatch():
    img = np.zeros((32, 32, 1), dtype=np.uint8)
    c = pl.compress(img, pl.PipelineConfig(patch_size=16, mask_ratio=0.5, seed=0))
    with pytest.raises(ContractError):
        pl.decompress(c, _pipeline_model())  # model built for patch 8


def test_decompress_requires_model_when_masked():
    img = np.zeros((32, 32, 1), dtype=np.uint8)
    c = pl.compress(img, pl.PipelineConfig(patch_size=8, mask_ratio=0.5, seed=0))
    with pytest.raises(ContractError):
        pl.decompress(c, model=None)


def test_end_to_end_reconstruction_shape_and_range():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (40, 24, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.6, seed=1)
    out = pl.decompress(pl.compress(img, cfg), _pipeline_model())
    assert out.shape == img.shape and out.dtype == np.uint8


# -- the uint8 path against the float composition it replaced --------------------


def _float_compress(image, config):
    """The transmitter in float64: patchify, stack with PAD_VALUE pads, then to_uint8."""
    patches, grid = patchify(image, config.patch_size)
    spec = generate_mask(config.seed, grid.n_patches, config.mask_ratio)
    cgrid = condensed_grid_for(spec.keep_count, grid)
    slots = np.full((cgrid.n_patches, grid.patch_dim), PAD_VALUE)
    slots[: spec.keep_count] = patches.data[list(spec.keep_indices)]
    payload = codec_encode(to_uint8(unpatchify(slots, cgrid)), config.codec)
    return pl.Container(
        orig_width=image.shape[1], orig_height=image.shape[0], channels=grid.channels,
        patch_size=config.patch_size, n_patches=grid.n_patches, keep_count=spec.keep_count,
        seed=config.seed, codec=config.codec, payload=payload,
    )


def _float_decompress(container, model):
    """The receiver in float64: reconstruct in [0, 1], then to_uint8 of the crop."""
    spec, grid = container.mask_spec(), container.padded_grid()
    visible = unstack_visible(codec_decode(container.payload), spec, grid)
    full = np.empty((spec.n_patches, grid.patch_dim))
    full[list(spec.keep_indices)] = visible
    if spec.masked_indices:
        masked = list(spec.masked_indices)
        latent = mae.encode_visible(visible, spec.keep_indices, model)
        full[masked] = np.clip(mae.decode_full(latent, spec, model, masked).data, 0.0, 1.0)
    recon = unpatchify(full, grid)
    return to_uint8(recon[: container.orig_height, : container.orig_width])


def _sample_image(rng, shape, dtype):
    """Samples of dtype that reach past the 8-bit range where the dtype can."""
    if dtype is bool:
        return rng.random(shape) > 0.5
    if dtype is np.float64:
        return rng.normal(0.5, 0.5, shape)
    if dtype is np.uint8:
        return rng.integers(0, 256, shape, dtype=np.uint8)
    low = 0 if dtype is np.uint16 else -300
    return rng.integers(low, 1000, shape).astype(dtype)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64, bool])
def test_compress_and_decompress_match_the_float_path(dtype, channels):
    rng = np.random.default_rng(channels)
    cfg = mae.TMAEConfig(
        patch_size=8, channels=channels, enc_d_model=16, enc_depth=1, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    model = mae.init_model(cfg, seed=channels)
    for height, width in [(21, 13), (33, 70)]:
        shape = (height, width) if channels == 1 else (height, width, channels)
        image = _sample_image(rng, shape, dtype)
        for ratio in (0.0, 0.5, 0.9):
            for codec in (CodecParams(CODEC_NULL, 50), CodecParams(CODEC_DCT, 50)):
                config = pl.PipelineConfig(patch_size=8, mask_ratio=ratio, seed=3, codec=codec)
                container = pl.compress(image, config)
                expected = _float_compress(image, config)
                assert container.to_bytes() == expected.to_bytes(), (shape, ratio, codec)
                out = pl.decompress(container, model)
                assert out.dtype == np.uint8 and out.shape == (height, width, channels)
                assert np.array_equal(out, _float_decompress(expected, model)), (shape, ratio, codec)


# One 768x512x3 round trip at patch 16, ratio 0.67, q50, decoded with an
# untrained model of the benchmark's rgb_p16 shape after save_bytes/load_bytes.
# It reaches what the small goldens do not: 48-patch condensed rows, several
# 1024-block entropy passes and the receiver's two attention row halves.
KODAK_CONTAINER_SHA256 = "70373342c932508e4f54b794534ee8b940e2a402910a548569aa4741519d7194"
KODAK_DECODE_SHA256 = "ef778fd5918ce5fc3713b506b398db563b87652b97d74efa93e38a38da5777ec"


@pytest.fixture(scope="module")
def kodak_case():
    cfg = mae.TMAEConfig(
        patch_size=16, channels=3, enc_d_model=32, enc_depth=2, enc_heads=2,
        enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
    )
    model = mae.load_bytes(mae.save_bytes(mae.init_model(cfg, seed=0)))
    image = np.ascontiguousarray(dataset.synthetic_corpus(1, 768, 3, seed=1)[0][1][:512])
    config = pl.PipelineConfig(16, 0.67, 1, CodecParams(CODEC_DCT, 50))
    return image, config, model


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kodak_sized_round_trip_golden_digest(kodak_case):
    image, config, model = kodak_case
    blob = pl.compress(image, config).to_bytes()
    out = pl.decompress(pl.container_from_bytes(blob), model)
    assert out.shape == image.shape
    assert hashlib.sha256(blob).hexdigest() == KODAK_CONTAINER_SHA256
    assert hashlib.sha256(out.tobytes()).hexdigest() == KODAK_DECODE_SHA256


def test_kodak_sized_round_trip_peak_memory(kodak_case):
    image, config, model = kodak_case
    container, compress_peak = _traced_peak(lambda: pl.compress(image, config))
    _, decompress_peak = _traced_peak(lambda: pl.decompress(container, model))
    # the 1.2 MB uint8 image stays uint8 outside the codec's per-plane
    # transform and the model
    assert compress_peak < 12 * 2**20, f"compress peak {compress_peak / 2**20:.1f} MiB"
    assert decompress_peak < 24 * 2**20, f"decompress peak {decompress_peak / 2**20:.1f} MiB"


def test_pipeline_config_validation():
    with pytest.raises(ContractError):
        pl.PipelineConfig(patch_size=0)
    with pytest.raises(ContractError):
        pl.PipelineConfig(mask_ratio=1.0)
    with pytest.raises(ContractError):
        pl.PipelineConfig(seed=-1)
    with pytest.raises(ContractError):
        pl.PipelineConfig(seed=1 << 64)
    # the TMAE header holds patch_size as u16; a larger one must fail here,
    # before compress pads the image to patch_size^2 pixels
    assert pl.PipelineConfig(patch_size=0xFFFF).patch_size == 0xFFFF
    with pytest.raises(ContractError, match="u16"):
        pl.PipelineConfig(patch_size=70000)


# -- rate accounting -----------------------------------------------------------


def _decomposition_is_exact(report):
    """Float fields must be correct roundings of rationals satisfying the
    identity payload_bpp == stacked_bpp * (condensed / original) exactly."""
    pb = 8 * report.payload_bytes
    payload = Fraction(pb, report.original_pixels)
    stacked = Fraction(pb, report.condensed_pixels)
    ratio = Fraction(report.condensed_pixels, report.original_pixels)
    assert payload == stacked * ratio
    assert report.payload_bpp == float(payload)
    assert report.stacked_bpp == float(stacked)
    overall = Fraction(8 * (report.header_bytes + report.payload_bytes),
                       report.original_pixels)
    assert report.overall_bpp == float(overall)


def test_rate_decomposition_exact_over_settings():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (48, 33, 3), dtype=np.uint8)
    for ratio in (0.0, 0.4, 0.75):
        for q in (30, 80):
            c = pl.compress(
                img,
                pl.PipelineConfig(patch_size=16, mask_ratio=ratio, seed=4,
                                  codec=CodecParams(CODEC_DCT, q)),
            )
            _decomposition_is_exact(pl.rate_report(c))


def test_condensed_fraction_tracks_mask_ratio():
    """Condensed pixel share sits within one patch row of 1 - R."""
    img = np.zeros((64, 64, 1), dtype=np.uint8)
    for ratio in (0.0, 0.3, 0.67, 0.9):
        c = pl.compress(img, pl.PipelineConfig(patch_size=8, mask_ratio=ratio, seed=8))
        rep = pl.rate_report(c)
        grid = c.padded_grid()
        padded_pixels = grid.width * grid.height
        share = rep.condensed_pixels / padded_pixels
        row_share = grid.grid_cols * c.patch_size**2 / padded_pixels
        assert abs(share - c.keep_count / c.n_patches) <= row_share + 1e-12
        assert abs(share - (1.0 - ratio)) <= row_share + 1.0 / c.n_patches + 1e-12


def test_rate_report_null_codec_no_mask_is_8bpp_plus_header():
    img = np.zeros((32, 32, 1), dtype=np.uint8)
    c = pl.compress(
        img,
        pl.PipelineConfig(patch_size=8, mask_ratio=0.0, seed=0,
                          codec=CodecParams(CODEC_NULL, 50)),
    )
    rep = pl.rate_report(c)
    # raw samples are 8 bits each plus the fixed codec header
    assert rep.stacked_bpp == 8.0 + 8.0 * 19 / 1024
    assert rep.condensed_pixels == rep.original_pixels == 1024
    assert rep.payload_bpp == rep.stacked_bpp


@given(
    w=st.integers(min_value=1, max_value=100),
    h=st.integers(min_value=1, max_value=100),
    patch=st.sampled_from([4, 8, 16]),
    keep_frac=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_container_header_round_trip_property(w, h, patch, keep_frac, seed):
    cols, rows = -(-w // patch), -(-h // patch)
    n = cols * rows
    keep = max(1, min(n, int(round(keep_frac * n))))
    c = pl.Container(
        orig_width=w, orig_height=h, channels=1, patch_size=patch,
        n_patches=n, keep_count=keep, seed=seed,
        codec=CodecParams(CODEC_DCT, 75), payload=b"xyz",
    )
    assert pl.container_from_bytes(c.to_bytes()) == c
