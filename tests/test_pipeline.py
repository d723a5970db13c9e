"""Container format, compress/decompress paths, rate accounting."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import dataset, mae
from maecodec import pipeline as pl
from maecodec.codec import CODEC_DCT, CODEC_NULL, CodecParams, codec_decode, codec_encode
from maecodec.errors import ContractError, ShapeError
from maecodec.masking import (
    PAD_VALUE,
    condensed_grid_for,
    generate_mask,
    patchify,
    to_uint8,
    unpatchify,
    unstack_visible,
)

from conftest import P8_MAE_CONFIG, p8_model, traced_peak

# 8x8 constant-gray image, patch 8, nothing masked, null codec, seed 7.
# 35-byte container header + 19-byte codec header + 64 raw samples.
GOLDEN_CONTAINER = bytes.fromhex(
    "544d41450108000000080000000108000100000001000000070000000000000001"
    "00324244433100320800000008000000014000000080808080808080808080808080"
    "8080808080808080808080808080808080808080808080808080808080808080808080"
    "80808080808080808080808080808080"
)


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


# (shape, patch size) of images whose container container_from_bytes refuses:
# channels other than 1 or 3, and 2049 * 2048 patches, past the 2**22 bound;
# and an HxW array, whose channel count no container can state.
UNPARSABLE_IMAGES = [
    ((8, 8, 2), 8), ((8, 8, 4), 8), ((8, 8, 256), 8), ((2049, 2048, 1), 1), ((2049, 2048, 3), 1),
    ((8, 8), 8),
]


@pytest.mark.parametrize("shape,patch", UNPARSABLE_IMAGES)
def test_compress_refuses_what_the_parser_refuses(shape, patch):
    # a broadcast view costs nothing, so only a look at the shape stays small
    img = np.broadcast_to(np.zeros((1,) * len(shape), dtype=np.uint8), shape)
    with traced_peak() as trace, pytest.raises(ShapeError):
        pl.compress(img, pl.PipelineConfig(patch_size=patch, mask_ratio=0.5))
    assert trace.peak < 2**20, f"peak {trace.peak} bytes"


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
    with traced_peak() as trace, pytest.raises(ShapeError, match="condensed image"):
        pl.compress(img, pl.PipelineConfig(patch_size=1024, mask_ratio=0.0))
    assert trace.peak < 2**20, f"peak {trace.peak} bytes"


def test_compress_refuses_non_uint8_images(non_uint8_image, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("compress cut or encoded an image it must refuse")

    for name in ("gather_patches", "codec_encode"):
        monkeypatch.setattr(pl, name, unreachable)
    with pytest.raises(ContractError, match="uint8"):
        pl.compress(non_uint8_image, pl.PipelineConfig(patch_size=8, mask_ratio=0.5, seed=4))


@pytest.mark.parametrize("shape", [(21, 13, 1), (21, 16, 1), (16, 13, 3)])
def test_decompress_of_a_padded_image_returns_its_own_array(shape):
    img = np.random.default_rng(10).integers(0, 256, shape, dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.0, seed=0, codec=CodecParams(CODEC_NULL, 50))
    out = pl.decompress(pl.compress(img, cfg), model=None)
    assert out.flags.c_contiguous and out.flags.owndata
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
    model = p8_model()
    out = pl.decompress(c, model)

    spec, grid = c.mask_spec(), c.padded_grid()
    visible = unstack_visible(codec_decode(c.payload), spec, grid)
    p = c.patch_size
    for s, idx in enumerate(spec.keep_indices):
        r, col = divmod(idx, grid.grid_cols)
        block = out[r * p : (r + 1) * p, col * p : (col + 1) * p, 0] / 255.0
        expected = visible[s].reshape(p, p)
        assert np.abs(block - expected).max() <= 1 / 255.0 + 1e-12


def test_end_to_end_reconstruction_shape_and_range():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (40, 24, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.6, seed=1)
    out = pl.decompress(pl.compress(img, cfg), p8_model())
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
        full[masked] = np.clip(mae.decode_full(latent, spec, model).data, 0.0, 1.0)
    recon = unpatchify(full, grid)
    return to_uint8(recon[: container.orig_height, : container.orig_width])


@pytest.mark.parametrize("channels", [1, 3])
def test_compress_and_decompress_match_the_float_path(channels):
    rng = np.random.default_rng(channels)
    model = mae.init_model(replace(P8_MAE_CONFIG, channels=channels), seed=channels)
    for height, width in [(21, 13), (33, 70)]:
        shape = (height, width, channels)
        image = rng.integers(0, 256, shape, dtype=np.uint8)
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
# 1024-block entropy passes and attention maps of many row blocks.
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


def test_kodak_sized_round_trip_golden_digest(kodak_case):
    image, config, model = kodak_case
    blob = pl.compress(image, config).to_bytes()
    out = pl.decompress(pl.container_from_bytes(blob), model)
    assert out.shape == image.shape
    assert hashlib.sha256(blob).hexdigest() == KODAK_CONTAINER_SHA256
    assert hashlib.sha256(out.tobytes()).hexdigest() == KODAK_DECODE_SHA256


def test_kodak_sized_round_trip_peak_memory(kodak_case):
    image, config, model = kodak_case
    with traced_peak() as compress:
        container = pl.compress(image, config)
    with traced_peak() as decompress:
        pl.decompress(container, model)
    # the 1.2 MB uint8 image stays uint8 outside the codec's band-wise
    # transform and the model; reconstruct quantizes a row block at a time
    # (decompress: 12.9 MiB measured, 18.6 with whole-array to_uint8 calls;
    # bound at that plus 15 %)
    assert compress.peak < 12 * 2**20, f"compress peak {compress.peak / 2**20:.1f} MiB"
    assert decompress.peak < 14.8 * 2**20, f"decompress peak {decompress.peak / 2**20:.1f} MiB"


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
