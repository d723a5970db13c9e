"""Block codec: transform/quantizer closed forms, golden bitstreams,
round trips, rate/quality monotonicity, malformed-stream handling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import codec, metrics
from maecodec.codec import (
    CODEC_DCT,
    CODEC_NULL,
    HEADER_BYTES,
    CodecParams,
    codec_decode,
    codec_encode,
)
from maecodec.dataset import synthetic_image
from maecodec.errors import BitstreamError, ContractError, ShapeError
from maecodec.pipeline import PipelineConfig, compress

# Standard zigzag scan of an 8x8 block, frozen from the usual table.
ZIGZAG_REFERENCE = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
]

GOLDEN_NULL_2X3 = bytes.fromhex("424443310032030000000200000001060000000a141e28323c")
GOLDEN_DCT_GRADIENT = bytes.fromhex(
    "4244433101320800000008000000010b0000000001000d006106070a01ff"
)

# SHA-256 over the bitstreams, decoded pixels and containers of the seeded
# cases below. Any change to a transform, quantizer or entropy-coder byte
# shows up here.
GOLDEN_QUALITIES = (1, 10, 50, 90, 100)
GOLDEN_CODEC_SHA256 = "872116cfb2636eb05523284226c1289c2e8ab43a5b1b4b2ac747c40406010cc5"
GOLDEN_CONTAINER_SHA256 = "301f6d46613c5982c15003d8d4de57c42cfb6a8e3a2d37cf3a728135a5242f37"


# -- transform ----------------------------------------------------------------


def test_dct_constant_block_single_coefficient():
    coeffs = codec.dct_block(np.full((8, 8), 7.0))
    assert abs(coeffs[0, 0] - 56.0) < 1e-10  # 8 * constant for the orthonormal DCT
    off_dc = coeffs.copy()
    off_dc[0, 0] = 0.0
    assert np.abs(off_dc).max() < 1e-10


def test_dct_zero_block():
    assert not codec.dct_block(np.zeros((8, 8))).any()


def test_dct_round_trip_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        block = rng.normal(size=(8, 8)) * 100
        np.testing.assert_allclose(codec.idct_block(codec.dct_block(block)), block, atol=1e-10)
    stack = rng.normal(size=(5, 8, 8)) * 100
    coeffs = codec.dct_block(stack)
    for block, block_coeffs in zip(stack, coeffs):
        np.testing.assert_array_equal(codec.dct_block(block), block_coeffs)
    np.testing.assert_allclose(codec.idct_block(coeffs), stack, atol=1e-10)


def test_dct_matrix_is_orthonormal():
    np.testing.assert_allclose(codec.DCT_MATRIX @ codec.DCT_MATRIX.T, np.eye(8), atol=1e-12)


def test_dct_rejects_wrong_shape():
    for shape in ((4, 4), (3, 4, 4)):
        with pytest.raises(ShapeError):
            codec.dct_block(np.zeros(shape))
        with pytest.raises(ShapeError):
            codec.idct_block(np.zeros(shape))


# -- quantizer ------------------------------------------------------------------


def test_quant_table_q50_is_base():
    np.testing.assert_array_equal(codec.quant_table(50), codec.BASE_QUANT_TABLE)


def test_quant_table_q100_all_ones():
    np.testing.assert_array_equal(codec.quant_table(100), np.ones((8, 8), dtype=np.int64))


def test_quant_table_low_quality_exact_rational():
    # q < 50: scale = 5000/q, entry floor((t*scale + 50)/100) without float error
    for q in (1, 7, 10, 25, 49):
        t = codec.BASE_QUANT_TABLE
        expected = np.clip((t * 5000 + 50 * q) // (100 * q), 1, 255)
        np.testing.assert_array_equal(codec.quant_table(q), expected)


def test_quant_table_clamped_to_byte_range():
    for q in (1, 5, 95, 100):
        table = codec.quant_table(q)
        assert table.min() >= 1 and table.max() <= 255


def test_quantize_zero_coefficients():
    assert not codec.quantize(np.zeros((8, 8)), 75).any()


def test_quantize_rounds_half_away_from_zero():
    table = codec.quant_table(50)
    coeffs = table * 0.5
    np.testing.assert_array_equal(codec.quantize(coeffs, 50), np.ones((8, 8), dtype=np.int64))
    np.testing.assert_array_equal(codec.quantize(-coeffs, 50), -np.ones((8, 8), dtype=np.int64))


def test_quant_rejects_out_of_range():
    for q in (0, 101, -3):
        with pytest.raises(ContractError):
            codec.quant_table(q)


def test_zigzag_matches_reference_table():
    assert codec.ZIGZAG.tolist() == ZIGZAG_REFERENCE


# -- bitstream golden files -------------------------------------------------------


def test_null_golden_bytes():
    img = np.array([[[10], [20], [30]], [[40], [50], [60]]], dtype=np.uint8)
    assert codec_encode(img, CodecParams(CODEC_NULL, 50)) == GOLDEN_NULL_2X3


def test_dct_golden_bytes():
    img = (np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)[:, :, None]
    assert codec_encode(img, CodecParams(CODEC_DCT, 50)) == GOLDEN_DCT_GRADIENT


def test_header_layout():
    img = np.zeros((2, 3, 1), dtype=np.uint8)
    bits = codec_encode(img, CodecParams(CODEC_NULL, 50))
    assert bits[:4] == b"BDC1"
    assert bits[4] == CODEC_NULL
    assert bits[5] == 50
    assert int.from_bytes(bits[6:10], "little") == 3  # width
    assert int.from_bytes(bits[10:14], "little") == 2  # height
    assert bits[14] == 1  # channels
    assert int.from_bytes(bits[15:19], "little") == len(bits) - HEADER_BYTES


def _golden_images():
    rng = np.random.default_rng(2401)
    for c in (1, 3):
        yield synthetic_image(rng, 13, c)
        yield synthetic_image(rng, 40, c)
        yield rng.integers(0, 256, (5, 20, c), dtype=np.uint8)
        yield rng.integers(0, 256, (33, 70, c), dtype=np.uint8)


def test_codec_golden_digest():
    digest = hashlib.sha256()
    for img in _golden_images():
        for q in GOLDEN_QUALITIES:
            bits = codec_encode(img, CodecParams(CODEC_DCT, q))
            digest.update(bits)
            digest.update(codec_decode(bits).tobytes())
    assert digest.hexdigest() == GOLDEN_CODEC_SHA256


def test_container_golden_digest():
    digest = hashlib.sha256()
    for img in _golden_images():
        for patch in (8, 16):
            for q in GOLDEN_QUALITIES:
                config = PipelineConfig(patch, 0.5, seed=3, codec=CodecParams(CODEC_DCT, q))
                digest.update(compress(img, config).to_bytes())
    assert digest.hexdigest() == GOLDEN_CONTAINER_SHA256


# -- round trips --------------------------------------------------------------------


def test_null_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    for shape in ((5, 3, 1), (16, 16, 3), (9, 31, 3)):
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        out = codec_decode(codec_encode(img, CodecParams(CODEC_NULL, 50)))
        assert np.array_equal(out, img)


def test_null_payload_arithmetic_kodak():
    img = np.zeros((512, 768, 3), dtype=np.uint8)
    bits = codec_encode(img, CodecParams(CODEC_NULL, 50))
    assert len(bits) == 768 * 512 * 3 + HEADER_BYTES == 1_179_648 + HEADER_BYTES


def test_encode_deterministic():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (24, 16, 3), dtype=np.uint8)
    params = CodecParams(CODEC_DCT, 30)
    assert codec_encode(img, params) == codec_encode(img, params)


def test_constant_gray_compresses_10x():
    img = np.full((64, 64, 1), 128, dtype=np.uint8)
    bits = codec_encode(img, CodecParams(CODEC_DCT, 50))
    assert img.size / (len(bits) - HEADER_BYTES) >= 10


def test_constant_images_within_one_gray_level():
    for value in (0, 51, 128, 255):
        for q in (50, 75, 100):
            img = np.full((16, 24, 3), value, dtype=np.uint8)
            out = codec_decode(codec_encode(img, CodecParams(CODEC_DCT, q)))
            assert np.abs(out.astype(int) - value).max() <= 1


def test_q100_near_lossless_on_structured_images():
    rng = np.random.default_rng(3)
    for _ in range(3):
        img = synthetic_image(rng, 64, 3)
        out = codec_decode(codec_encode(img, CodecParams(CODEC_DCT, 100)))
        assert metrics.psnr(img, out) > 45.0


def test_distortion_decreases_with_quality():
    rng = np.random.default_rng(4)
    img = synthetic_image(rng, 64, 1)
    errs = [
        metrics.mse(img, codec_decode(codec_encode(img, CodecParams(CODEC_DCT, q))))
        for q in (10, 50, 90)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_rate_quality_monotonicity_on_corpus():
    # payload non-decreasing and PSNR non-decreasing in q on >= 95% of steps
    rng = np.random.default_rng(5)
    qs = (10, 30, 50, 70, 90)
    total = ok_rate = ok_psnr = 0
    for _ in range(50):
        img = synthetic_image(rng, 32, 1)
        sizes, psnrs = [], []
        for q in qs:
            bits = codec_encode(img, CodecParams(CODEC_DCT, q))
            sizes.append(len(bits))
            psnrs.append(metrics.psnr(img, codec_decode(bits)))
        for a, b in zip(sizes, sizes[1:]):
            total += 1
            ok_rate += a <= b
        for a, b in zip(psnrs, psnrs[1:]):
            ok_psnr += a <= b
    assert ok_rate / total >= 0.95
    assert ok_psnr / total >= 0.95


def test_encode_rejects_non_uint8():
    with pytest.raises(ContractError):
        codec_encode(np.zeros((8, 8, 1)), CodecParams(CODEC_DCT, 50))


def test_encode_rejects_empty():
    with pytest.raises(ShapeError):
        codec_encode(np.zeros((0, 8, 1), dtype=np.uint8), CodecParams(CODEC_DCT, 50))


def test_params_validate():
    with pytest.raises(ContractError):
        CodecParams(CODEC_DCT, 0)
    with pytest.raises(ContractError):
        CodecParams(7, 50)


# -- malformed streams ---------------------------------------------------------------


def _valid_dct_stream():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    return codec_encode(img, CodecParams(CODEC_DCT, 40))


def test_decode_rejects_short_header():
    with pytest.raises(BitstreamError) as err:
        codec_decode(b"BDC1")
    assert err.value.offset == 0
    assert "byte offset" in str(err.value)


def test_decode_rejects_bad_magic():
    bits = bytearray(_valid_dct_stream())
    bits[0] = 0x58
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


def test_decode_rejects_unknown_codec_id():
    bits = bytearray(_valid_dct_stream())
    bits[4] = 9
    with pytest.raises(BitstreamError) as err:
        codec_decode(bytes(bits))
    assert err.value.offset == 4


def test_decode_rejects_bad_quality():
    bits = bytearray(_valid_dct_stream())
    bits[5] = 0
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


def test_decode_rejects_zero_dims():
    bits = bytearray(_valid_dct_stream())
    bits[6:10] = (0).to_bytes(4, "little")
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


def test_decode_rejects_giant_dims_without_allocating():
    bits = bytearray(_valid_dct_stream())
    bits[6:10] = (1 << 30).to_bytes(4, "little")
    bits[10:14] = (1 << 30).to_bytes(4, "little")
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


def test_decode_rejects_wrong_payload_length():
    bits = _valid_dct_stream()
    with pytest.raises(BitstreamError):
        codec_decode(bits + b"\x00")


def test_decode_rejects_null_size_mismatch():
    img = np.zeros((4, 4, 1), dtype=np.uint8)
    bits = bytearray(codec_encode(img, CodecParams(CODEC_NULL, 50)))
    bits[6:10] = (5).to_bytes(4, "little")  # width 5 won't match 16 samples
    # keep payload_len consistent with the actual bytes so the size check fires
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


def test_every_truncation_raises_structured_error():
    bits = _valid_dct_stream()
    for cut in range(len(bits)):
        truncated = bits[:cut]
        # adjusting nothing: payload_len in the header no longer matches
        with pytest.raises(BitstreamError) as err:
            codec_decode(truncated)
        assert isinstance(err.value.offset, int)


def test_truncated_payload_with_consistent_header():
    # rewrite payload_len so only the block parser can notice the cut
    bits = _valid_dct_stream()
    for cut in (1, 7, 50):
        body = bytearray(bits[: len(bits) - cut])
        new_len = len(body) - HEADER_BYTES
        body[15:19] = new_len.to_bytes(4, "little")
        with pytest.raises(BitstreamError):
            codec_decode(bytes(body))


def test_run_overflow_rejected():
    # one block claiming a run past coefficient 64
    header = codec._HEADER.pack(b"BDC1", CODEC_DCT, 50, 8, 8, 1, 3)
    payload = bytes([63, 2, 63])  # second run lands beyond the block
    with pytest.raises(BitstreamError):
        codec_decode(header + payload)


def _dct_stream(w, h, c, payload):
    return codec._HEADER.pack(b"BDC1", CODEC_DCT, 50, w, h, c, len(payload)) + payload


# (width, height, channels, payload, message, offset) of hand-built streams
# whose entropy payload is malformed; offsets count from the stream's start.
PAYLOAD_ERRORS = [
    # a run of 63, value 1, then a run of 63 lands past coefficient 63
    (8, 8, 1, bytes([63, 2, 63]), "coefficient run overflows the block (127)", 21),
    # one (run, value) pair, then the payload ends before END_OF_BLOCK
    (8, 8, 1, bytes([0, 2]), "block truncated before end marker", 21),
    # a varint continuation bit on the last payload byte
    (8, 8, 1, bytes([0, 0x80]), "varint runs past end of payload", 21),
    # ten bytes with the continuation bit make an 11-byte varint
    (8, 8, 1, bytes([0] + [0xFF] * 10 + [0x01]), "varint longer than 64 bits", 30),
    # 16x8x3: channel 0 is two empty blocks, channel 1's first block ends early
    (16, 8, 3, bytes([0xFF, 0xFF, 0, 2, 3, 4]), "block truncated before end marker", 25),
]


@pytest.mark.parametrize("w,h,c,payload,message,offset", PAYLOAD_ERRORS)
def test_payload_error_messages_and_offsets(w, h, c, payload, message, offset):
    with pytest.raises(BitstreamError) as err:
        codec_decode(_dct_stream(w, h, c, payload))
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


def test_trailing_garbage_rejected():
    img = np.zeros((8, 8, 1), dtype=np.uint8)
    bits = bytearray(codec_encode(img, CodecParams(CODEC_DCT, 50)))
    bits[15:19] = (len(bits) - HEADER_BYTES + 2).to_bytes(4, "little")
    bits += b"\x00\x00"
    with pytest.raises(BitstreamError):
        codec_decode(bytes(bits))


# u = 0x7F << 63 | (2**63 - 1) and u = 2**64: ten varint bytes, too many bits
OVERSIZED_VARINTS = [bytes([0xFF] * 9 + [0x7F]), bytes([0x80] * 9 + [0x02])]


@pytest.mark.parametrize("varint", OVERSIZED_VARINTS)
def test_oversized_varint_rejected(varint):
    bits = _dct_stream(8, 8, 1, bytes([0]) + varint + bytes([0xFF]))
    assert len(bits) == 31
    with pytest.raises(BitstreamError) as err:
        codec_decode(bits)
    assert str(err.value) == "varint longer than 64 bits (byte offset 29)"


def test_largest_varint_decodes():
    # u = 2**64 - 1 zigzag-maps to -2**63, the smallest int64
    payload = bytes([0] + [0xFF] * 9 + [0x01, 0xFF])
    coeffs, pos = codec._decode_blocks(payload, 0, 1)
    assert coeffs[0, 0] == -(2**63) and not coeffs[0, 1:].any() and pos == len(payload)
    assert codec_decode(_dct_stream(8, 8, 1, payload)).shape == (8, 8, 1)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.integers(0, 63))
@settings(max_examples=100, deadline=None)
def test_varint_round_trip(value, index):
    # the value alone in one block, between an all-zero block and a block
    # whose 64 coefficients are all nonzero
    zigzagged = np.zeros((3, 64), dtype=np.int64)
    zigzagged[1, index] = value
    zigzagged[2] = np.arange(1, 65) * (-1) ** np.arange(64)
    bits = codec._encode_blocks(zigzagged)
    decoded, pos = codec._decode_blocks(bits, 0, 3)
    assert np.array_equal(decoded, zigzagged) and pos == len(bits)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=100))
@settings(max_examples=25, deadline=None)
def test_dct_round_trip_dims_property(seed, quality):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 40))
    w = int(rng.integers(1, 40))
    c = int(rng.choice([1, 3]))
    img = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
    out = codec_decode(codec_encode(img, CodecParams(CODEC_DCT, quality)))
    assert out.shape == img.shape
