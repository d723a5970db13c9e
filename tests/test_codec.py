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
    END_OF_BLOCK,
    HEADER_BYTES,
    CodecParams,
    codec_decode,
    codec_encode,
)
from maecodec.dataset import synthetic_image
from maecodec.errors import BitstreamError, ContractError, ShapeError
from maecodec.pipeline import PipelineConfig, compress

from conftest import traced_peak

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

# The per-block statement of the transforms; the codec runs them strip by strip.


def dct_block(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of an 8x8 block or a (..., 8, 8) stack of them."""
    return codec.DCT_MATRIX @ block @ codec.DCT_MATRIX.T


def idct_block(coeffs: np.ndarray) -> np.ndarray:
    return codec.DCT_MATRIX.T @ coeffs @ codec.DCT_MATRIX


def quantize(coeffs: np.ndarray, quality: int) -> np.ndarray:
    """Round-half-away-from-zero of coeffs / table, as sign(c) * floor(|c| + 0.5)."""
    c = coeffs / codec.quant_table(quality)
    return (np.sign(c) * np.floor(np.abs(c) + 0.5)).astype(np.int64)


def dequantize(qcoeffs: np.ndarray, quality: int) -> np.ndarray:
    coeffs = np.array(qcoeffs, dtype=np.float64)
    coeffs *= codec.quant_table(quality)
    return coeffs


def _blocks(plane: np.ndarray) -> np.ndarray:
    """(rows, cols, 8, 8) view of a plane's 8x8 blocks."""
    h, w = plane.shape
    return plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)


def test_dct_constant_block_single_coefficient():
    plane = np.full((8, 8), 7.0)
    codec._transform_strips(plane, codec.DCT_MATRIX, codec.DCT_MATRIX.T, np.empty_like(plane))
    assert abs(plane[0, 0] - 56.0) < 1e-10  # 8 * constant for the orthonormal DCT
    plane[0, 0] = 0.0
    assert np.abs(plane).max() < 1e-10


def test_dct_zero_block():
    plane = np.zeros((8, 8))
    codec._transform_strips(plane, codec.DCT_MATRIX, codec.DCT_MATRIX.T, np.empty_like(plane))
    assert not plane.any()


def test_dct_round_trip_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        block = rng.normal(size=(8, 8)) * 100
        np.testing.assert_allclose(idct_block(dct_block(block)), block, atol=1e-10)
    stack = rng.normal(size=(5, 8, 8)) * 100
    coeffs = dct_block(stack)
    for block, block_coeffs in zip(stack, coeffs):
        np.testing.assert_array_equal(dct_block(block), block_coeffs)
    np.testing.assert_allclose(idct_block(coeffs), stack, atol=1e-10)


def test_dct_matrix_is_orthonormal():
    np.testing.assert_allclose(codec.DCT_MATRIX @ codec.DCT_MATRIX.T, np.eye(8), atol=1e-12)


def test_strip_transform_matches_per_block_products():
    """The strip DCT and IDCT equal dct_block and idct_block bit for bit."""
    rng = np.random.default_rng(17)
    level_shifted = rng.integers(0, 256, (13, 21)) - 128.0
    padded = np.pad(level_shifted, ((0, 3), (0, 3)), mode="edge")
    planes = [rng.normal(size=(8, 8)) * 100, padded, rng.normal(size=(176, 768)) * 100]
    d = codec.DCT_MATRIX
    for plane in planes:
        coeffs = plane.copy()
        codec._transform_strips(coeffs, d, d.T, np.empty_like(plane))
        assert np.array_equal(_blocks(coeffs), dct_block(_blocks(plane)))
        pixels = coeffs.copy()
        codec._transform_strips(pixels, d.T, d, np.empty_like(plane))
        assert np.array_equal(_blocks(pixels), idct_block(_blocks(coeffs)))


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
    assert not codec._quantize_in_place(np.zeros((8, 8)), codec.quant_table(75)).any()


def test_quantize_rounds_half_away_from_zero():
    table = codec.quant_table(50)
    ones = np.ones((8, 8), dtype=np.int64)
    np.testing.assert_array_equal(codec._quantize_in_place(table * 0.5, table), ones)
    np.testing.assert_array_equal(codec._quantize_in_place(table * -0.5, table), -ones)


def test_quantize_rounding_matches_sign_times_floor_on_ties_and_zeros():
    """c + copysign(0.5, c) truncated equals sign(c) * floor(|c| + 0.5)."""
    k = np.concatenate([np.arange(0.0, 4096.0), 2.0 ** np.arange(12.0, 52.0)])
    ties = k + 0.5
    near = np.nextafter(ties, 0.0)
    values = np.concatenate([ties, -ties, near, -near, k, -k, [0.0, -0.0]])
    expected = (np.sign(values) * np.floor(np.abs(values) + 0.5)).astype(np.int64)
    ones = np.ones_like(values)
    assert np.array_equal(codec._quantize_in_place(values.copy(), ones), expected)
    assert np.array_equal(codec._quantize_in_place(np.array([0.0, -0.0]), 1.0), [0, 0])


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


# Shapes that no bitstream codec_decode takes describes: channels other
# than 1 or 3, more than 2**28 samples, and an HxW array with no channel axis.
UNDECODABLE_SHAPES = [
    (8, 8, 2), (8, 8, 4), (8, 8, 256), (16385, 16384, 1), (9460, 9460, 3), (8, 8),
]


@pytest.mark.parametrize("codec_id", [CODEC_NULL, CODEC_DCT])
@pytest.mark.parametrize("shape", UNDECODABLE_SHAPES)
def test_encode_refuses_what_decode_refuses(shape, codec_id):
    # a broadcast view costs nothing, so only a look at the shape stays small
    img = np.broadcast_to(np.zeros((1,) * len(shape), dtype=np.uint8), shape)
    with traced_peak() as trace, pytest.raises(ShapeError):
        codec_encode(img, CodecParams(codec_id, 50))
    assert trace.peak < 2**20, f"peak {trace.peak} bytes"


def test_codec_peak_memory_on_kodak_sized_noise():
    # uniform noise at q100 makes the largest payload of any 768x512x3 image
    img = np.random.default_rng(0).integers(0, 256, (512, 768, 3), dtype=np.uint8)
    params = CodecParams(CODEC_DCT, 100)
    bits = codec_encode(img, params)
    assert len(bits) > 2_500_000
    with traced_peak() as encode:
        codec_encode(img, params)
    with traced_peak() as decode:
        codec_decode(bits)
    # the entropy coder works in bounded chunks and the encoder converts one
    # band of block strips at a time: its arrays add little to the payload
    # itself (9.23 MiB measured, bound at that plus about 14 %). The decoder
    # holds one (position, value) pair of 16 bytes per coded coefficient;
    # noise codes nearly every slot, so this costs more than a dense 8-byte
    # slot array would (31.26 MiB measured against 21.76 MiB for the dense
    # array, bound at that plus about 15 %), about 12 bytes per payload byte
    assert encode.peak <= 10.5 * 2**20, f"encode peak {encode.peak / 2**20:.1f} MiB"
    assert decode.peak <= 36 * 2**20, f"decode peak {decode.peak / 2**20:.1f} MiB"


def test_all_end_of_block_stream_decodes_within_twice_its_output():
    # a valid 1024x1024x3 stream of 49,152 END_OF_BLOCK bytes codes no
    # coefficient: the decoder's memory follows the pairs it read and one
    # band of planes, not the header's block count (5.89 MiB measured; a
    # dense coefficient array took 30.1 MiB)
    n_blocks = 128 * 128 * 3
    bits = _dct_stream(1024, 1024, 3, bytes([END_OF_BLOCK]) * n_blocks)
    with traced_peak() as decode:
        out = codec_decode(bits)
    assert out.shape == (1024, 1024, 3) and len(np.unique(out)) == 1
    assert decode.peak < 2 * out.nbytes, f"decode peak {decode.peak / 2**20:.2f} MiB"


def test_params_validate():
    with pytest.raises(ContractError):
        CodecParams(CODEC_DCT, 0)
    with pytest.raises(ContractError):
        CodecParams(7, 50)


# -- hand-built streams and varints ---------------------------------------------------
# Refusals of malformed streams are rows of tests/test_input_costs.py.


def _dct_stream(w, h, c, payload):
    return codec._HEADER.pack(b"BDC1", CODEC_DCT, 50, w, h, c, len(payload)) + payload


def test_largest_varint_decodes():
    # u = 2**64 - 1 zigzag-maps to -2**63, the smallest int64
    payload = bytes([0] + [0xFF] * 9 + [0x01, 0xFF])
    coeffs, pos = dense_decode_blocks(payload, 0, 1)
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
    decoded, pos = dense_decode_blocks(bits, 0, 3)
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


# -- the entropy coder against its byte-by-byte statement -----------------------

# The BDC1 entropy format as a sequential coder, one coefficient and one byte
# at a time. codec._encode_blocks must write its bytes, and codec._decode_blocks
# must return its coefficients (as pairs, which dense_decode_blocks lays out)
# and end offset or raise its message and offset.


def sequential_encode_blocks(zigzagged: np.ndarray) -> bytes:
    """Entropy-code a plane's (blocks, 64) zigzagged coefficients.

    Each nonzero coefficient becomes a (run u8, value) pair, the value
    zigzag-mapped and written as LEB128; each block ends with END_OF_BLOCK.
    """
    out = bytearray()
    for block in zigzagged:
        prev = -1
        # one row at a time: a whole-plane .tolist() holds ~1 MB of ints
        for idx, value in enumerate(block.tolist()):
            if value:
                out.append(idx - prev - 1)
                u = value << 1 if value >= 0 else (-value << 1) - 1
                while u > 0x7F:
                    out.append(u & 0x7F | 0x80)
                    u >>= 7
                out.append(u)
                prev = idx
        out.append(END_OF_BLOCK)
    return bytes(out)


def sequential_decode_blocks(buf: bytes, pos: int, n_blocks: int) -> tuple[np.ndarray, int]:
    """Read n_blocks entropy-coded blocks starting at buf[pos].

    One pass over the payload bytes: ``shift`` is -1 while a run byte or
    END_OF_BLOCK is expected, else the bit position of the next varint
    byte. Returns the (n_blocks, 64) zigzagged coefficients and the offset
    after the last block; malformed input raises BitstreamError at the
    offending byte.
    """
    coeffs = np.zeros(n_blocks * 64, dtype=np.int64)
    slots = memoryview(coeffs)
    stop = n_blocks * 64
    base = slot = u = 0  # base: the current block's first slot
    shift = -1
    for pos in range(pos, len(buf)):
        byte = buf[pos]
        if shift < 0:
            if byte == END_OF_BLOCK:
                base += 64
                if base == stop:
                    return coeffs.reshape(n_blocks, 64), pos + 1
                slot = base
                continue
            slot += byte
            if slot - base >= 64:
                raise BitstreamError(
                    f"coefficient run overflows the block ({slot - base})", offset=pos
                )
            u = shift = 0
        elif byte < 0x80:
            u |= byte << shift
            if u >> 64:  # only a tenth byte above 1 gets here
                raise BitstreamError("varint longer than 64 bits", offset=pos)
            slots[slot] = (u >> 1) ^ -(u & 1)
            slot += 1
            shift = -1
        else:
            u |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise BitstreamError("varint longer than 64 bits", offset=pos + 1)
    if shift < 0:
        raise BitstreamError("block truncated before end marker", offset=len(buf))
    raise BitstreamError("varint runs past end of payload", offset=len(buf))


def dense_decode_blocks(buf: bytes, pos: int, n_blocks: int) -> tuple[np.ndarray, int]:
    """codec._decode_blocks with its pairs laid out as (n_blocks, 64) zigzagged coefficients."""
    positions, values, end = codec._decode_blocks(buf, pos, n_blocks)
    coeffs = np.zeros(n_blocks * 64, dtype=np.int64)
    coeffs[positions] = values
    return coeffs.reshape(n_blocks, 64), end


def sequential_decode_planes(buf, pos, n_blocks, planes):
    """One sequential call per plane, the planes stacked in stream order."""
    decoded = []
    for _ in range(planes):
        coeffs, pos = sequential_decode_blocks(buf, pos, n_blocks)
        decoded.append(coeffs)
    return np.concatenate(decoded), pos


def _decode_outcome(decode, *args):
    try:
        coeffs, end = decode(*args)
    except BitstreamError as err:
        return "error", str(err), err.offset
    return "decoded", coeffs.shape, coeffs.tobytes(), end


# Values on either side of each LEB128 length step of the zigzag map (63 and
# -64 take one byte, 64 and -65 two, ...), and the int64 extremes.
LEB128_EDGES = sorted(
    {v for k in range(1, 10) for b in [1 << (7 * k - 1)] for v in (b - 1, b, -b, -b - 1)}
    | {1, -1, -(2**63), 2**63 - 1}
)
# Chunk sizes that put a chunk boundary after every block, after every other
# block, and (for these small planes) nowhere.
CHUNK_SIZES = [1, 2, codec._CHUNK_BLOCKS]

block_pairs = st.lists(st.tuples(st.integers(0, 63), st.sampled_from(LEB128_EDGES)), max_size=64)


def _plane(blocks):
    """A (blocks, 64) plane from each block's (run, value) pairs, cut at 64."""
    plane = np.zeros((len(blocks), 64), dtype=np.int64)
    for row, pairs in zip(plane, blocks):
        idx = -1
        for run, value in pairs:
            idx += run + 1
            if idx > 63:
                break
            row[idx] = value
    return plane


planes = st.lists(block_pairs, min_size=1, max_size=6).map(_plane)


@pytest.mark.parametrize("chunk_blocks", CHUNK_SIZES)
@given(plane=planes)
@settings(max_examples=150, deadline=None)
def test_encode_blocks_matches_sequential(chunk_blocks, plane):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        assert codec._encode_blocks(plane) == sequential_encode_blocks(plane)


@pytest.mark.parametrize("seed", range(3))
def test_encode_blocks_matches_sequential_on_random_int64_planes(seed):
    # more blocks than one chunk holds; dense, sparse and empty blocks
    rng = np.random.default_rng(seed)
    plane = rng.integers(-(2**63), 2**63 - 1, (codec._CHUNK_BLOCKS + 300, 64), dtype=np.int64, endpoint=True)
    plane >>= rng.integers(0, 64, plane.shape)
    plane[rng.random(plane.shape) < rng.random((len(plane), 1))] = 0
    assert codec._encode_blocks(plane) == sequential_encode_blocks(plane)


# Bytes inserted by the mutations: each side of every state change and bound.
INSERTED_BYTES = [0x00, 0x01, 0x02, 63, 64, 0x7F, 0x80, 0x81, 0xFE, END_OF_BLOCK]

mutation = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.sampled_from(INSERTED_BYTES)),
    st.tuples(st.just("continue"), st.integers(0, 2**16), st.integers(1, 12)),
    st.tuples(st.just("cut"), st.integers(0, 2**16), st.just(0)),
)


def _mutate(payload: bytes, edits) -> bytes:
    out = bytearray(payload)
    for kind, where, arg in edits:
        at = where % (len(out) + 1)
        if kind == "set" and out:
            out[min(at, len(out) - 1)] = arg
        elif kind == "insert":
            out[at:at] = bytes([arg])
        elif kind == "continue":  # a run of continuation bytes
            out[at:at] = bytes([0x80 | (where & 0x7F)] * arg)
        elif kind == "cut":
            del out[at:]
    return bytes(out)


@st.composite
def mutated_streams(draw):
    """(buf, pos, blocks per plane, planes): a valid 1- or 3-plane payload
    after a header-sized prefix, then up to four mutations."""
    n_planes = draw(st.sampled_from([1, 3]))
    n_blocks = draw(st.integers(1, 4))
    blocks = draw(st.lists(block_pairs, min_size=n_planes * n_blocks, max_size=n_planes * n_blocks))
    payload = _mutate(sequential_encode_blocks(_plane(blocks)), draw(st.lists(mutation, max_size=4)))
    return bytes(HEADER_BYTES) + payload, HEADER_BYTES, n_blocks, n_planes


@pytest.mark.parametrize("chunk_blocks", CHUNK_SIZES)
@given(stream=mutated_streams())
@settings(max_examples=300, deadline=None)
def test_decode_blocks_matches_sequential_on_mutated_streams(chunk_blocks, stream):
    buf, pos, n_blocks, n_planes = stream
    expected = _decode_outcome(sequential_decode_planes, buf, pos, n_blocks, n_planes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        assert _decode_outcome(dense_decode_blocks, buf, pos, n_blocks * n_planes) == expected


# The two blocks of a 16x8 gray image, with pairs that carry explicit zero
# values, which the encoder never writes: (run 0, 0), (run 2, 1), END_OF_BLOCK; (run 63, 0),
# END_OF_BLOCK. Without the zero pairs the blocks hold one coefficient.
ZERO_PAIRS = bytes([0, 0x00, 2, 0x02, END_OF_BLOCK, 63, 0x00, END_OF_BLOCK])
WITHOUT_ZERO_PAIRS = bytes([3, 0x02, END_OF_BLOCK, END_OF_BLOCK])


@pytest.mark.parametrize("chunk_blocks", CHUNK_SIZES)
def test_decode_blocks_matches_sequential_on_explicit_zero_pairs(chunk_blocks):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        got = _decode_outcome(dense_decode_blocks, ZERO_PAIRS, 0, 2)
        positions, values, _ = codec._decode_blocks(ZERO_PAIRS, 0, 2)
        pixels = codec_decode(_dct_stream(16, 8, 1, ZERO_PAIRS))
    assert got == _decode_outcome(sequential_decode_blocks, ZERO_PAIRS, 0, 2)
    assert positions.tolist() == [0, 3, 127] and values.tolist() == [0, 1, 0]
    assert np.array_equal(pixels, codec_decode(_dct_stream(16, 8, 1, WITHOUT_ZERO_PAIRS)))


@given(stream=mutated_streams())
@settings(max_examples=200, deadline=None)
def test_decoded_pairs_are_increasing_and_bounded_by_the_payload(stream):
    buf, pos, n_blocks, n_planes = stream
    try:
        positions, values, _ = codec._decode_blocks(buf, pos, n_blocks * n_planes)
    except BitstreamError:
        return
    assert positions.dtype == values.dtype == np.int64 and len(positions) == len(values)
    assert np.all(np.diff(positions) > 0)
    assert positions.size == 0 or 0 <= positions[0] and positions[-1] < n_blocks * n_planes * 64
    assert len(positions) <= (len(buf) - pos) // 2


@pytest.mark.parametrize("chunk_blocks", CHUNK_SIZES)
def test_decode_blocks_matches_sequential_on_mutated_image_payloads(chunk_blocks):
    # 3000 seeded mutations of real 3-plane payloads, some with 10-byte varints
    rng = np.random.default_rng(chunk_blocks)
    streams = []
    for quality in (10, 90):
        img = rng.integers(0, 256, (16, 24, 3), dtype=np.uint8)
        streams.append((codec_encode(img, CodecParams(CODEC_DCT, quality)), 6))
    wide = rng.integers(-(2**63), 2**63 - 1, (6, 64), dtype=np.int64, endpoint=True)
    streams.append((bytes(HEADER_BYTES) + sequential_encode_blocks(wide), 2))
    outcomes = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        for i in range(3000):
            bits, n_blocks = streams[i % len(streams)]
            payload = bits[HEADER_BYTES:]
            edits = [
                (("set", "insert", "continue", "cut")[rng.integers(4)], int(rng.integers(2**16)),
                 int(rng.choice(INSERTED_BYTES)) if rng.random() < 0.5 else int(rng.integers(1, 256)))
                for _ in range(rng.integers(1, 4))
            ]
            buf = bits[:HEADER_BYTES] + _mutate(payload, edits)
            expected = _decode_outcome(sequential_decode_planes, buf, HEADER_BYTES, n_blocks, 3)
            got = _decode_outcome(dense_decode_blocks, buf, HEADER_BYTES, n_blocks * 3)
            assert got == expected, (i, buf[HEADER_BYTES:].hex())
            outcomes.add(expected[0] if expected[0] == "decoded" else expected[1].split(" (")[0])
    # every kind of outcome came up
    assert outcomes == {
        "decoded",
        "coefficient run overflows the block",
        "varint longer than 64 bits",
        "varint runs past end of payload",
        "block truncated before end marker",
    }


# -- the plane codec against its per-block statement ----------------------------


def per_block_encode(plane: np.ndarray, quality: int) -> bytes:
    """A level-shifted float plane's payload, one 8x8 block at a time."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, -h % 8), (0, -w % 8)), mode="edge")
    blocks = quantize(dct_block(_blocks(padded)), quality).reshape(-1, 64)
    return sequential_encode_blocks(blocks[:, codec.ZIGZAG])


def per_block_decode(payload: bytes, h: int, w: int, quality: int) -> np.ndarray:
    """A gray payload's pixels, one 8x8 block at a time."""
    bh, bw = -(-h // 8), -(-w // 8)
    zigzagged, _ = sequential_decode_blocks(payload, 0, bh * bw)
    blocks = np.empty_like(zigzagged)
    blocks[:, codec.ZIGZAG] = zigzagged
    pixels = idct_block(dequantize(blocks.reshape(bh, bw, 8, 8), quality))
    plane = pixels.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)[:h, :w] + 128.0
    return np.clip(np.rint(plane), 0, 255).astype(np.uint8)


# Bands of one strip each (a strip wider than _CHUNK_BLOCKS is a band of its
# own), of two strips of the two wider images, and of whole images.
@pytest.mark.parametrize("chunk_blocks", [1, 20, codec._CHUNK_BLOCKS])
def test_gray_codec_matches_per_block_statement(chunk_blocks):
    rng = np.random.default_rng(29)
    images = [rng.integers(0, 256, (h, w, 1), dtype=np.uint8) for h, w in ((8, 8), (13, 21), (40, 72))]
    images.append(synthetic_image(rng, 64, 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        for img in images:
            h, w = img.shape[:2]
            for quality in (1, 50, 100):
                bits = codec_encode(img, CodecParams(CODEC_DCT, quality))
                payload = bits[HEADER_BYTES:]
                assert payload == per_block_encode(img[:, :, 0] - 128.0, quality)
                assert np.array_equal(codec_decode(bits)[:, :, 0], per_block_decode(payload, h, w, quality))


@pytest.mark.parametrize("chunk_blocks", [1, 20])
def test_colour_codec_output_does_not_depend_on_the_band_size(chunk_blocks):
    rng = np.random.default_rng(31)
    images = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for h, w in ((13, 21), (40, 72))]
    images.append(synthetic_image(rng, 64, 3))
    expected = []
    for img in images:
        bits = codec_encode(img, CodecParams(CODEC_DCT, 50))
        expected.append((bits, codec_decode(bits)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        for img, (bits, pixels) in zip(images, expected):
            assert codec_encode(img, CodecParams(CODEC_DCT, 50)) == bits
            assert np.array_equal(codec_decode(bits), pixels)
