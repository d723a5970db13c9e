"""Baseline DCT block codec plus a lossless null codec.

JPEG-like but deliberately not bit-compatible: 8x8 orthonormal DCT,
quality-scaled quantization against the standard luminance table, zigzag
scan, then (zero-run, value) pairs with variable-length signed integers
instead of Huffman tables. One shared quantization table for luma and
chroma; no subsampling; no DC prediction. Fully deterministic.

Bitstream layout, all little-endian:
    magic "BDC1" | codec_id u8 | quality u8 | width u32 | height u32 |
    channels u8 | payload_len u32 | payload bytes
Per 8x8 block the payload holds (run u8, varint value) pairs over the 64
zigzagged coefficients, terminated by 0xFF once the rest are zero. Runs
never exceed 63, so 0xFF is unambiguous. Blocks are emitted channel-major,
then row-major over the block grid.

Transform and quantization run over all blocks of a plane at once, as one
(rows, cols, 8, 8) stack. Entropy coding is one loop per plane in each
direction: _encode_blocks over the plane's coefficient rows, _decode_blocks
over its payload bytes, which it reads straight into one (blocks, 64) array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BitstreamError, ContractError, ShapeError

CODEC_NULL = 0
CODEC_DCT = 1

MAGIC = b"BDC1"
_HEADER = struct.Struct("<4sBBIIBI")
HEADER_BYTES = _HEADER.size

END_OF_BLOCK = 0xFF
_MAX_PIXELS = 1 << 28  # allocation guard on header-declared dims

# ITU T.81 Annex K.1 luminance quantization table, zigzag applied later.
BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)


def _zigzag_order() -> np.ndarray:
    """Flat indices of an 8x8 block in zigzag scan order.

    Odd anti-diagonals run top-right to bottom-left, even ones the
    reverse, starting 0, 1, 8, 16, 9, 2, ...
    """
    order = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([r * 8 + c for r, c in order], dtype=np.int64)

ZIGZAG = _zigzag_order()


def _dct_matrix() -> np.ndarray:
    k = np.arange(8.0)[:, None]
    n = np.arange(8.0)[None, :]
    mat = np.cos((2 * n + 1) * k * np.pi / 16.0)
    mat[0] *= np.sqrt(1.0 / 8.0)
    mat[1:] *= np.sqrt(2.0 / 8.0)
    return mat

DCT_MATRIX = _dct_matrix()


@dataclass(frozen=True)
class CodecParams:
    codec_id: int = CODEC_DCT
    quality: int = 50

    def __post_init__(self):
        if self.codec_id not in (CODEC_NULL, CODEC_DCT):
            raise ContractError(f"unknown codec_id {self.codec_id}")
        if not 1 <= self.quality <= 100:
            raise ContractError(f"quality must lie in 1..100, got {self.quality}")


def dct_block(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of an 8x8 block or a (..., 8, 8) stack of them."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != (8, 8):
        raise ShapeError(f"dct_block expects (..., 8, 8), got {block.shape}")
    return DCT_MATRIX @ block @ DCT_MATRIX.T


def idct_block(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-2:] != (8, 8):
        raise ShapeError(f"idct_block expects (..., 8, 8), got {coeffs.shape}")
    return DCT_MATRIX.T @ coeffs @ DCT_MATRIX


def quant_table(quality: int) -> np.ndarray:
    """Quality-scaled table, exact integer arithmetic.

    scale = 5000/q below 50 else 200 - 2q; entries floor((t*scale+50)/100),
    clamped to 1..255. The q < 50 branch keeps scale rational:
    floor((t*5000/q + 50)/100) == (t*5000 + 50q) // (100q).
    """
    q = int(quality)
    if not 1 <= q <= 100:
        raise ContractError(f"quality must lie in 1..100, got {q}")
    t = BASE_QUANT_TABLE
    if q < 50:
        scaled = (t * 5000 + 50 * q) // (100 * q)
    else:
        scaled = (t * (200 - 2 * q) + 50) // 100
    return np.clip(scaled, 1, 255).astype(np.int64)


def quantize(coeffs: np.ndarray, quality: int) -> np.ndarray:
    """Integer coefficients: round-half-away-from-zero of coeff/table."""
    table = quant_table(quality)
    ratio = np.asarray(coeffs, dtype=np.float64) / table
    return (np.sign(ratio) * np.floor(np.abs(ratio) + 0.5)).astype(np.int64)


def dequantize(qcoeffs: np.ndarray, quality: int) -> np.ndarray:
    return np.asarray(qcoeffs, dtype=np.float64) * quant_table(quality)


def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range, float in/out on the 0..255 scale."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = ycc[..., 0], ycc[..., 1] - 128.0, ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.stack([r, g, b], axis=-1)


def _encode_blocks(zigzagged: np.ndarray) -> bytes:
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


def _decode_blocks(buf: bytes, pos: int, n_blocks: int) -> tuple[np.ndarray, int]:
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


def codec_encode(image: np.ndarray, params: CodecParams) -> bytes:
    """Compress an 8-bit image into a self-describing bitstream."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"expected a non-empty HxWxC image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ContractError(f"codec operates on uint8 samples, got {arr.dtype}")
    h, w, c = arr.shape

    if params.codec_id == CODEC_NULL:
        payload = arr.tobytes()
    else:
        pixels = arr.astype(np.float64)
        if c == 3:
            pixels = _rgb_to_ycbcr(pixels)
        bh, bw = -(-h // 8), -(-w // 8)
        planes = []
        for ch in range(c):
            # Rebinding one name at each step keeps no array of the previous
            # plane alive while this plane's are made.
            blocks = np.pad(pixels[:, :, ch], ((0, bh * 8 - h), (0, bw * 8 - w)), mode="edge")
            blocks = (blocks - 128.0).reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
            blocks = quantize(dct_block(blocks), params.quality).reshape(-1, 64)
            planes.append(_encode_blocks(blocks[:, ZIGZAG]))
        payload = b"".join(planes)

    header = _HEADER.pack(MAGIC, params.codec_id, params.quality, w, h, c, len(payload))
    return header + payload


def codec_decode(bits: bytes) -> np.ndarray:
    """Decode a bitstream back to a uint8 image.

    Malformed input of any kind raises BitstreamError with the byte offset
    of the problem; decoding never crashes or over-allocates on lies in the
    header.
    """
    if len(bits) < HEADER_BYTES:
        raise BitstreamError(
            f"header needs {HEADER_BYTES} bytes, stream has {len(bits)}", offset=0
        )
    magic, codec_id, quality, w, h, c, payload_len = _HEADER.unpack_from(bits)
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}", offset=0)
    if codec_id not in (CODEC_NULL, CODEC_DCT):
        raise BitstreamError(f"unknown codec_id {codec_id}", offset=4)
    if codec_id == CODEC_DCT and not 1 <= quality <= 100:
        raise BitstreamError(f"quality {quality} outside 1..100", offset=5)
    if w == 0 or h == 0 or c not in (1, 3):
        raise BitstreamError(f"bad dimensions {w}x{h}x{c}", offset=6)
    if w * h * c > _MAX_PIXELS:
        raise BitstreamError(f"declared size {w}x{h}x{c} exceeds sanity bound", offset=6)
    if len(bits) - HEADER_BYTES != payload_len:
        raise BitstreamError(
            f"payload is {len(bits) - HEADER_BYTES} bytes, header says {payload_len}",
            offset=15,
        )

    if codec_id == CODEC_NULL:
        if payload_len != w * h * c:
            raise BitstreamError(
                f"null payload {payload_len} != {w}*{h}*{c}", offset=15
            )
        return (
            np.frombuffer(bits, dtype=np.uint8, offset=HEADER_BYTES)
            .reshape(h, w, c)
            .copy()
        )

    bh, bw = -(-h // 8), -(-w // 8)
    if payload_len < bh * bw * c:
        raise BitstreamError(
            f"payload {payload_len} bytes cannot hold {bh * bw * c} blocks", offset=15
        )
    pixels = np.empty((h, w, c))
    pos = HEADER_BYTES
    for ch in range(c):
        zigzagged, pos = _decode_blocks(bits, pos, bh * bw)
        blocks = np.empty_like(zigzagged)
        blocks[:, ZIGZAG] = zigzagged
        blocks = idct_block(dequantize(blocks.reshape(bh, bw, 8, 8), quality))
        blocks = blocks.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
        pixels[:, :, ch] = blocks[:h, :w] + 128.0
    if pos != len(bits):
        raise BitstreamError(
            f"{len(bits) - pos} trailing bytes after last block", offset=pos
        )
    if c == 3:
        pixels = _ycbcr_to_rgb(pixels)
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
