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
never exceed 63, so 0xFF where a run byte may stand is unambiguous; inside
a varint it is an ordinary continuation byte. Blocks are emitted
channel-major, then row-major over the block grid.

Both directions work on bands of whole 8-row block strips, about
_CHUNK_BLOCKS blocks of every plane at a time, so that no float64 array
spans a plane. In a band, one product per strip multiplies the DCT matrix
into the rows of every block of the strip, and one product over the band's
(rows, 8) view applies it to the block columns. Each entry sums the same
eight terms as the per-block DCT_MATRIX @ b @ DCT_MATRIX.T; the tests check
that the two agree bit for bit at one and two BLAS threads. The encoder
colour-converts a band of every plane, then per plane transforms it,
quantizes it in the strip layout against the table tiled along the strip,
zigzags it with one gather and entropy-codes it; the payload still holds
the planes one after another. The decoder holds the coded coefficients
as (position, value) pairs, whose number is bounded by the payload, not by
the header's block count. Per plane band it finds the band's pairs with one
search over the positions, zero-fills the band, scatters each value times
its quantization step straight into the strip layout, inverts the transform
the same way and colour-converts the band's rows. The entropy coder works
by array passes over _CHUNK_BLOCKS blocks at a time, with no per-byte loop:

- _encode_blocks finds the nonzero coefficients, sizes every pair from its
  zigzag-mapped value, places each pair by a cumulative sum of sizes, and
  scatters run bytes and 7-bit groups into a buffer of END_OF_BLOCK bytes.
- _decode_blocks reads all planes in one call. Up to the first error, a
  parse is in one of two states: E, expecting a run byte (0..63, go to V)
  or END_OF_BLOCK (stay in E); V, inside a varint, where a byte below 0x80
  ends it (go to E) and any other byte continues it. Every other byte in E
  already overflows its block. So the parse is in V before a byte exactly
  when an odd number of bytes below 0x80 precede it: one cumulative count
  mod 256 locates every END_OF_BLOCK, run byte and varint byte. Errors are
  found as array conditions, and the one at the smallest offset is raised,
  with the message and offset a byte-by-byte parse would give. Each coded
  coefficient comes out as its flat position (block * 64 + zigzag slot)
  and its value; a pair takes at least two payload bytes.
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
# Blocks that one array pass of the entropy coder handles: 64K coefficients,
# so each pass's per-pair arrays stay near 512 KiB apiece.
_CHUNK_BLOCKS = 1 << 10
# Longest valid block: 64 (run, 10-byte varint) pairs and its END_OF_BLOCK.
_MAX_BLOCK_BYTES = 64 * 11 + 1
# u needs k + 1 varint bytes when it is at least the k-th limit.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)
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
# Row and column within the block of each zigzag position.
_ZIGZAG_ROW, _ZIGZAG_COL = np.divmod(ZIGZAG, 8)


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


def _quantize_in_place(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Integer coefficients: round-half-away-from-zero of coeffs / table.

    Overwrites the float64 array coeffs on the way. c + copysign(0.5, c)
    truncated toward zero is sign(c) * floor(|c| + 0.5): both add 0.5 to
    |c| in the same rounding, and -0.0 and 0.0 give 0.
    """
    coeffs /= table
    coeffs += np.copysign(0.5, coeffs)
    return coeffs.astype(np.int64)


def _strip_table(quality: int, blocks_per_strip: int) -> np.ndarray:
    """The (8, 8 * blocks_per_strip) float64 table for a strip of coefficients."""
    return np.tile(quant_table(quality).astype(np.float64), (1, blocks_per_strip))


def _transform_strips(plane: np.ndarray, left: np.ndarray, right: np.ndarray, scratch: np.ndarray) -> None:
    """Replace every 8x8 block b of the float64 plane by left @ b @ right, in place.

    Both sides of the plane are multiples of 8; scratch is a float64
    array of the same width and at least as many rows. One product per
    8-row strip forms left @ b for every block of the strip; one product
    over the strips' (rows, 8) view then applies right. Each output entry
    sums the same eight terms as the per-block product; the tests check
    that the two agree bit for bit.
    """
    width = plane.shape[1]
    mixed = scratch[:plane.shape[0]].reshape(-1, 8, width)
    np.matmul(left, plane.reshape(-1, 8, width), out=mixed)
    np.matmul(mixed.reshape(-1, 8), right, out=plane.reshape(-1, 8))


# BT.601 full range on the 0..255 scale. Each YCbCr plane is
# ((offset + w_r*r) + w_g*g) + w_b*b, summed in that order.
_TO_YCBCR = (
    (0.0, 0.299, 0.587, 0.114),
    (128.0, -0.168736, -0.331264, 0.5),
    (128.0, 0.5, -0.418688, -0.081312),
)


def _level_shifted_planes(arr: np.ndarray, out: np.ndarray) -> None:
    """Write the planes of the uint8 (rows, cols, C) arr, colour-converted and minus 128, into out.

    out is float64 (C, rows, cols). One channel is taken as it is; three
    are converted to YCbCr first, from a channel-planar float64 copy, so
    that every arithmetic pass reads contiguous rows.
    """
    if arr.shape[2] == 1:
        np.subtract(arr[:, :, 0], 128.0, out=out[0], dtype=np.float64)
        return
    samples = np.moveaxis(arr, 2, 0).astype(np.float64, order="C")
    term = np.empty_like(out[0])
    for plane, (offset, w_r, w_g, w_b) in zip(out, _TO_YCBCR):
        np.multiply(samples[0], w_r, out=plane)
        if offset:
            plane += offset
        for k, weight in ((1, w_g), (2, w_b)):
            np.multiply(samples[k], weight, out=term)
            plane += term
        plane -= 128.0


# Inverse of _TO_YCBCR: each RGB channel is (y + w_cb*cb) + w_cr*cr, with
# cb and cr centred on 0; a zero weight adds nothing.
_TO_RGB = ((0.0, 1.402), (-0.344136, -0.714136), (1.772, 0.0))


def _ycbcr_to_rgb_bytes(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> None:
    """Write the RGB bytes of float planes y, cb - 128 and cr - 128 into the uint8 HxWx3 out.

    scratch is a float64 array of at least y.size elements, overwritten.
    """
    value = scratch.reshape(-1)[:y.size].reshape(y.shape)
    term = np.empty_like(y)
    for k, (w_cb, w_cr) in enumerate(_TO_RGB):
        total = y
        for plane, weight in ((cb, w_cb), (cr, w_cr)):
            if weight:
                np.multiply(plane, weight, out=term)
                total = np.add(total, term, out=value)
        _round_into(value, out[:, :, k])


def _round_into(value: np.ndarray, out: np.ndarray) -> None:
    """Round value to the nearest integer and clip it to 0..255 in place, then store it in uint8 out."""
    np.rint(value, out=value)
    np.clip(value, 0, 255, out=value)
    out[...] = value


def _encode_blocks(zigzagged: np.ndarray) -> bytes:
    """Entropy-code a plane's (blocks, 64) zigzagged coefficients.

    Each nonzero coefficient becomes a (run u8, value) pair, the value
    zigzag-mapped and written as LEB128; each block ends with END_OF_BLOCK.
    Runs _CHUNK_BLOCKS blocks at a time: every pair's offset comes from a
    cumulative sum of pair sizes, then run bytes and 7-bit groups are
    scattered into a buffer prefilled with END_OF_BLOCK.
    """
    chunks = []
    for first in range(0, len(zigzagged), _CHUNK_BLOCKS):
        coeffs = zigzagged[first:first + _CHUNK_BLOCKS].reshape(-1)
        nonzero = np.flatnonzero(coeffs != 0)  # on a bool mask: 3x faster than on int64
        value = coeffs[nonzero]
        u = ((value << 1) ^ (value >> 63)).view(np.uint64)
        # a run counts the zeros since the previous nonzero of its block
        prev = np.empty_like(nonzero)
        prev[:1] = -1
        prev[1:] = nonzero[:-1]
        run = nonzero - 1 - np.maximum(prev, (nonzero & -64) - 1)
        size = np.full(len(u), 2, dtype=np.intp)  # run byte + varint bytes
        for limit in _VARINT_LIMITS[_VARINT_LIMITS <= u.max(initial=0)]:
            size += u >= limit
        at = np.cumsum(size) - size + (nonzero >> 6)
        chunk = np.full(int(size.sum()) + coeffs.size // 64, END_OF_BLOCK, dtype=np.uint8)
        chunk[at] = run
        at += 1
        while at.size:
            more = u > 0x7F
            chunk[at] = u.astype(np.uint8) | more.view(np.uint8) << 7
            u, at = u[more] >> 7, at[more] + 1
        chunks.append(chunk)
    return b"".join(chunks)


def _decode_blocks(buf: bytes, pos: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Read n_blocks entropy-coded blocks starting at buf[pos].

    Returns every coded coefficient's flat position (block * 64 + zigzag
    slot, strictly increasing) and its value, both int64 and in stream
    order, and the offset after the last block. A pair takes at least a run
    byte and a varint byte, so there are at most half as many as payload
    bytes. Malformed input raises BitstreamError at the byte a byte-by-byte
    parse would stop at. The parity rule of the module docstring finds
    every END_OF_BLOCK at once; the pairs are then decoded _CHUNK_BLOCKS
    blocks at a time.
    """
    data = np.frombuffer(buf, dtype=np.uint8, offset=pos)
    low = data < 0x80
    lows = np.cumsum(low, dtype=np.uint8)  # bytes below 0x80 so far, mod 256
    ends = np.flatnonzero((data == END_OF_BLOCK) & (lows & 1 == 0))[:n_blocks]
    room = min(n_blocks * 64, len(data) // 2)
    positions = np.empty(room, dtype=np.int64)
    values = np.empty(room, dtype=np.int64)
    start = count = 0
    for first in range(0, n_blocks, _CHUNK_BLOCKS):
        want = min(_CHUNK_BLOCKS, n_blocks - first)
        chunk_ends = ends[first:first + want] - start
        complete = len(chunk_ends) == want
        stop = int(chunk_ends[-1]) + 1 if complete else len(data) - start
        # A block start reaches END_OF_BLOCK or an error within
        # _MAX_BLOCK_BYTES, so a longer chunk has an error in this window.
        stop = min(stop, want * _MAX_BLOCK_BYTES)
        seg = data[start:start + stop]
        before = lows[start:start + stop] - low[start:start + stop]
        in_varint = (before & 1).astype(bool)
        lead = np.flatnonzero(~in_varint)  # run bytes and END_OF_BLOCKs
        eob = seg[lead] == END_OF_BLOCK
        runs_at = np.flatnonzero(~eob)
        block = np.cumsum(eob)[runs_at]  # END_OF_BLOCKs before each run byte
        opener = lead[runs_at]
        run = seg[opener].astype(np.intp)
        # slot - base for each run byte: (run + 1) summed over its block so
        # far, minus one; a block's base is the sum over earlier blocks,
        # taken at the block's first pair
        step = np.cumsum(run + 1)
        pairs_in = np.bincount(block, minlength=want)
        base = np.concatenate(([0], step))[np.cumsum(pairs_in) - pairs_in]
        slot = step - 1 - base[block]
        # A varint byte with no byte below 0x80 among the nine before it is
        # a tenth byte; above 1, it takes the value past 64 bits.
        tenth = np.flatnonzero(in_varint[9:] & (before[9:] == before[:-9]) & (seg[9:] > 1)) + 9
        overflow = np.flatnonzero(slot > 63)
        errors = []
        if overflow.size:
            at = int(opener[overflow[0]])
            errors.append((at, f"coefficient run overflows the block ({slot[overflow[0]]})", at))
        if tenth.size:
            at = int(tenth[0])
            errors.append((at, "varint longer than 64 bits", at + int(seg[at] >= 0x80)))
        if errors:
            _, message, at = min(errors)
            raise BitstreamError(message, offset=pos + start + at)
        if not complete:
            if lows.size and lows[-1] & 1:
                raise BitstreamError("varint runs past end of payload", offset=len(buf))
            raise BitstreamError("block truncated before end marker", offset=len(buf))
        digit = np.flatnonzero(in_varint)
        # varint bytes before each run byte: all bytes before it, less the
        # run bytes and END_OF_BLOCKs
        starts = opener - np.arange(len(opener)) - block
        shift = 7 * (digit - np.repeat(opener + 1, np.diff(starts, append=digit.size)))
        groups = (seg[digit] & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
        u = np.bitwise_or.reduceat(groups, starts)
        pairs = slice(count, count + len(u))
        positions[pairs] = (first + block) * 64 + slot
        values[pairs] = (u >> 1).view(np.int64) ^ -(u & 1).view(np.int64)
        count += len(u)
        start += stop
    return positions[:count], values[:count], pos + start


def stream_header(params: CodecParams, width: int, height: int, channels: int, payload_len: int) -> bytes:
    """The 19 bytes that open a bitstream with these fields."""
    return _HEADER.pack(MAGIC, params.codec_id, params.quality, width, height, channels, payload_len)


def codec_encode(image: np.ndarray, params: CodecParams) -> bytes:
    """Compress a uint8 HxWxC image into a self-describing bitstream."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"expected a non-empty HxWxC image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ContractError(f"codec operates on uint8 samples, got {arr.dtype}")
    h, w, c = arr.shape
    # codec_decode refuses these, so they are never written
    if c not in (1, 3):
        raise ShapeError(f"channels must be 1 or 3, got {c}")
    if w * h * c > _MAX_PIXELS:
        raise ShapeError(f"size {w}x{h}x{c} exceeds the decoder's sanity bound")

    if params.codec_id == CODEC_NULL:
        return stream_header(params, w, h, c, arr.size) + arr.tobytes()
    bh, bw = -(-h // 8), -(-w // 8)
    table = _strip_table(params.quality, bw)
    band = max(1, _CHUNK_BLOCKS // bw)  # strips per band
    planes = np.empty((c, min(band, bh) * 8, bw * 8))  # one band of every plane
    scratch = np.empty_like(planes[0])
    chunks: list[list[bytes]] = [[] for _ in range(c)]
    for first in range(0, bh, band):
        n = min(band, bh - first)
        top, rows = first * 8, min(h - first * 8, n * 8)  # image rows in the band
        band_planes = planes[:, :n * 8]
        # edge-padded to whole blocks: every strip holds at least one image row
        _level_shifted_planes(arr[top:top + rows], band_planes[:, :rows, :w])
        band_planes[:, :rows, w:] = band_planes[:, :rows, w - 1:w]
        band_planes[:, rows:] = band_planes[:, rows - 1:rows]
        for plane, plane_chunks in zip(band_planes, chunks):
            _transform_strips(plane, DCT_MATRIX, DCT_MATRIX.T, scratch)
            q = _quantize_in_place(plane.reshape(n, 8, bw * 8), table)
            blocks = q.reshape(n, 8, bw, 8).transpose(0, 2, 1, 3)
            plane_chunks.append(_encode_blocks(blocks[:, :, _ZIGZAG_ROW, _ZIGZAG_COL].reshape(-1, 64)))
    payload = [chunk for plane_chunks in chunks for chunk in plane_chunks]
    header = stream_header(params, w, h, c, sum(map(len, payload)))
    return b"".join([header, *payload])


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
    positions, values, pos = _decode_blocks(bits, HEADER_BYTES, bh * bw * c)
    if pos != len(bits):
        raise BitstreamError(
            f"{len(bits) - pos} trailing bytes after last block", offset=pos
        )
    # each zigzag slot's quantization step and its offset in a strip; each
    # block's offset in a band's flat strip layout
    steps = quant_table(quality).astype(np.float64).reshape(-1)[ZIGZAG]
    in_strip = _ZIGZAG_ROW * (bw * 8) + _ZIGZAG_COL
    band = max(1, _CHUNK_BLOCKS // bw)  # strips per band
    block = np.arange(min(band, bh) * bw)
    in_band = block // bw * (64 * bw) + block % bw * 8
    planes = np.empty((c, min(band, bh) * 8, bw * 8))  # one band of every plane
    scratch = np.empty_like(planes[0])
    out = np.empty((h, w, c), dtype=np.uint8)
    for first in range(0, bh, band):
        n = min(band, bh - first)
        top, rows = first * 8, min(h - first * 8, n * 8)  # image rows in the band
        band_planes = planes[:, :n * 8]
        for ch, plane in enumerate(band_planes):
            # scatter the band's dequantized pairs straight into the strip layout
            start = (ch * bh + first) * bw * 64
            lo, hi = np.searchsorted(positions, (start, start + n * bw * 64))
            local = positions[lo:hi] - start
            slot = local & 63
            plane.fill(0.0)
            plane.reshape(-1)[in_band[local >> 6] + in_strip[slot]] = values[lo:hi] * steps[slot]
            _transform_strips(plane, DCT_MATRIX.T, DCT_MATRIX, scratch)
            plane += 128.0
            if ch:
                plane -= 128.0  # cb and cr centred on 0, as the colour conversion takes them
        pixels = band_planes[:, :rows, :w]
        if c == 3:
            _ycbcr_to_rgb_bytes(*pixels, out[top:top + rows], scratch)
        else:
            _round_into(pixels[0], out[top:top + rows, :, 0])
    return out
