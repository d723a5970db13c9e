"""The five parsers of outside bytes, driven from one table of inputs and outcomes.

Each row of ``ROWS`` gives a parser an input and states the outcome: accepted,
or refused with the parser's own error type and, where pinned, its message,
``BitstreamError.offset``, a tracemalloc peak bound and the ``pipeline``
functions that must not run. A truncation row feeds every prefix ``data[:k]``
of a valid input. Every parser has an accepted, a truncation and a header-claim
row (a header that declares more than the input holds).
"""

import ast
import dataclasses
import re
import struct
from collections.abc import Callable
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import maecodec
from maecodec import dataset, mae, sweep
from maecodec import pipeline as pl
from maecodec.codec import CODEC_DCT, CODEC_NULL, HEADER_BYTES, CodecParams, codec_decode
from maecodec.codec import codec_encode, stream_header
from maecodec.errors import BitstreamError, CheckpointError, ContainerError, ContractError
from maecodec.masking import PAD_BYTE

from conftest import TINY_MAE_CONFIG, traced_peak

CONTAINER, CODEC, CHECKPOINT = "pipeline.container_from_bytes", "codec.codec_decode", "mae.load_bytes"
IMAGE, CSV = "dataset.load_image", "sweep.read_csv"

# parser -> (call, its own error types); the two file readers are given a path
PARSERS = {
    CONTAINER: (lambda blob, model: pl.decompress(pl.container_from_bytes(blob), model),
                (ContainerError, BitstreamError)),
    CODEC: (codec_decode, BitstreamError),
    CHECKPOINT: (mae.load_bytes, CheckpointError),
    IMAGE: (dataset.load_image, ContractError),
    CSV: (sweep.read_csv, ContractError),
}


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    parser: str
    data: bytes | Callable[[], bytes]
    error: type | tuple | None = None  # None: the input is accepted
    kind: str = "refused"  # or "accepted", "truncation", "claim"
    match: str = ""  # searched in the message; "{path}" stands for the file read
    offset: int | None = None  # BitstreamError.offset
    peak: int | None = None  # bound on the tracemalloc peak, bytes
    message_chars: int | None = None  # bound on the message length, the path not counted
    size: int | None = None  # the input's length, where the row relies on its layout
    unreachable: tuple[str, ...] = ()  # pipeline functions that must not run
    model: mae.TMAEConfig | None = None  # the model decompress is given
    accepts: Callable | None = None  # what an accepted result satisfies


def truncations(name, parser, data, **fields) -> Row:
    return Row(name, parser, data, PARSERS[parser][1], "truncation", **fields)


def _edit(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new) :]


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "little")


# -- TMAE containers ------------------------------------------------------------------


def _tmae(magic=b"TMAE", version=1, w=16, h=16, channels=1, patch=8, n_patches=4, keep=2,
          seed=0, alg=1, codec=0, quality=50) -> bytes:
    fields = (magic, version, w, h, channels, patch, n_patches, keep, seed, alg, codec, quality)
    return struct.pack("<4sBIIBHIIQBBB", *fields)


def _bdc1_of(w, h, c, payload: bytes) -> bytes:
    return stream_header(CodecParams(CODEC_DCT, 50), w, h, c, len(payload)) + payload


def _compressed(img, **config) -> bytes:
    return pl.compress(img, pl.PipelineConfig(**config)).to_bytes()


def _noise_tmae(ratio) -> bytes:
    img = np.random.default_rng(0).integers(0, 256, (16, 16, 1), dtype=np.uint8)
    return _compressed(img, patch_size=2, mask_ratio=ratio, seed=0)


def _forged_codec(codec) -> bytes:
    img = np.random.default_rng(4).integers(0, 256, (16, 16, 1), dtype=np.uint8)
    cfg = pl.PipelineConfig(patch_size=8, mask_ratio=0.0, seed=1, codec=CodecParams(CODEC_DCT, 90))
    return dataclasses.replace(pl.compress(img, cfg), codec=codec).to_bytes()


def _masked_2048() -> bytes:
    # A 2048x2048x1 zero image at patch 1 and ratio 0.99999 keeps 41 of 2**22
    # patches, one condensed row padded with PAD_BYTE; regenerating that
    # mask alone would take seconds.
    condensed = np.full((1, 2048, 1), PAD_BYTE, dtype=np.uint8)
    condensed[0, :41] = 0
    payload = codec_encode(condensed, CodecParams(CODEC_DCT, 50))
    return _tmae(w=2048, h=2048, patch=1, n_patches=2**22, keep=41, codec=CODEC_DCT) + payload


CONTAINER_ROWS = [
    Row("tmae-ratio-0.5", CONTAINER, lambda: _noise_tmae(0.5), kind="accepted",
        model=TINY_MAE_CONFIG, accepts=lambda img: img.shape == (16, 16, 1)),
    *(truncations(f"tmae-ratio-{r}-cuts", CONTAINER, lambda r=r: _noise_tmae(r),
                  model=TINY_MAE_CONFIG) for r in (0.0, 0.5)),
    *(Row(f"tmae-{name}", CONTAINER, blob, ContainerError, match=match) for name, blob, match in [
        ("20-bytes", _tmae()[:20], "header needs 35 bytes, got 20"),
        ("magic", _tmae(magic=b"JUNK"), "bad container magic"),
        ("version-9", _tmae(version=9), "version 9"),
        ("mask-algorithm-2", _tmae(alg=2), "mask algorithm id 2"),
        ("width-0", _tmae(w=0), "zero image dimension"),
        ("height-0", _tmae(h=0), "zero image dimension"),
        ("channels-2", _tmae(channels=2), "channels must be 1 or 3"),
        ("patch-0", _tmae(patch=0), "zero patch size"),
        ("5-patches-for-4", _tmae(n_patches=5), "header says 5 patches"),
        ("2^23-patches", _tmae(w=4096, h=2048, patch=1, n_patches=2**23, keep=1), "sanity bound"),
        ("keep-0", _tmae(keep=0), "keep_count 0 outside"),
        ("keep-5-of-4", _tmae(keep=5), "keep_count 5 outside"),
        ("codec-9", _tmae(codec=9), "invalid codec params"),
        ("quality-0", _tmae(quality=0), "invalid codec params"),
        ("quality-101", _tmae(quality=101), "invalid codec params"),
    ]),
    # its one block holds a ten-byte varint whose value needs more than 64 bits
    Row("tmae-varint-past-64-bits", CONTAINER, _tmae(w=8, h=8, n_patches=1, keep=1, codec=CODEC_DCT)
        + _bdc1_of(8, 8, 1, bytes([0] + [0xFF] * 9 + [0x7F, 0xFF])), BitstreamError, offset=29),
    *(Row(f"tmae-payload-of-{c.codec_id}-q{c.quality}", CONTAINER, lambda c=c: _forged_codec(c),
          ContainerError, match="stream header")
      for c in (CodecParams(CODEC_NULL, 7), CodecParams(CODEC_DCT, 7), CodecParams(CODEC_NULL, 90))),
    Row("tmae-16x16-payload-declares-512x512", CONTAINER, lambda: _tmae(keep=4, codec=CODEC_DCT)
        + codec_encode(np.zeros((512, 512, 1), dtype=np.uint8), CodecParams(CODEC_DCT, 50)),
        ContainerError, kind="claim", peak=2**20),
    # 2048x2048 at patch 1 is 2**22 patches, whose shuffle would take seconds
    Row("tmae-2^22-patches-19-payload-bytes", CONTAINER, _tmae(
        w=2048, h=2048, patch=1, n_patches=2**22, keep=1, codec=CODEC_DCT) + bytes(19), ContainerError,
        kind="claim", match="stream header", unreachable=("mask_from_counts",), size=54),
    Row("tmae-masked-without-model", CONTAINER, _masked_2048, ContractError, size=336,
        match="no model supplied", unreachable=("codec_decode", "mask_from_counts")),
    Row("tmae-patch-16-model-of-patch-8", CONTAINER,
        lambda: _compressed(np.zeros((32, 32, 1), dtype=np.uint8), patch_size=16, mask_ratio=0.5),
        ContractError, match="model patch size 8 != container 16",
        model=dataclasses.replace(TINY_MAE_CONFIG, patch_size=8)),
]

# -- BDC1 streams -----------------------------------------------------------------------


def _bdc1() -> bytes:
    img = np.random.default_rng(6).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    return codec_encode(img, CodecParams(CODEC_DCT, 40))


def _cut_payload(cut) -> bytes:
    # payload_len rewritten so that only the block parser sees the cut
    bits = _bdc1()[:-cut]
    return _edit(bits, 15, _u32(len(bits) - HEADER_BYTES))


CODEC_ROWS = [
    Row("bdc1", CODEC, _bdc1, kind="accepted", accepts=lambda img: img.shape == (16, 16, 3)),
    truncations("bdc1-cuts", CODEC, _bdc1),
    Row("bdc1-4-bytes", CODEC, b"BDC1", BitstreamError, match="byte offset", offset=0),
    Row("bdc1-magic", CODEC, lambda: _edit(_bdc1(), 0, b"X"), BitstreamError),
    Row("bdc1-codec-9", CODEC, lambda: _edit(_bdc1(), 4, bytes([9])), BitstreamError, offset=4),
    Row("bdc1-quality-0", CODEC, lambda: _edit(_bdc1(), 5, bytes([0])), BitstreamError),
    Row("bdc1-width-0", CODEC, lambda: _edit(_bdc1(), 6, _u32(0)), BitstreamError),
    Row("bdc1-2^60-pixels", CODEC, lambda: _edit(_bdc1(), 6, _u32(1 << 30) * 2), BitstreamError,
        kind="claim"),
    Row("bdc1-byte-past-payload", CODEC, lambda: _bdc1() + b"\x00", BitstreamError),
    # payload_len one more than the bytes after the 19-byte header
    Row("bdc1-payload-len-one-over", CODEC, lambda: _edit(_bdc1(), 15, _u32(len(_bdc1()) - 18)),
        BitstreamError, match="header says", offset=15),
    # width 5 won't match the 16 samples held
    Row("null-4x4-width-5", CODEC, lambda: _edit(codec_encode(
        np.zeros((4, 4, 1), dtype=np.uint8), CodecParams(CODEC_NULL, 50)), 6, _u32(5)),
        BitstreamError),
    *(Row(f"bdc1-payload-less-{cut}", CODEC, lambda cut=cut: _cut_payload(cut), BitstreamError,
          kind="claim") for cut in (1, 7, 50)),
    # (width, height, channels, payload, message, offset from the stream's start)
    *(Row(f"bdc1-{message.replace(' ', '-')}-{offset}", CODEC, _bdc1_of(w, h, c, payload),
          BitstreamError, match=f"^{re.escape(message)} \\(byte offset {offset}\\)$", offset=offset)
      for w, h, c, payload, message, offset in [
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
      ]),
    Row("bdc1-2-bytes-past-the-last-block", CODEC, lambda: _bdc1_of(8, 8, 1, codec_encode(
        np.zeros((8, 8, 1), dtype=np.uint8), CodecParams(CODEC_DCT, 50))[HEADER_BYTES:] + bytes(2)),
        BitstreamError),
    # u = 0x7F << 63 | (2**63 - 1) and u = 2**64: ten varint bytes, too many bits
    *(Row(f"bdc1-varint-{name}", CODEC, _bdc1_of(8, 8, 1, bytes([0]) + varint + bytes([0xFF])),
          BitstreamError, match=r"^varint longer than 64 bits \(byte offset 29\)$", size=31)
      for name, varint in [("2^127", bytes([0xFF] * 9 + [0x7F])), ("2^64", bytes([0x80] * 9 + [2]))]),
]

# -- TMCK checkpoints -------------------------------------------------------------------


def _tmck(seed=19) -> bytes:
    return mae.save_bytes(mae.init_model(TINY_MAE_CONFIG, seed=seed))


# patch 16, 3 channels, 8-deep 256-wide encoder and decoder, d_ff 1024:
# 552 tensors holding about 13M weights
_BIG_TMCK = struct.pack("<4sB10I", b"TMCK", 1, 16, 3, 256, 8, 8, 1024, 256, 8, 8, 1024)
_ONE_ELEMENT = b"\x01\x01\x00\x00\x00" + bytes(4)  # a rank-1 tensor of one element

CHECKPOINT_ROWS = [
    Row("tmck", CHECKPOINT, _tmck, kind="accepted", accepts=lambda m: mae.save_bytes(m) == _tmck()),
    truncations("tmck-cuts", CHECKPOINT, _tmck),
    *(Row(f"tmck-{name}", CHECKPOINT, lambda edit=edit: edit(_tmck()), CheckpointError)
      for name, edit in [
          ("10-bytes", lambda b: b[:10]),
          ("magic", lambda b: b"XXXX" + b[4:]),
          ("version-99", lambda b: _edit(b, 4, bytes([99]))),
          ("half", lambda b: b[: len(b) // 2]),
          ("extra-tensor", lambda b: b + _ONE_ELEMENT),
          ("rank-7", lambda b: _edit(b, 45, bytes([7]))),
          ("embed-dims-swapped", lambda b: b[:46] + b[50:54] + b[46:50] + b[54:]),
          ("last-weight-nan", lambda b: b[:-4] + struct.pack("<f", float("nan"))),
          ("last-weight-inf", lambda b: b[:-4] + struct.pack("<f", float("inf"))),
          ("patch-0", lambda b: _edit(_tmck(seed=20), 5, _u32(0))),
      ]),
    # patch 4, 1 channel, encoder width 9 with 3 heads, decoder width 6; a
    # rank byte of 0 would fail as "bad tensor rank" if any tensor were read
    Row("tmck-width-9", CHECKPOINT,
        struct.pack("<4sB10I", b"TMCK", 1, 4, 1, 9, 1, 3, 9, 6, 1, 3, 6) + b"\x00",
        CheckpointError, match="d_model must be even"),
    *(Row(f"tmck-552-tensors-declared-{name}", CHECKPOINT, _BIG_TMCK + body, CheckpointError,
          kind=kind, match=match, peak=2**20, size=45 + len(body)) for name, body, kind, match in [
        ("0-held", b"", "claim", "0 tensors"),
        ("1-held", _ONE_ELEMENT, "refused", "1 tensors"),
        ("552-of-one-element-held", _ONE_ELEMENT * 552, "refused", "552 tensors of 552 elements"),
    ]),
]

# -- netpbm files -----------------------------------------------------------------------

_PPM = b"P6\n7 5\n255\n" + bytes(range(105))

IMAGE_ROWS = [
    Row("ppm", IMAGE, _PPM, kind="accepted", accepts=lambda img: img.tobytes() == _PPM[11:]),
    truncations("ppm-cuts", IMAGE, _PPM),
    *(Row(f"pnm-{name}", IMAGE, data, ContractError) for name, data in [
        ("p4", b"P4\n2 2\n255\n" + bytes(4)),
        ("maxval-65535", b"P5\n2 2\n65535\n" + bytes(8)),
        ("width-x", b"P5\nx 2\n255\n" + bytes(4)),
        ("width-0", b"P5\n0 2\n255\n"),
        ("2-of-4-pixels", b"P5\n2 2\n255\nab"),
        ("header-cut", b"P5\n2"),
        ("empty", b""),
        ("5000-digit-width", b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4)),  # past int()'s limit
        ("comment-to-the-end", b"P5\n2 2 # a comment that runs to the end of the file before maxval"),
    ]),
    # reading what the header declares peaked at 192 MiB
    Row("ppm-8192x8192-declared-10-bytes-held", IMAGE, b"P6\n8192 8192\n255\n" + bytes(10),
        ContractError, kind="claim", match="expected 201326592 pixel bytes, got 10", peak=2**20),
    Row("pgm-200000-digit-width", IMAGE, b"P5\n" + b"1" * 200_000 + b" 2\n255\n", ContractError,
        match="bad width b'1111", message_chars=200),
    # int() parses it, so the range check refuses it, echoing only its first bytes
    Row("pgm-4000-digit-width", IMAGE, b"P5\n" + b"9" * 4000 + b" 2\n255\n", ContractError,
        match=r"width b'9999\d*' out of range$", message_chars=200),
    # one regex match per comment; a repeated group would hold ~240 bytes each
    Row("pgm-100000-comments", IMAGE, b"P5\n" + b"#\n" * 100_000 + b"2 1\n255\nab", kind="accepted",
        peak=2**20, accepts=lambda img: img[:, :, 0].tolist() == [[97, 98]]),
]

# -- sweep CSVs -------------------------------------------------------------------------

_GOOD = "img,0.5,50,1.0,0.9,0.8,30.0"
_CSV = f"{sweep.CSV_HEADER}\n{_GOOD}\nkodim01,0.67,85,1.234568,1.234568,0.876543,inf\n".encode()


def _csv(field: str, value: str) -> bytes:
    """A good line, then as line 3 the same with one field's value replaced."""
    bad = _GOOD.split(",")
    bad[sweep.CSV_HEADER.split(",").index(field)] = value
    return f"{sweep.CSV_HEADER}\n{_GOOD}\n{','.join(bad)}\n".encode()


CSV_ROWS = [
    Row("csv", CSV, _CSV, kind="accepted", accepts=lambda pts: [p.psnr for p in pts] == [30, np.inf]),
    truncations("csv-cuts", CSV, _CSV, accepts=lambda points: isinstance(points, list)),
    Row("csv-header-nope", CSV, b"nope\n", ContractError, match="expected header"),
    Row("csv-3-of-7-fields", CSV, f"{sweep.CSV_HEADER}\na,b,c\n".encode(), ContractError,
        kind="claim", match="expected 7 fields, got 3"),
    # a non-numeric float or int field is named by file and line
    *(Row(f"csv-{field}-x", CSV, _csv(field, "x"), ContractError, match="^{path}:3: .*'x'")
      for field in ("mask_ratio", "quality")),
    # a field that parses to a non-finite number is named by file, line and
    # field; only psnr may be +inf (identical images)
    *(Row(f"csv-{field}-{value}", CSV, _csv(field, value), ContractError,
          match="^{path}:3: %s .* not finite" % field) for field, value in [
        ("mask_ratio", "nan"), ("overall_bpp", "nan"), ("overall_bpp", "inf"),
        ("payload_bpp", "-inf"), ("ssim", "nan"), ("ssim", "inf"), ("psnr", "nan"), ("psnr", "-inf"),
    ]),
    # a file that is not UTF-8 is named with the offset of its first bad byte
    *(Row(f"csv-not-utf8-at-{at}", CSV, head + b"\xff\xfe", ContractError,
          match="^{path}: not UTF-8 at byte %d" % at)
      for head, at in [(b"", 0), (sweep.CSV_HEADER.encode() + b"\n", len(sweep.CSV_HEADER) + 1)]),
]

ROWS = CONTAINER_ROWS + CODEC_ROWS + CHECKPOINT_ROWS + IMAGE_ROWS + CSV_ROWS


def _unreachable(*args):
    raise AssertionError("ran for an input that is refused before it")


def _check(row: Row, call, where: str, path: str) -> None:
    result = error = None
    with traced_peak() if row.peak else nullcontext(SimpleNamespace(peak=0)) as trace:
        try:
            result = call()
        except row.error or () as exc:
            error = exc
    assert row.peak is None or trace.peak < row.peak, f"{where}: peak {trace.peak} bytes"
    if error is None:
        assert row.accepts is not None and row.accepts(result), f"{where}: accepted"
        return
    message = str(error)
    assert re.search(row.match.replace("{path}", re.escape(path)), message), f"{where}: {message}"
    assert row.offset is None or error.offset == row.offset, f"{where}: offset {error.offset}"
    assert not isinstance(error, BitstreamError) or isinstance(error.offset, int), where
    assert row.message_chars is None or len(message) - len(path) < row.message_chars, where


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_input(row, tmp_path, monkeypatch):
    for name in row.unreachable:
        monkeypatch.setattr(pl, name, _unreachable)
    parse = PARSERS[row.parser][0]
    model = row.model and mae.init_model(row.model, seed=0)
    data = row.data() if callable(row.data) else row.data
    assert row.size in (None, len(data)), f"{row.name}: {len(data)} bytes"
    path = tmp_path / "input"
    for k in range(len(data)) if row.kind == "truncation" else [len(data)]:
        if row.parser in (IMAGE, CSV):
            path.write_bytes(data[:k])
            args = (path,)
        else:
            args = (data[:k], model) if row.parser == CONTAINER else (data[:k],)
        _check(row, lambda: parse(*args), f"{row.name} at {k} of {len(data)} bytes", str(path))


# Every function of the package that unpacks, buffers, reads or inflates
# bytes, and the parser whose rows reach it: a new reader of outside bytes
# joins this map and the table.
BYTE_READERS = {
    "cli._cmd_decompress": CONTAINER, "pipeline.container_from_bytes": CONTAINER,
    "codec._decode_blocks": CODEC, "codec.codec_decode": CODEC,
    "mae.load_bytes": CHECKPOINT, "mae.load_checkpoint": CHECKPOINT,
    "dataset.load_image": IMAGE, "sweep.read_csv": CSV,
    "metrics._reference_stats": None,  # its own cache key, never outside bytes
}
_READING_CALLS = {"unpack", "unpack_from", "iter_unpack", "frombuffer", "read", "decompress",
                  "decompressobj"}


def test_the_table_drives_five_parsers_each_with_every_kind_of_row():
    assert sorted(PARSERS) == [CODEC, IMAGE, CHECKPOINT, CONTAINER, CSV]
    assert len({row.name for row in ROWS}) == len(ROWS)
    for parser in PARSERS:
        kinds = {row.kind for row in ROWS if row.parser == parser}
        assert {"accepted", "truncation", "claim"} <= kinds, parser
    readers = {
        f"{path.stem}.{fn.name}"
        for path in Path(maecodec.__file__).parent.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and getattr(call.func, "attr", None) in _READING_CALLS
            for call in ast.walk(fn)
        )
    }
    assert readers == set(BYTE_READERS)
    assert set(BYTE_READERS.values()) == {*PARSERS, None}
