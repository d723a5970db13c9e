"""Image ingestion (binary PPM/PGM) and a synthetic toy corpus.

Only the two netpbm binary formats are parsed; converting Kodak PNGs is a
one-liner outside this repo, e.g.:

    for f in kodim*.png; do magick "$f" "${f%.png}.ppm"; done

Synthetic images are smooth low-frequency fields with a few solid
rectangles: enough structure that masked patches are predictable from
their surroundings, which is what the autoencoder must learn.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .errors import ContractError

_MAX_HEADER_DIM = 1 << 16


def _read_token(fh, path) -> bytes:
    """Next whitespace-delimited token, skipping # comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            if token:
                return token
            raise ContractError(f"{path}: truncated header")
        if ch in b" \t\r\n":
            if token:
                return token
            continue
        if ch == b"#":
            while ch and ch != b"\n":
                ch = fh.read(1)
            if token:
                return token
            continue
        token += ch


def _int_token(fh, path, what: str) -> int:
    token = _read_token(fh, path)
    try:
        value = int(token)
    except ValueError:
        raise ContractError(f"{path}: bad {what} {token!r}") from None
    if not 1 <= value <= _MAX_HEADER_DIM:
        raise ContractError(f"{path}: {what} {value} out of range")
    return value


def load_image(path) -> np.ndarray:
    """Read a binary PPM (P6) or PGM (P5) file as a uint8 HxWxC array."""
    with open(path, "rb") as fh:
        magic = _read_token(fh, path)
        if magic == b"P6":
            channels = 3
        elif magic == b"P5":
            channels = 1
        else:
            raise ContractError(f"{path}: expected P5/P6 magic, got {magic!r}")
        width = _int_token(fh, path, "width")
        height = _int_token(fh, path, "height")
        maxval = _int_token(fh, path, "maxval")
        if maxval != 255:
            raise ContractError(f"{path}: only maxval 255 is supported, got {maxval}")
        expected = width * height * channels
        data = fh.read(expected)
        if len(data) != expected:
            raise ContractError(
                f"{path}: expected {expected} pixel bytes, got {len(data)}"
            )
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels).copy()


def save_image(path, image: np.ndarray) -> None:
    """Write a uint8 image as P6 (3 channels) or P5 (1 channel)."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.dtype != np.uint8 or arr.shape[2] not in (1, 3):
        raise ContractError(
            f"save_image needs a uint8 HxWx1 or HxWx3 array, got {arr.dtype} {arr.shape}"
        )
    magic = b"P6" if arr.shape[2] == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def load_corpus(directory) -> list[tuple[str, np.ndarray]]:
    """All .ppm/.pgm files in a directory, filename-sorted.

    Malformed files are skipped with a warning naming the file; the rest
    of the corpus still loads. A directory with no readable image gives
    an empty list and no further warning; callers decide whether that is
    an error.
    """
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith((".ppm", ".pgm"))
    )
    corpus: list[tuple[str, np.ndarray]] = []
    for name in names:
        try:
            corpus.append((os.path.splitext(name)[0], load_image(os.path.join(directory, name))))
        except (ContractError, OSError) as exc:
            warnings.warn(f"skipping {name}: {exc}", stacklevel=2)
    return corpus


def _bilinear_upsample(coarse: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = coarse.shape[:2]
    ys = np.linspace(0.0, h - 1.0, out_h)
    xs = np.linspace(0.0, w - 1.0, out_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = (1.0 - wx) * coarse[y0][:, x0] + wx * coarse[y0][:, x1]
    bottom = (1.0 - wx) * coarse[y1][:, x0] + wx * coarse[y1][:, x1]
    return (1.0 - wy) * top + wy * bottom


def synthetic_image(rng: np.random.Generator, size: int = 64, channels: int = 1) -> np.ndarray:
    coarse = rng.uniform(40.0, 215.0, (size // 16 + 1, size // 16 + 1, channels))
    img = _bilinear_upsample(coarse, size, size)
    for _ in range(int(rng.integers(1, 4))):
        rh = int(rng.integers(size // 8, size // 2))
        rw = int(rng.integers(size // 8, size // 2))
        y = int(rng.integers(0, size - rh))
        x = int(rng.integers(0, size - rw))
        img[y : y + rh, x : x + rw] = rng.uniform(0.0, 255.0, channels)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def synthetic_corpus(
    count: int, size: int = 64, channels: int = 1, seed: int = 0
) -> list[tuple[str, np.ndarray]]:
    """Deterministic toy corpus of structured images."""
    if count < 1:
        raise ContractError(f"count must be >= 1, got {count}")
    if size < 2:
        raise ContractError(f"size must be >= 2, got {size}")
    rng = np.random.default_rng(seed)
    width = len(str(count - 1))
    return [
        (f"toy{str(i).zfill(width)}", synthetic_image(rng, size, channels))
        for i in range(count)
    ]
