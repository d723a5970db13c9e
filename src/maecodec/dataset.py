"""Image ingestion (binary PPM/PGM) and a synthetic toy corpus.

Only the two netpbm binary formats are parsed; converting Kodak PNGs is a
one-liner outside this repo, e.g.:

    for f in kodim*.png; do magick "$f" "${f%.png}.ppm"; done

A file is read once and its header parsed from those bytes, so a refused
file holds no memory beyond its own bytes, whatever its header declares.

Synthetic images are smooth low-frequency fields with a few solid
rectangles: enough structure that masked patches are predictable from
their surroundings, which is what the autoencoder must learn. They are
built band by band: the only array that spans an image is its uint8
output, and the float64 work stays within a few bands of _BAND_SAMPLES
samples plus the x-interpolated coarse rows (size // 16 + 1 of them), so
a 768x768x3 image peaks at 4.7 MiB (tracemalloc) for a 1.7 MiB output.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np

from .errors import ContractError

_MAX_HEADER_DIM = 1 << 16
_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
# One step through a netpbm header: whitespace, then a comment, which runs to
# a newline or to the end of the input, or a token (group 1) and the one
# whitespace byte or comment that ends it. Whitespace is these four bytes (\s
# adds \v and \f). A repeated group would hold ~240 bytes per comment.
_HEADER_STEP = re.compile(
    rb"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)|([^ \t\r\n#]+)(?:[ \t\r\n]|#[^\n]*(?:\n|\Z))?)"
)
_ECHO_BYTES = 32  # a refused header token is echoed up to this many bytes
# A synthetic image is built a band of rows at a time, each band about this
# many float64 samples (512 KiB); a 64x64x3 image is one band.
_BAND_SAMPLES = 1 << 16


def load_image(path) -> np.ndarray:
    """Read a binary PPM (P6) or PGM (P5) file as a uint8 HxWxC array.

    The file is read once; a header that declares more pixels than the
    bytes after it hold is refused before any array is made.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, pos = [], 0
    for what in ("magic", "width", "height", "maxval"):
        token = None
        while token is None:  # one match per comment before the token
            match = _HEADER_STEP.match(data, pos)
            if match is None:
                raise ContractError(f"{path}: truncated header")
            token, pos = match[1], match.end()
        if what == "magic":
            if token not in _MAGIC_CHANNELS:
                raise ContractError(f"{path}: expected P5/P6 magic, got {token[:_ECHO_BYTES]!r}")
            header.append(_MAGIC_CHANNELS[token])
            continue
        try:
            value = int(token)
        except ValueError:
            raise ContractError(f"{path}: bad {what} {token[:_ECHO_BYTES]!r}") from None
        if not 1 <= value <= _MAX_HEADER_DIM:
            raise ContractError(f"{path}: {what} {token[:_ECHO_BYTES]!r} out of range")
        header.append(value)
    channels, width, height, maxval = header
    if maxval != 255:
        raise ContractError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * channels
    if len(data) - pos < expected:
        raise ContractError(f"{path}: expected {expected} pixel bytes, got {len(data) - pos}")
    return np.frombuffer(data, np.uint8, expected, pos).reshape(height, width, channels).copy()


def save_image(path, image: np.ndarray) -> None:
    """Write a uint8 image as P6 (3 channels) or P5 (1 channel)."""
    arr = np.asarray(image)
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


def _linear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For n_out points spread evenly over 0..n_in-1: lower index, upper index, weight."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    lo = np.floor(pos).astype(np.int64)
    return lo, np.minimum(lo + 1, n_in - 1), pos - lo


def synthetic_image(rng: np.random.Generator, size: int = 64, channels: int = 1) -> np.ndarray:
    """A uint8 size x size x channels image: a bilinear field under 1-3 solid rectangles.

    Draws, in order: the coarse (size // 16 + 1)^2 field, the rectangle
    count, then rh, rw, y, x and value per rectangle. Each coarse row is
    interpolated along x once; output rows are then formed in bands of
    about _BAND_SAMPLES samples, each the y interpolation of two of those
    rows with the rectangles painted over it in draw order, rounded,
    clipped and stored. Beyond the uint8 output, memory holds the
    interpolated coarse rows and a few float64 bands.
    """
    coarse = rng.uniform(40.0, 215.0, (size // 16 + 1, size // 16 + 1, channels))
    rects = []
    for _ in range(int(rng.integers(1, 4))):
        rh = int(rng.integers(size // 8, size // 2))
        rw = int(rng.integers(size // 8, size // 2))
        y = int(rng.integers(0, size - rh))
        x = int(rng.integers(0, size - rw))
        rects.append((y, y + rh, x, x + rw, rng.uniform(0.0, 255.0, channels)))
    y0, y1, wy = _linear_taps(coarse.shape[0], size)
    x0, x1, wx = _linear_taps(coarse.shape[1], size)
    wx = wx[:, None]
    rows = (1.0 - wx) * coarse[:, x0] + wx * coarse[:, x1]
    img = np.empty((size, size, channels), dtype=np.uint8)
    step = max(1, _BAND_SAMPLES // (size * channels))
    for a in range(0, size, step):
        w = wy[a : a + step, None, None]
        band = (1.0 - w) * rows[y0[a : a + step]] + w * rows[y1[a : a + step]]
        for top, bottom, left, right, value in rects:
            band[max(top - a, 0) : max(bottom - a, 0), left:right] = value
        np.rint(band, out=band)
        np.clip(band, 0, 255, out=band)
        img[a : a + step] = band
    return img


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
