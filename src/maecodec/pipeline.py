"""End-to-end compression scheme: mask, stack, codec, container.

The transmitter is model-free: compress only masks, cuts out the kept
patches, stacks them and runs the block codec, all on uint8 samples. The
receiver regenerates the mask from the header triple (seed, n_patches,
keep_count), decodes the condensed image, and lets the autoencoder fill in
the masked patches; samples are float64 only on their way through the model.

Container layout (little-endian):
    magic "TMAE" | version u8 | orig_width u32 | orig_height u32 |
    channels u8 | patch_size u16 | n_patches u32 | keep_count u32 |
    seed u64 | mask_alg u8 | codec_id u8 | quality u8 | codec bitstream
The mask ratio itself is not stored; keep_count determines it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import mae
from .codec import HEADER_BYTES as STREAM_HEADER_BYTES
from .codec import _MAX_PIXELS, CodecParams, codec_decode, codec_encode, stream_header
from .errors import ContainerError, ContractError, NumericError, ShapeError
from .masking import (
    MASK_ALGORITHM_ID,
    MaskSpec,
    PatchGrid,
    condensed_grid_for,
    gather_patches,
    generate_mask,
    image_grid,
    keep_count_for_ratio,
    mask_from_counts,
    padded_grid,
    stack_visible,
    unstack_visible,
)
# Bound here only so that perfbench/tracer.py can wrap pipeline.patchify;
# nothing in this module calls it. ROADMAP item 5 retires that site.
from .masking import patchify

CONTAINER_MAGIC = b"TMAE"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4sBIIBHIIQBBB")
HEADER_BYTES = _HEADER.size

_MAX_PATCHES = 1 << 22


@dataclass(frozen=True)
class PipelineConfig:
    patch_size: int = 16
    mask_ratio: float = 0.67
    seed: int = 0
    codec: CodecParams = field(default_factory=CodecParams)

    def __post_init__(self):
        if not 0 < self.patch_size <= 0xFFFF:
            raise ContractError(f"patch_size out of u16 range 1..65535: {self.patch_size}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ContractError(f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ContractError(f"seed out of u64 range: {self.seed}")


@dataclass(frozen=True)
class Container:
    orig_width: int
    orig_height: int
    channels: int
    patch_size: int
    n_patches: int
    keep_count: int
    seed: int
    codec: CodecParams
    payload: bytes

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            CONTAINER_MAGIC,
            CONTAINER_VERSION,
            self.orig_width,
            self.orig_height,
            self.channels,
            self.patch_size,
            self.n_patches,
            self.keep_count,
            self.seed,
            MASK_ALGORITHM_ID,
            self.codec.codec_id,
            self.codec.quality,
        )
        return header + self.payload

    @property
    def total_bytes(self) -> int:
        return HEADER_BYTES + len(self.payload)

    def mask_spec(self) -> MaskSpec:
        return mask_from_counts(self.seed, self.n_patches, self.keep_count)

    def padded_grid(self) -> PatchGrid:
        return padded_grid(self.orig_height, self.orig_width, self.channels, self.patch_size)


def container_from_bytes(blob: bytes) -> Container:
    """Parse and validate a container; any inconsistency is a ContainerError."""
    if len(blob) < HEADER_BYTES:
        raise ContainerError(
            f"container header needs {HEADER_BYTES} bytes, got {len(blob)}"
        )
    (
        magic,
        version,
        orig_w,
        orig_h,
        channels,
        patch_size,
        n_patches,
        keep_count,
        seed,
        mask_alg,
        codec_id,
        quality,
    ) = _HEADER.unpack_from(blob)
    if magic != CONTAINER_MAGIC:
        raise ContainerError(f"bad container magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if mask_alg != MASK_ALGORITHM_ID:
        raise ContainerError(f"unknown mask algorithm id {mask_alg}")
    if orig_w == 0 or orig_h == 0:
        raise ContainerError(f"zero image dimension {orig_w}x{orig_h}")
    if channels not in (1, 3):
        raise ContainerError(f"channels must be 1 or 3, got {channels}")
    if patch_size == 0:
        raise ContainerError("zero patch size")
    grid_cols = -(-orig_w // patch_size)
    grid_rows = -(-orig_h // patch_size)
    if n_patches != grid_cols * grid_rows:
        raise ContainerError(
            f"header says {n_patches} patches, dimensions imply {grid_cols * grid_rows}"
        )
    if n_patches > _MAX_PATCHES:
        raise ContainerError(f"patch count {n_patches} exceeds sanity bound")
    if not 1 <= keep_count <= n_patches:
        raise ContainerError(f"keep_count {keep_count} outside 1..{n_patches}")
    try:
        codec = CodecParams(codec_id, quality)
    except ContractError as exc:
        raise ContainerError(f"invalid codec params: {exc}") from exc
    return Container(
        orig_width=orig_w,
        orig_height=orig_h,
        channels=channels,
        patch_size=patch_size,
        n_patches=n_patches,
        keep_count=keep_count,
        seed=seed,
        codec=codec,
        payload=blob[HEADER_BYTES:],
    )


def compress(image, config: PipelineConfig) -> Container:
    """Transmitter path: mask, gather, stack, codec, assemble. Model-free.

    Samples stay uint8 throughout: only the kept patches are cut out of
    the image, as bytes (see gather_patches for other dtypes). Channel,
    patch and condensed-sample counts that container_from_bytes or
    codec_decode refuse are refused here, from the image's shape alone,
    before any array is made; a float image with a NaN or infinite sample
    is refused before anything is encoded.
    """
    arr, grid = image_grid(image, config.patch_size)
    if grid.channels not in (1, 3):
        raise ShapeError(f"channels must be 1 or 3, got {grid.channels}")
    if grid.n_patches > _MAX_PATCHES:
        raise ShapeError(f"patch count {grid.n_patches} exceeds the container's sanity bound")
    cgrid = condensed_grid_for(keep_count_for_ratio(grid.n_patches, config.mask_ratio), grid)
    if cgrid.width * cgrid.height * cgrid.channels > _MAX_PIXELS:
        raise ShapeError(
            f"condensed image {cgrid.width}x{cgrid.height}x{cgrid.channels} exceeds "
            "the decoder's sanity bound"
        )
    if np.issubdtype(arr.dtype, np.inexact) and not np.isfinite(arr).all():
        raise NumericError("image has a NaN or infinite sample")
    spec = generate_mask(config.seed, grid.n_patches, config.mask_ratio)
    condensed, _ = stack_visible(gather_patches(arr, spec.keep_indices, grid), spec, grid)
    payload = codec_encode(condensed, config.codec)
    return Container(
        orig_width=arr.shape[1],
        orig_height=arr.shape[0],
        channels=grid.channels,
        patch_size=config.patch_size,
        n_patches=grid.n_patches,
        keep_count=spec.keep_count,
        seed=config.seed,
        codec=config.codec,
        payload=payload,
    )


def decompress(container: Container, model: mae.MaskedAutoencoder | None) -> np.ndarray:
    """Receiver path: regenerate mask, decode, unstack, reconstruct, crop.

    The model may be None only when nothing was masked. Returns a uint8
    HxWxC image at the original dimensions, an array of its own. Samples
    are float64 only between unstack_visible and the model; reconstruct
    returns bytes, the kept ones as the codec decoded them.
    """
    spec = container.mask_spec()
    grid = container.padded_grid()
    if model is not None and model.config.patch_size != container.patch_size:
        raise ContractError(
            f"model patch size {model.config.patch_size} != container {container.patch_size}"
        )
    if model is not None and model.config.channels != container.channels:
        raise ContractError(
            f"model channels {model.config.channels} != container {container.channels}"
        )
    # The header fixes the condensed image's codec, quality and size, so a
    # payload that declares others is refused before it is decoded.
    payload = container.payload
    if len(payload) >= STREAM_HEADER_BYTES:  # a shorter one is codec_decode's to reject
        cgrid = condensed_grid_for(spec.keep_count, grid)
        implied = stream_header(
            container.codec, cgrid.width, cgrid.height, cgrid.channels, len(payload) - STREAM_HEADER_BYTES
        )
        if payload[:STREAM_HEADER_BYTES] != implied:
            raise ContainerError(
                f"payload stream header {payload[:STREAM_HEADER_BYTES].hex()} is not "
                f"{implied.hex()}, the one the container implies"
            )
    condensed = codec_decode(payload)
    visible = unstack_visible(condensed, spec, grid)
    recon = mae.reconstruct(visible, spec, grid, model)
    if recon.shape[:2] != (container.orig_height, container.orig_width):
        recon = recon[: container.orig_height, : container.orig_width].copy()
    return recon


@dataclass(frozen=True)
class RateReport:
    """BPP accounting for one container, header included and excluded."""

    overall_bpp: float
    payload_bpp: float
    stacked_bpp: float
    header_bytes: int
    payload_bytes: int
    condensed_pixels: int
    original_pixels: int


def rate_report(container: Container) -> RateReport:
    """Rates per pixel of the container's original image dimensions."""
    cgrid = condensed_grid_for(container.keep_count, container.padded_grid())
    original_pixels = container.orig_width * container.orig_height
    condensed_pixels = cgrid.width * cgrid.height
    payload_bits = 8 * len(container.payload)
    return RateReport(
        overall_bpp=8.0 * container.total_bytes / original_pixels,
        payload_bpp=payload_bits / original_pixels,
        stacked_bpp=payload_bits / condensed_pixels,
        header_bytes=HEADER_BYTES,
        payload_bytes=len(container.payload),
        condensed_pixels=condensed_pixels,
        original_pixels=original_pixels,
    )
