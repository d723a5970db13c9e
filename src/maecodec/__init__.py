"""Masked-autoencoder image compression.

Transmitter: patchify, seeded random masking, visible-patch stacking, a
baseline DCT block codec, a self-contained binary container. Receiver:
codec decode, unstacking, transformer-masked-autoencoder reconstruction
of the withheld patches. Plus metrics (SSIM/PSNR), a toy training
harness, and a rate-distortion sweep with Pareto selection.
"""

from .autograd import Tensor, backward
from .codec import CODEC_DCT, CODEC_NULL, CodecParams, codec_decode, codec_encode
from .errors import (
    BitstreamError,
    CheckpointError,
    ContainerError,
    ContractError,
    InfeasibleBudgetError,
    NumericError,
    ShapeError,
)
from .mae import (
    MaskedAutoencoder,
    TMAEConfig,
    decode_full,
    encode_visible,
    init_model,
    load_checkpoint,
    masked_mse,
    reconstruct,
    save_checkpoint,
)
from .masking import (
    MaskSpec,
    PatchGrid,
    generate_mask,
    mask_from_counts,
    patchify,
    stack_visible,
    to_uint8,
    unpatchify,
    unstack_visible,
)
from .metrics import mse, psnr, ssim
from .pipeline import (
    Container,
    PipelineConfig,
    compress,
    container_from_bytes,
    decompress,
    rate_report,
)
from .sweep import (
    RDPoint,
    SweepResult,
    corpus_mean,
    pareto_front,
    rd_sweep,
    select_config_for_budget,
)
from .training import Adam, TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BitstreamError",
    "CheckpointError",
    "CODEC_DCT",
    "CODEC_NULL",
    "CodecParams",
    "Container",
    "ContainerError",
    "ContractError",
    "InfeasibleBudgetError",
    "MaskSpec",
    "MaskedAutoencoder",
    "NumericError",
    "PatchGrid",
    "PipelineConfig",
    "RDPoint",
    "ShapeError",
    "SweepResult",
    "TMAEConfig",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "backward",
    "codec_decode",
    "codec_encode",
    "compress",
    "container_from_bytes",
    "corpus_mean",
    "decode_full",
    "decompress",
    "encode_visible",
    "generate_mask",
    "init_model",
    "load_checkpoint",
    "mask_from_counts",
    "masked_mse",
    "mse",
    "pareto_front",
    "patchify",
    "psnr",
    "rate_report",
    "rd_sweep",
    "reconstruct",
    "save_checkpoint",
    "select_config_for_budget",
    "ssim",
    "stack_visible",
    "to_uint8",
    "train",
    "unpatchify",
    "unstack_visible",
]
