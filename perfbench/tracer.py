"""Span tracing of maecodec from outside the package.

The benchmark changes no file under ``src/``. Instead a ``Tracer`` replaces
public functions at the name their caller looks up (``pipeline`` imports
``codec_encode`` by name, so the span goes on ``pipeline.codec_encode``) and
restores every original on exit. Each span records its name, start, end,
parent span and op id; spans stay in memory and are written out once, when
the run ends. A layer's self time is its span time minus the time its child
spans cover.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from maecodec import (
    autograd, codec, mae, masking, metrics, pipeline, sweep, training, transformer,
)

# (owner, attribute, span name). One span name may sit on several lookup
# sites: compress is looked up on pipeline by the kodak loop and on sweep by
# rd_sweep; the receiver regenerates its mask with mask_from_counts.
SPAN_SITES = [
    (pipeline, "compress", "pipeline.compress"),
    (sweep, "compress", "pipeline.compress"),
    (pipeline, "decompress", "pipeline.decompress"),
    (sweep, "decompress", "pipeline.decompress"),
    (pipeline, "container_from_bytes", "pipeline.container_parse"),
    (pipeline.Container, "to_bytes", "pipeline.to_bytes"),
    (sweep, "rate_report", "pipeline.rate_report"),
    (pipeline, "patchify", "masking.patchify"),
    (masking, "patchify", "masking.patchify"),
    (training, "patchify", "masking.patchify"),
    (pipeline, "generate_mask", "masking.generate_mask"),
    (pipeline, "mask_from_counts", "masking.generate_mask"),
    (training, "generate_mask", "masking.generate_mask"),
    (pipeline, "stack_visible", "masking.stack_visible"),
    (pipeline, "unstack_visible", "masking.unstack_visible"),
    (pipeline, "codec_encode", "codec.encode"),
    (pipeline, "codec_decode", "codec.decode"),
    (mae, "reconstruct", "mae.reconstruct"),
    (mae, "encode_visible", "mae.encode_visible"),
    (mae, "decode_full", "mae.decode_full"),
    (training, "forward_loss", "mae.forward_loss"),
    (transformer, "encoder_block", "transformer.encoder_block"),
    (transformer, "multi_head_attention", "transformer.attention"),
    (autograd, "softmax_rows", "autograd.softmax_rows"),
    (autograd, "backward", "autograd.backward"),
    (training.Adam, "step", "training.adam_step"),
    (metrics, "ssim", "metrics.ssim"),
    (metrics, "psnr", "metrics.psnr"),
]

ROOT_SPAN = "bench.op"


def _codec_blocks(image) -> int:
    h, w = image.shape[:2]
    c = image.shape[2] if image.ndim == 3 else 1
    return -(-h // 8) * -(-w // 8) * c


def _attn_bytes(args) -> int:
    """heads * n^2 * 8: float64 attention maps one encoder block computes."""
    seq, params = args[0], args[1]
    n = seq.tokens.shape[0]
    return params.config.n_heads * n * n * 8


# Counters, reported per op; every one of them is 0 where its layer is idle.
COUNTERS = [
    "codec.blocks", "codec.payload_bytes", "pipeline.container_bytes",
    "mae.enc_tokens", "mae.dec_tokens", "mae.attn_bytes", "autograd.op_calls",
]

# span name -> function(args, result) -> {counter: increment}
OBSERVERS = {
    "codec.encode": lambda a, r: {
        "codec.blocks": _codec_blocks(a[0]),
        "codec.payload_bytes": len(r) - codec.HEADER_BYTES,
    },
    "codec.decode": lambda a, r: {"codec.blocks": _codec_blocks(r)},
    "pipeline.container_parse": lambda a, r: {"pipeline.container_bytes": len(a[0])},
    "mae.encode_visible": lambda a, r: {"mae.enc_tokens": len(a[1])},
    "mae.decode_full": lambda a, r: {"mae.dec_tokens": a[1].n_patches},
    "transformer.encoder_block": lambda a, r: {"mae.attn_bytes": _attn_bytes(a)},
}


def autograd_ops() -> list[str]:
    """Every public op function of ``autograd``; ``backward`` is the sweep, not an op."""
    return sorted(
        name
        for name, fn in vars(autograd).items()
        if inspect.isfunction(fn)
        and fn.__module__ == autograd.__name__
        and not name.startswith("_")
        and name != "backward"
    )


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name in autograd_ops():
            self._patch(autograd, name, self._counting(getattr(autograd, name)))
        for owner, attr, name in SPAN_SITES:
            self._patch(owner, attr, self._spanning(name, vars(owner)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _counting(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["autograd.op_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                for key, inc in observe(args, result).items():
                    counts[key] += inc
            return result

        return spanned

    # -- root spans ---------------------------------------------------------

    def root(self):
        """Context manager for one benchmark call; gives it a fresh op id."""
        return _Root(self)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return dict(totals)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )


class _Root:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        t.op += 1
        self.span = [ROOT_SPAN, time.perf_counter(), 0.0, -1, t.op]
        t._stack.append(len(t.spans))
        t.spans.append(self.span)
        return self

    def __exit__(self, *exc) -> None:
        self.span[2] = time.perf_counter()
        self.tracer._stack.pop()
