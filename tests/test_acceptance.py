"""Acceptance suite: one test per shipping requirement, one printed verdict each.

Verdict lines bypass pytest capture, so a plain ``pytest tests/test_acceptance.py``
shows them. The toy model is trained once per session and shared by the tests
that need it.
"""

import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from maecodec import autograd as ag
from maecodec import dataset, mae, metrics, sweep, training
from maecodec import pipeline as pl
from maecodec import transformer as tf
from maecodec.autograd import Tensor
from maecodec.codec import CODEC_DCT, CODEC_NULL, CodecParams, codec_decode, codec_encode
from maecodec.errors import (
    BitstreamError,
    ContainerError,
    ContractError,
    NumericError,
    ShapeError,
)
from maecodec.masking import generate_mask, mask_from_counts, patchify

from conftest import assert_grads_close
from test_metrics import brute_force_ssim

STRUCTURED_ERRORS = (BitstreamError, ContainerError, ContractError, ShapeError, NumericError)


@pytest.fixture
def verdict(capsys):
    def emit(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return emit


# -- shared toy model ----------------------------------------------------------


@pytest.fixture(scope="session")
def trained_toy():
    """One toy training run: 500 synthetic 64x64 crops, patch-4 model."""
    t0 = time.perf_counter()
    corpus = dataset.synthetic_corpus(500, size=64, channels=1, seed=11)
    config = mae.TMAEConfig(
        patch_size=4, channels=1, enc_d_model=32, enc_depth=2, enc_heads=2,
        enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
    )
    train_cfg = training.TrainConfig(
        crop_size=32, epochs=40, batch_size=8, learning_rate=2e-3, seed=0,
        ratio_low=0.5, ratio_high=0.8,
    )
    result = training.train(corpus, config, train_cfg)
    elapsed = time.perf_counter() - t0
    held = dataset.synthetic_corpus(50, size=64, channels=1, seed=999)
    return SimpleNamespace(
        model=result.model,
        losses=result.epoch_losses,
        held=held,
        crop=train_cfg.crop_size,
        elapsed=elapsed,
    )


# -- criteria ------------------------------------------------------------------


def test_acceptance_mask_protocol(verdict):
    """1000 random (seed, n, ratio) triples survive the wire bit-exactly."""
    rng = np.random.default_rng(0xACCE)
    t0 = time.perf_counter()
    for _ in range(1000):
        seed = int(rng.integers(0, 1 << 63))
        n = int(rng.integers(1, 4097))
        ratio = float(rng.uniform(0.0, 0.95))
        sent = generate_mask(seed, n, ratio)
        container = pl.Container(
            orig_width=n, orig_height=1, channels=1, patch_size=1,
            n_patches=n, keep_count=sent.keep_count, seed=seed,
            codec=CodecParams(), payload=b"",
        )
        received = pl.container_from_bytes(container.to_bytes()).mask_spec()
        assert received == sent
        assert received.keep_indices == sent.keep_indices
        assert received.masked_indices == sent.masked_indices
    elapsed = time.perf_counter() - t0
    verdict(
        "mask protocol",
        elapsed < 5.0,
        f"1000 wire round trips bit-exact in {elapsed:.2f}s (budget 5s)",
    )


def test_acceptance_lossless_degenerate_path(verdict):
    """Nothing masked + raw codec is bit-identical on 100 random images."""
    rng = np.random.default_rng(0x1055)
    t0 = time.perf_counter()
    for i in range(100):
        h = int(rng.integers(8, 81))
        w = int(rng.integers(8, 81))
        channels = int(rng.choice([1, 3]))
        patch = int(rng.choice([4, 8, 16]))
        img = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
        cfg = pl.PipelineConfig(
            patch_size=patch, mask_ratio=0.0, seed=i,
            codec=CodecParams(CODEC_NULL, 50),
        )
        out = pl.decompress(pl.compress(img, cfg), model=None)
        assert np.array_equal(out, img), f"image {i} ({h}x{w}x{channels}, p={patch})"
    elapsed = time.perf_counter() - t0
    verdict(
        "lossless degenerate path",
        elapsed < 10.0,
        f"100 images bit-identical in {elapsed:.2f}s (budget 10s)",
    )


def test_acceptance_rate_decomposition(verdict):
    """payload_bpp == stacked_bpp x (condensed/original) exactly, every cell."""
    rng = np.random.default_rng(0x2A7E)
    corpus = [rng.integers(0, 256, (48, 40, c), dtype=np.uint8) for c in (1, 3, 1)]
    cells = 0
    worst_pad_slack = 0.0
    for img in corpus:
        for ratio in (0.0, 0.4, 0.67, 0.8):
            for quality in (30, 70):
                cfg = pl.PipelineConfig(
                    patch_size=8, mask_ratio=ratio, seed=1,
                    codec=CodecParams(CODEC_DCT, quality),
                )
                container = pl.compress(img, cfg)
                rep = pl.rate_report(container)
                bits = 8 * rep.payload_bytes
                payload = Fraction(bits, rep.original_pixels)
                stacked = Fraction(bits, rep.condensed_pixels)
                share = Fraction(rep.condensed_pixels, rep.original_pixels)
                assert payload == stacked * share
                assert rep.payload_bpp == float(payload)
                assert rep.stacked_bpp == float(stacked)
                grid = container.padded_grid()
                padded = grid.width * grid.height
                row_share = grid.grid_cols * container.patch_size**2 / padded
                gap = abs(rep.condensed_pixels / padded - (1.0 - ratio))
                slack = gap - (row_share + 1.0 / container.n_patches)
                worst_pad_slack = max(worst_pad_slack, slack)
                assert slack <= 1e-12
                cells += 1
    verdict(
        "rate decomposition",
        True,
        f"{cells} sweep cells exact as rationals; condensed share within "
        f"one pad-row of 1-R (worst slack {worst_pad_slack:.2e})",
    )


def test_acceptance_gradient_suite(verdict):
    """Finite differences agree with backprop through every layer."""
    config = mae.TMAEConfig(
        patch_size=2, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
        enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4,
    )
    model = mae.init_model(config, seed=3)
    patches = Tensor(np.random.default_rng(4).random((6, config.patch_dim)))
    spec = mask_from_counts(seed=7, n_patches=6, keep_count=2)

    t0 = time.perf_counter()
    assert_grads_close(
        lambda: mae.forward_loss(model, patches, spec),
        model.named_parameters(),
        tol=1e-4,
    )
    elapsed = time.perf_counter() - t0
    n_params = sum(t.data.size for t in model.parameters())
    verdict(
        "gradient suite",
        elapsed < 120.0,
        f"all {len(model.parameters())} tensors ({n_params} scalars) within "
        f"1e-4 of central differences in {elapsed:.1f}s (budget 120s)",
    )


def test_acceptance_attention_invariants(verdict):
    rng = np.random.default_rng(5)
    cfg = tf.AttentionConfig(d_model=8, n_heads=2)
    block = tf.build_encoder_block(cfg, 16, tf.random_maker(rng))

    # row-stochastic attention maps
    worst = 0.0
    for n in (1, 3, 9):
        q = Tensor(rng.normal(size=(n, 4)))
        k = Tensor(rng.normal(size=(n, 4)))
        rng.normal(size=(n, 4))  # unused values; keeps the later draws as they were
        attn = ag.attention(q, k, Tensor(np.eye(n)))
        worst = max(worst, float(np.abs(attn.data.sum(axis=1) - 1.0).max()))
    rows_ok = worst < 1e-9

    # permutation equivariance without positional encoding
    x = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    out = tf.encoder_block(tf.TokenSequence(Tensor(x)), block).tokens.data
    out_perm = tf.encoder_block(tf.TokenSequence(Tensor(x[perm])), block).tokens.data
    equiv_gap = float(np.abs(out[perm] - out_perm).max())
    equiv_ok = equiv_gap < 1e-9

    # and broken once positions are encoded
    pe = tf.positional_encoding(range(6), 8).data
    with_pe = tf.encoder_block(tf.TokenSequence(Tensor(x + pe)), block).tokens.data
    with_pe_perm = tf.encoder_block(
        tf.TokenSequence(Tensor(x[perm] + pe)), block
    ).tokens.data
    broken_gap = float(np.abs(with_pe[perm] - with_pe_perm).max())
    broken_ok = broken_gap > 1e-6

    verdict(
        "attention invariants",
        rows_ok and equiv_ok and broken_ok,
        f"rows sum to 1 within {worst:.1e}; permutation equivariance gap "
        f"{equiv_gap:.1e} without positions, {broken_gap:.2f} with them",
    )


def test_acceptance_ssim_oracle(verdict):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(3):
        x = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        y = np.clip(x + rng.normal(0, 15, x.shape), 0, 255).astype(np.uint8)
        fast = metrics.ssim(x[:, :, None], y[:, :, None])
        slow = brute_force_ssim(x.astype(float), y.astype(float))
        worst = max(worst, abs(fast - slow))
    oracle_ok = worst < 1e-9

    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    identity_ok = metrics.ssim(img, img) == 1.0

    c1 = (0.01 * 255) ** 2
    expected = c1 / (255.0**2 + c1)
    got = metrics.ssim(
        np.zeros((16, 16, 1), dtype=np.uint8),
        np.full((16, 16, 1), 255, dtype=np.uint8),
    )
    constant_ok = abs(got - expected) < 1e-12

    verdict(
        "ssim oracle",
        oracle_ok and identity_ok and constant_ok,
        f"window oracle gap {worst:.1e}; ssim(x,x)=1; black-vs-white "
        f"{got:.6e} matches C1/(255^2+C1)={expected:.6e}",
    )


def test_acceptance_toy_training_signal(trained_toy, verdict):
    """Trained model beats the mid-gray fill by >= 20% on held-out crops."""
    crop = trained_toy.crop
    model_mses, fill_mses = [], []
    for i, (_, img) in enumerate(trained_toy.held):
        for j, window in enumerate((img[:crop, :crop], img[-crop:, -crop:])):
            patches, grid = patchify(window, trained_toy.model.config.patch_size)
            spec = generate_mask(
                seed=5000 + 2 * i + j, n_patches=grid.n_patches, mask_ratio=0.67
            )
            model_mses.append(training.masked_model_mse(trained_toy.model, patches, spec))
            fill_mses.append(training.baseline_fill_mse(patches, spec))
    model_mse = float(np.mean(model_mses))
    fill_mse = float(np.mean(fill_mses))
    improvement = 1.0 - model_mse / fill_mse
    ok = improvement >= 0.20 and trained_toy.elapsed < 900.0
    verdict(
        "toy training signal",
        ok,
        f"masked MSE {model_mse:.5f} vs mid-gray {fill_mse:.5f} "
        f"({improvement * 100:.1f}% better, need >=20%) on {len(model_mses)} "
        f"held-out crops; loss {trained_toy.losses[0]:.4f}->"
        f"{trained_toy.losses[-1]:.4f}; trained in {trained_toy.elapsed:.0f}s "
        f"(budget 900s)",
    )


def test_acceptance_rate_distortion_behavior(trained_toy, tmp_path, verdict):
    """Desk-scale stand-in for the full-scale rate-distortion claim.

    (a) at the lowest-BPP bucket of the masked Pareto front, no codec-alone
        operating point within the same bit budget reaches a higher SSIM
        (at toy scale the codec alone typically cannot reach that rate at
        all, which is the point of masking);
    (b) each fixed-ratio SSIM-vs-quality curve has at most one inversion;
    (c) emitted CSV/plot files are byte-stable across runs.
    """
    crop = trained_toy.crop
    corpus = [(name, img[:crop, :crop]) for name, img in trained_toy.held[:6]]
    ratios = [0.5, 0.67, 0.8]
    qualities = [10, 30, 50, 70, 90]

    def run_masked():
        return sweep.rd_sweep(corpus, ratios, qualities, trained_toy.model, seed=0)

    masked = run_masked()
    plain = sweep.rd_sweep(
        corpus, [0.0], [1, 2, 3, 5, 8, 10, 20, 30, 50, 70, 90],
        model=None, patch_size=trained_toy.model.config.patch_size, seed=0,
    )
    assert not masked.failures and not plain.failures
    masked_mean = sweep.corpus_mean(masked.points)
    plain_mean = sweep.corpus_mean(plain.points)

    front = sweep.pareto_front(masked_mean)
    low = front[0]
    rivals = [p for p in plain_mean if p.overall_bpp <= low.overall_bpp + 1e-9]
    best_rival = max((p.ssim for p in rivals), default=None)
    a_ok = best_rival is None or low.ssim >= best_rival
    plain_floor = min(p.overall_bpp for p in plain_mean)

    inversions = {}
    for ratio in ratios:
        curve = sorted(
            (p for p in masked_mean if p.mask_ratio == ratio), key=lambda p: p.quality
        )
        inversions[ratio] = sum(
            1 for a, b in zip(curve, curve[1:]) if b.ssim < a.ssim
        )
    b_ok = all(v <= 1 for v in inversions.values())

    paths = {}
    for run in ("one", "two"):
        result = run_masked()
        points = result.points + sweep.corpus_mean(result.points)
        csv_path = tmp_path / f"{run}.csv"
        sweep.write_csv(points, csv_path)
        dat_path = tmp_path / f"{run}.dat"
        sweep.write_curve_dat(sweep.pareto_front(sweep.corpus_mean(result.points)), dat_path)
        paths[run] = (csv_path.read_bytes(), dat_path.read_bytes())
    c_ok = paths["one"] == paths["two"]
    header_ok = paths["one"][0].startswith(sweep.CSV_HEADER.encode() + b"\n")

    rival_text = "none reachable" if best_rival is None else f"best {best_rival:.4f}"
    verdict(
        "rate-distortion behavior",
        a_ok and b_ok and c_ok and header_ok,
        f"(a) masked front floor {low.overall_bpp:.3f} bpp at SSIM {low.ssim:.4f} "
        f"vs codec-alone within budget: {rival_text} (codec floor "
        f"{plain_floor:.3f} bpp); (b) inversions per curve {inversions}; "
        f"(c) CSV+plot bytes stable across runs",
    )


def test_acceptance_robustness_fuzz(verdict):
    """10000 corrupted containers/bitstreams: structured errors only."""
    rng = np.random.default_rng(0xF022)
    model_cfg = mae.TMAEConfig(
        patch_size=8, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
        enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4,
    )
    model = mae.init_model(model_cfg, seed=0)

    gray = rng.integers(0, 256, (24, 24, 1), dtype=np.uint8)
    rgb = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    bases = [
        (
            "container",
            pl.compress(
                gray, pl.PipelineConfig(8, 0.5, 1, CodecParams(CODEC_DCT, 50))
            ).to_bytes(),
            model,
        ),
        (
            "container",
            pl.compress(
                gray, pl.PipelineConfig(8, 0.7, 2, CodecParams(CODEC_DCT, 90))
            ).to_bytes(),
            model,
        ),
        (
            "container",
            pl.compress(
                rgb, pl.PipelineConfig(8, 0.0, 3, CodecParams(CODEC_NULL, 50))
            ).to_bytes(),
            None,
        ),
        ("bitstream", codec_encode(gray, CodecParams(CODEC_DCT, 30)), None),
        ("bitstream", codec_encode(rgb, CodecParams(CODEC_NULL, 50)), None),
    ]

    def mutate(blob: bytes) -> bytes:
        kind = rng.integers(0, 5)
        data = bytearray(blob)
        if kind == 0:  # truncate
            return bytes(data[: rng.integers(0, len(data))])
        if kind == 1:  # flip one byte
            i = int(rng.integers(0, len(data)))
            data[i] ^= int(rng.integers(1, 256))
            return bytes(data)
        if kind == 2:  # overwrite a slice with noise
            i = int(rng.integers(0, len(data)))
            j = min(len(data), i + int(rng.integers(1, 16)))
            data[i:j] = rng.integers(0, 256, j - i, dtype=np.uint8).tobytes()
            return bytes(data)
        if kind == 3:  # zero a slice
            i = int(rng.integers(0, len(data)))
            j = min(len(data), i + int(rng.integers(1, 16)))
            data[i:j] = bytes(j - i)
            return bytes(data)
        return bytes(data) + rng.integers(0, 256, int(rng.integers(1, 33)), dtype=np.uint8).tobytes()

    cases = 10_000
    outcomes = {"ok": 0, "rejected": 0}
    t0 = time.perf_counter()
    for i in range(cases):
        kind, blob, dec_model = bases[i % len(bases)]
        fuzzed = mutate(blob)
        try:
            if kind == "container":
                container = pl.container_from_bytes(fuzzed)
                out = pl.decompress(container, dec_model)
                assert out.shape == (
                    container.orig_height,
                    container.orig_width,
                    container.channels,
                ), "output shape contradicts the container header"
            else:
                codec_decode(fuzzed)
            outcomes["ok"] += 1
        except STRUCTURED_ERRORS:
            outcomes["rejected"] += 1
        # anything else propagates and fails the test
    elapsed = time.perf_counter() - t0
    verdict(
        "container/codec robustness",
        True,
        f"{cases} fuzz cases in {elapsed:.1f}s: {outcomes['rejected']} structured "
        f"rejections, {outcomes['ok']} decodable with header-consistent output, "
        f"0 crashes",
    )
