"""Masked autoencoder: staged oracles, passthrough, gradients, checkpoints."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maecodec import autograd as ag
from maecodec import mae
from maecodec import pipeline as pl
from maecodec import transformer as tf
from maecodec.autograd import Tensor
from maecodec.codec import CodecParams, codec_decode
from maecodec.dataset import synthetic_image
from maecodec.errors import CheckpointError, ContractError, ShapeError
from maecodec.masking import (
    PatchGrid,
    generate_mask,
    mask_from_counts,
    patchify,
    unstack_visible,
)

from conftest import assert_grads_close

BENCH_FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def _tiny_model(cfg, seed=0):
    return mae.init_model(cfg, seed=seed)


# -- configuration -------------------------------------------------------------


def test_config_defaults_valid():
    cfg = mae.TMAEConfig()
    assert cfg.patch_dim == 64
    assert cfg.encoder_attention.d_head == 16
    assert cfg.decoder_attention.d_head == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(patch_size=0),
        dict(channels=2),
        dict(enc_depth=0),
        dict(dec_depth=5),  # deeper than the default 4-block encoder
        dict(enc_d_model=30, enc_heads=4),
        dict(dec_d_model=30, dec_heads=4),
        dict(enc_d_ff=8),
        dict(dec_d_ff=4),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ContractError):
        mae.TMAEConfig(**kwargs)


def test_named_parameters_order_and_count(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    names = [n for n, _ in model.named_parameters()]
    assert names[0] == "embed"
    assert names[-2:] == ["head_w", "head_b"]
    assert "mask_token" in names
    assert len(names) == len(set(names))
    # 8 top-level tensors plus 10 + 3*heads per block (ln pairs, per-head
    # q/k/v, output projection, ffn) on each side
    expected = 8 + tiny_mae_config.enc_depth * (10 + 3 * tiny_mae_config.enc_heads) \
        + tiny_mae_config.dec_depth * (10 + 3 * tiny_mae_config.dec_heads)
    assert len(names) == expected


# -- encoder path --------------------------------------------------------------


def test_encode_visible_shape(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    vis = np.random.default_rng(0).random((3, tiny_mae_config.patch_dim))
    latent = mae.encode_visible(vis, (0, 2, 5), model)
    assert latent.shape == (3, tiny_mae_config.enc_d_model)


def test_encode_visible_rejects_bad_shapes(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    with pytest.raises(ShapeError):
        mae.encode_visible(np.zeros((3, 5)), (0, 1, 2), model)
    with pytest.raises(ShapeError):
        mae.encode_visible(np.zeros((3, tiny_mae_config.patch_dim)), (0, 1), model)
    with pytest.raises(ContractError):
        mae.encode_visible(np.zeros((1, tiny_mae_config.patch_dim)), (-1,), model)


def test_encode_visible_rejects_duplicate_keep_indices(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    with pytest.raises(ContractError):
        mae.encode_visible(np.zeros((2, tiny_mae_config.patch_dim)), (1, 1), model)


def test_encode_visible_position_sensitivity(tiny_mae_config):
    """Same patch content at different grid positions gives different latents."""
    model = _tiny_model(tiny_mae_config)
    vis = np.random.default_rng(1).random((2, tiny_mae_config.patch_dim))
    a = mae.encode_visible(vis, (0, 1), model).data
    b = mae.encode_visible(vis, (0, 7), model).data
    assert not np.allclose(a, b)


def test_encode_visible_matches_manual_stages(tiny_mae_config):
    """Embed + positions + blocks + final norm, staged by hand."""
    model = _tiny_model(tiny_mae_config)
    keep = (1, 4, 6)
    vis = np.random.default_rng(2).random((3, tiny_mae_config.patch_dim))

    x = vis @ model.embed.data
    x = x + tf.positional_encoding(keep, tiny_mae_config.enc_d_model).data
    seq = tf.TokenSequence(Tensor(x))
    for block in model.enc_blocks:
        seq = tf.encoder_block(seq, block)
    manual = ag.layer_norm(seq.tokens, model.enc_ln_gain, model.enc_ln_bias).data

    np.testing.assert_allclose(mae.encode_visible(vis, keep, model).data, manual, rtol=1e-12)


# -- decoder path --------------------------------------------------------------


def _no_decoder_config():
    return mae.TMAEConfig(
        patch_size=2, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
        enc_d_ff=8, dec_d_model=4, dec_depth=0, dec_heads=1, dec_d_ff=4,
    )


def test_decode_full_depth_zero_masked_rows_oracle():
    """With no decoder blocks a masked row is head(mask_token + pe[i])."""
    cfg = _no_decoder_config()
    model = _tiny_model(cfg, seed=3)
    spec = mask_from_counts(seed=9, n_patches=6, keep_count=2)
    latent = Tensor(np.random.default_rng(4).random((2, cfg.enc_d_model)))
    out = mae.decode_full(latent, spec, model).data

    pe = tf.positional_encoding(range(6), cfg.dec_d_model).data
    for i in spec.masked_indices:
        expected = (model.mask_token.data + pe[i]) @ model.head_w.data + model.head_b.data
        np.testing.assert_allclose(out[i], expected, rtol=1e-12)
    for s, i in enumerate(spec.keep_indices):
        proj = latent.data[s] @ model.enc2dec_w.data + model.enc2dec_b.data
        expected = (proj + pe[i]) @ model.head_w.data + model.head_b.data
        np.testing.assert_allclose(out[i], expected, rtol=1e-12)


def test_decode_full_rejects_wrong_latent(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    spec = mask_from_counts(seed=0, n_patches=8, keep_count=3)
    with pytest.raises(ShapeError):
        mae.decode_full(Tensor(np.zeros((4, tiny_mae_config.enc_d_model))), spec, model)
    with pytest.raises(ShapeError):
        mae.decode_full(Tensor(np.zeros((3, 5))), spec, model)


def test_decode_full_shape(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    spec = mask_from_counts(seed=1, n_patches=10, keep_count=4)
    latent = Tensor(np.zeros((4, tiny_mae_config.enc_d_model)))
    out = mae.decode_full(latent, spec, model)
    assert out.shape == (10, tiny_mae_config.patch_dim)


# -- reconstruction ------------------------------------------------------------


def test_reconstruct_no_masked_needs_no_model():
    img = np.random.default_rng(5).integers(0, 256, (8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, 2)
    spec = generate_mask(seed=0, n_patches=grid.n_patches, mask_ratio=0.0)
    out = mae.reconstruct(patches.data, spec, grid, model=None)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, img)


def test_reconstruct_masked_requires_model():
    img = np.zeros((8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, 2)
    spec = generate_mask(seed=0, n_patches=grid.n_patches, mask_ratio=0.5)
    vis = patches.data[list(spec.keep_indices)]
    with pytest.raises(ContractError):
        mae.reconstruct(vis, spec, grid, model=None)


def test_reconstruct_visible_patches_pass_through_verbatim(tiny_mae_config):
    """Received bytes come back exactly, whatever the weights are."""
    model = _tiny_model(tiny_mae_config, seed=11)
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (10, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, tiny_mae_config.patch_size)
    spec = generate_mask(seed=3, n_patches=grid.n_patches, mask_ratio=0.6)
    keep = spec.keep_indices
    vis = patches.data[list(keep)]
    out = mae.reconstruct(vis, spec, grid, model)
    assert out.dtype == np.uint8 and out.shape == img.shape
    p = tiny_mae_config.patch_size
    for idx in keep:
        r, c = divmod(idx, grid.grid_cols)
        np.testing.assert_array_equal(
            out[r * p : (r + 1) * p, c * p : (c + 1) * p],
            img[r * p : (r + 1) * p, c * p : (c + 1) * p],
        )


def test_reconstruct_saturates_wild_predictions(tiny_mae_config):
    """Predictions far outside [0, 1] clamp to 0 or 255; they never wrap."""
    model = _tiny_model(tiny_mae_config, seed=7)
    for _, t in model.named_parameters():
        t.data = t.data * 50.0  # force wild predictions
    img = np.random.default_rng(8).integers(0, 256, (8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, tiny_mae_config.patch_size)
    spec = generate_mask(seed=1, n_patches=grid.n_patches, mask_ratio=0.5)
    visible = patches.data[list(spec.keep_indices)]
    masked = list(spec.masked_indices)
    pred = mae.decode_full(mae.encode_visible(visible, spec.keep_indices, model), spec, model).data[masked]
    assert not ((pred >= 0.0) & (pred <= 1.0)).any()
    out = mae.reconstruct(visible, spec, grid, model)
    got, _ = patchify(out, tiny_mae_config.patch_size)
    masked_bytes = np.rint(got.data[masked] * 255.0)
    np.testing.assert_array_equal(masked_bytes, np.where(pred > 1.0, 255.0, 0.0))
    assert set(np.unique(masked_bytes)) == {0.0, 255.0}


def test_reconstruct_validates_grid_and_shapes(tiny_mae_config):
    model = _tiny_model(tiny_mae_config)
    grid = PatchGrid(8, 8, 1, 2)
    spec = mask_from_counts(seed=0, n_patches=16, keep_count=4)
    with pytest.raises(ShapeError):
        mae.reconstruct(np.zeros((3, 4)), spec, grid, model)
    bad_spec = mask_from_counts(seed=0, n_patches=9, keep_count=4)
    with pytest.raises(ContractError):
        mae.reconstruct(np.zeros((4, 4)), bad_spec, grid, model)


# -- losses --------------------------------------------------------------------


def test_masked_mse_zero_for_equal_inputs():
    spec = mask_from_counts(seed=0, n_patches=6, keep_count=2)
    x = np.random.default_rng(9).random((6, 4))
    assert mae.masked_mse(Tensor(x), Tensor(x), spec).data == 0.0


def test_masked_mse_ignores_visible_rows():
    spec = mask_from_counts(seed=2, n_patches=6, keep_count=2)
    target = np.random.default_rng(10).random((6, 4))
    pred = target.copy()
    pred[list(spec.keep_indices)] += 99.0
    assert mae.masked_mse(Tensor(pred), Tensor(target), spec).data == 0.0


def test_masked_mse_constant_offset():
    spec = mask_from_counts(seed=3, n_patches=5, keep_count=1)
    target = np.zeros((5, 3))
    pred = np.zeros((5, 3))
    pred[list(spec.masked_indices)] = 0.25
    assert abs(mae.masked_mse(Tensor(pred), Tensor(target), spec).data - 0.0625) < 1e-15


def test_masked_mse_rejects_empty_mask_and_mismatch():
    spec = mask_from_counts(seed=0, n_patches=4, keep_count=4)
    with pytest.raises(ContractError):
        mae.masked_mse(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))), spec)
    spec2 = mask_from_counts(seed=0, n_patches=4, keep_count=2)
    with pytest.raises(ShapeError):
        mae.masked_mse(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))), spec2)


# -- gradients -----------------------------------------------------------------


def test_forward_loss_gradient_reaches_every_parameter(tiny_mae_config):
    model = _tiny_model(tiny_mae_config, seed=12)
    patches = Tensor(np.random.default_rng(13).random((8, tiny_mae_config.patch_dim)))
    spec = mask_from_counts(seed=5, n_patches=8, keep_count=3)
    loss = mae.forward_loss(model, patches, spec)
    ag.backward(loss)
    for name, t in model.named_parameters():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), name


def test_forward_loss_full_gradcheck(tiny_mae_config):
    model = _tiny_model(tiny_mae_config, seed=14)
    patches = Tensor(np.random.default_rng(15).random((6, tiny_mae_config.patch_dim)))
    spec = mask_from_counts(seed=6, n_patches=6, keep_count=2)

    def loss_fn():
        return mae.forward_loss(model, patches, spec)

    assert_grads_close(loss_fn, model.named_parameters())


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip(tiny_mae_config):
    model = _tiny_model(tiny_mae_config, seed=16)
    clone = mae.load_bytes(mae.save_bytes(model))
    assert clone.config == model.config
    for (n1, a), (n2, b) in zip(model.named_parameters(), clone.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(a.data.astype(np.float32), b.data.astype(np.float32))
        assert not b.requires_grad


@pytest.mark.parametrize(
    "cfg",
    [
        mae.TMAEConfig(),
        mae.TMAEConfig(patch_size=2, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
                       enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4),
        mae.TMAEConfig(patch_size=4, channels=3, enc_d_model=12, enc_depth=3, enc_heads=3,
                       enc_d_ff=20, dec_d_model=6, dec_depth=0, dec_heads=1, dec_d_ff=6),
        mae.TMAEConfig(patch_size=16, channels=3, enc_d_model=32, enc_depth=2, enc_heads=8,
                       enc_d_ff=32, dec_d_model=16, dec_depth=2, dec_heads=4, dec_d_ff=48),
    ],
)
def test_checkpoint_save_load_save_is_bitwise_fixed_point(cfg):
    model = _tiny_model(cfg, seed=17)
    blob = mae.save_bytes(model)
    assert mae.save_bytes(mae.load_bytes(blob)) == blob


@pytest.mark.parametrize(
    "path", sorted(BENCH_FIXTURES.glob("*.tmck")), ids=lambda p: p.name
)
def test_benchmark_fixture_checkpoints_load_and_resave(path):
    """The benchmark's trained checkpoints match their manifest and still load.

    A change to the weight layout that breaks them fails here, not only in a
    benchmark run.
    """
    manifest = json.loads((BENCH_FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(p.name for p in BENCH_FIXTURES.glob("*.tmck"))
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == manifest[path.name]["sha256"]
    model = mae.load_bytes(blob)
    assert model.config == mae.TMAEConfig(**manifest[path.name]["model"])
    assert mae.save_bytes(model) == blob


def test_load_draws_no_random_weights(tiny_mae_config, monkeypatch):
    model = _tiny_model(tiny_mae_config, seed=23)
    blob = mae.save_bytes(model)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_bytes drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    clone = mae.load_bytes(blob)
    assert clone.config == model.config
    for (n1, a), (n2, b) in zip(model.named_parameters(), clone.named_parameters(), strict=True):
        assert n1 == n2
        np.testing.assert_array_equal(b.data, a.data.astype(np.float32))


def test_checkpoint_file_round_trip(tiny_mae_config, tmp_path):
    model = _tiny_model(tiny_mae_config, seed=18)
    path = tmp_path / "model.tmck"
    mae.save_checkpoint(model, path)
    clone = mae.load_checkpoint(path)
    np.testing.assert_array_equal(
        clone.embed.data.astype(np.float32), model.embed.data.astype(np.float32)
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b[:10],  # truncated header
        lambda b: b"XXXX" + b[4:],  # bad magic
        lambda b: b[:4] + bytes([99]) + b[5:],  # unknown version
        lambda b: b[: len(b) // 2],  # tensor data truncated
        lambda b: b + b"\x01\x02\x00\x00\x00" + b"\x00" * 8,  # trailing extra tensor
        lambda b: b[:45] + bytes([7]) + b[46:],  # bad rank byte
        lambda b: b[:46] + b[50:54] + b[46:50] + b[54:],  # embed dims swapped
    ],
)
def test_checkpoint_malformed_inputs(tiny_mae_config, mutate):
    blob = mae.save_bytes(_tiny_model(tiny_mae_config, seed=19))
    with pytest.raises(CheckpointError):
        mae.load_bytes(mutate(blob))


def test_checkpoint_invalid_config_rejected(tiny_mae_config):
    blob = bytearray(mae.save_bytes(_tiny_model(tiny_mae_config, seed=20)))
    # zero out the patch-size field (first u32 after magic+version)
    blob[5:9] = b"\x00\x00\x00\x00"
    with pytest.raises(CheckpointError):
        mae.load_bytes(bytes(blob))


# SHA-256 over the float64 latents and decode_full output and the decompressed
# pixels of the seeded containers below, each reconstructed with a model that
# went through save_bytes/load_bytes. Any change to an inference op shows here.
GOLDEN_DECODE_SHA256 = "4290fa160160c816fa0241086b7858937a108cc6ad959759655abd47898d79d6"


def _golden_decode_cases():
    rng = np.random.default_rng(2405)
    yield (
        mae.TMAEConfig(patch_size=2, channels=1, enc_d_model=8, enc_depth=2, enc_heads=2,
                       enc_d_ff=16, dec_d_model=8, dec_depth=2, dec_heads=2, dec_d_ff=8),
        synthetic_image(rng, 24, 1),
        0.67,
    )
    yield (
        mae.TMAEConfig(patch_size=4, channels=3, enc_d_model=16, enc_depth=1, enc_heads=4,
                       enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=1, dec_d_ff=8),
        synthetic_image(rng, 20, 3),
        0.5,
    )


def test_decode_golden_digest():
    digest = hashlib.sha256()
    for seed, (cfg, image, ratio) in enumerate(_golden_decode_cases()):
        model = mae.load_bytes(mae.save_bytes(mae.init_model(cfg, seed=seed)))
        config = pl.PipelineConfig(cfg.patch_size, ratio, seed + 7, CodecParams())
        container = pl.container_from_bytes(pl.compress(image, config).to_bytes())
        spec, grid = container.mask_spec(), container.padded_grid()
        visible = unstack_visible(codec_decode(container.payload), spec, grid)
        latent = mae.encode_visible(visible, spec.keep_indices, model)
        pred = mae.decode_full(latent, spec, model)
        digest.update(latent.data.tobytes())
        digest.update(pred.data.tobytes())
        digest.update(pl.decompress(container, model).tobytes())
    assert digest.hexdigest() == GOLDEN_DECODE_SHA256


# -- the last decoder block at a subset of rows --------------------------------

# Above 256 tokens one attention map spans several softmax blocks of rows.
# The masked set at keep_count 1 and the all-rows case attend in halves.
_ROW_SUBSET_PATCHES = 300
_ROW_SUBSET_CASES = [
    pytest.param(cfg, keep, id=f"dec_depth{cfg.dec_depth}-keep{keep}")
    for cfg in [_no_decoder_config()] + [cfg for cfg, _, _ in _golden_decode_cases()]
    for keep in (1, _ROW_SUBSET_PATCHES - 1)
]


def _check_row_subsets(cfg, keep_count):
    """At masked, single and all rows, decode_full and every block equal the full run's rows."""
    n = _ROW_SUBSET_PATCHES
    model = mae.init_model(cfg, seed=keep_count)
    spec = mask_from_counts(seed=keep_count, n_patches=n, keep_count=keep_count)
    rng = np.random.default_rng(keep_count)
    latent = Tensor(rng.random((keep_count, cfg.enc_d_model)))
    blocks = model.enc_blocks + model.dec_blocks
    seqs = [tf.TokenSequence(Tensor(rng.standard_normal((n, b.config.d_model)))) for b in blocks]
    pred = mae.decode_full(latent, spec, model).data
    outs = [tf.encoder_block(seq, block).tokens.data for seq, block in zip(seqs, blocks)]
    for rows in (list(spec.masked_indices), [n // 2], list(range(n))):
        assert np.array_equal(mae.decode_full(latent, spec, model, rows).data, pred[rows])
        for seq, block, out in zip(seqs, blocks, outs):
            assert np.array_equal(tf.encoder_block(seq, block, rows).tokens.data, out[rows])


@pytest.mark.parametrize("cfg,keep_count", _ROW_SUBSET_CASES)
def test_row_subset_matches_full_rows(cfg, keep_count):
    _check_row_subsets(cfg, keep_count)


def test_row_subset_matches_full_rows_with_two_blas_threads():
    """Every case above, in one child process whose BLAS runs two threads."""
    code = (
        "import test_mae as t\n"
        "for case in t._ROW_SUBSET_CASES:\n"
        "    t._check_row_subsets(*case.values)\n"
    )
    path = [str(Path(__file__).resolve().parent), str(Path(mae.__file__).resolve().parents[1])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr


def _peak_alloc_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# patch 16, 3 channels, 8-deep 256-wide encoder and decoder, d_ff 1024:
# 552 tensors holding about 13M weights
_BIG_HEADER = struct.pack("<4sB10I", b"TMCK", 1, 16, 3, 256, 8, 8, 1024, 256, 8, 8, 1024)


@pytest.mark.parametrize(
    "body,message",
    [
        (b"", "0 tensors"),
        (b"\x01\x01\x00\x00\x00" + b"\x00" * 4, "1 tensors"),
        ((b"\x01\x01\x00\x00\x00" + b"\x00" * 4) * 552, "552 tensors of 552 elements"),
    ],
    ids=["header-only", "one-tensor", "552-one-element-tensors"],
)
def test_checkpoint_counts_rejected_before_allocating(body, message):
    assert len(_BIG_HEADER) == 45

    def load():
        with pytest.raises(CheckpointError, match=message):
            mae.load_bytes(_BIG_HEADER + body)

    assert _peak_alloc_bytes(load) < 2**20


def test_decompress_with_loaded_model_keeps_one_attention_map():
    cfg = mae.TMAEConfig(patch_size=4, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
                         enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4)
    model = mae.load_bytes(mae.save_bytes(mae.init_model(cfg, seed=24)))
    image = np.random.default_rng(25).integers(0, 256, (128, 128, 1), dtype=np.uint8)
    container = pl.compress(image, pl.PipelineConfig(4, 0.5, 3, CodecParams()))
    n = container.n_patches
    assert n == 1024
    # one float64 n x n map is 8 MiB; the old op chain peaked near 8x that
    peak = _peak_alloc_bytes(lambda: pl.decompress(container, model))
    assert peak < 2 * n * n * 8
    # Run at every row, the last decoder block peaked at 9.9 MiB. Run at
    # the 512 masked rows only, its map is half as tall: 6.0 MiB.
    assert peak < n * n * 8
    # At ratio 0.8 the 819 masked rows attend in two halves of at most 410
    # rows: 4.1 MiB. One 819-row map peaked at 7.3 MiB, every row at 8.8.
    denser = pl.compress(image, pl.PipelineConfig(4, 0.8, 3, CodecParams()))
    assert _peak_alloc_bytes(lambda: pl.decompress(denser, model)) < 0.6 * n * n * 8

    spec = container.mask_spec()
    visible = np.random.default_rng(26).random((spec.keep_count, cfg.patch_dim))
    latent = mae.encode_visible(visible, spec.keep_indices, model)
    pred = mae.decode_full(latent, spec, model)
    assert not pred.requires_grad and pred._grad_fn is None


def test_init_model_deterministic(tiny_mae_config):
    a = mae.save_bytes(_tiny_model(tiny_mae_config, seed=21))
    b = mae.save_bytes(_tiny_model(tiny_mae_config, seed=21))
    c = mae.save_bytes(_tiny_model(tiny_mae_config, seed=22))
    assert a == b
    assert a != c
