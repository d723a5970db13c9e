"""Masked autoencoder: staged oracles, passthrough, gradients, checkpoints."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maecodec import autograd as ag
from maecodec import mae
from maecodec import pipeline as pl
from maecodec import training
from maecodec import transformer as tf
from maecodec.autograd import Tensor
from maecodec.codec import CodecParams, codec_decode
from maecodec.dataset import synthetic_corpus, synthetic_image
from maecodec.errors import ContractError, NumericError, ShapeError
from maecodec.masking import (
    PatchGrid,
    generate_mask,
    mask_from_counts,
    patchify,
    unstack_visible,
)

from conftest import traced_peak

BENCH_FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


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
        # the positional encoding needs an even width on each side
        dict(enc_d_model=9, enc_heads=3, enc_d_ff=9),
        dict(dec_d_model=9, dec_heads=3, dec_d_ff=9),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ContractError):
        mae.TMAEConfig(**kwargs)


def test_named_parameters_order_and_count(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
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
    model = mae.init_model(tiny_mae_config)
    vis = np.random.default_rng(0).random((3, tiny_mae_config.patch_dim))
    latent = mae.encode_visible(vis, (0, 2, 5), model)
    assert latent.shape == (3, tiny_mae_config.enc_d_model)


def test_encode_visible_rejects_bad_shapes(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
    with pytest.raises(ShapeError):
        mae.encode_visible(np.zeros((3, 5)), (0, 1, 2), model)
    with pytest.raises(ShapeError):
        mae.encode_visible(np.zeros((3, tiny_mae_config.patch_dim)), (0, 1), model)
    with pytest.raises(ContractError):
        mae.encode_visible(np.zeros((1, tiny_mae_config.patch_dim)), (-1,), model)


def test_encode_visible_rejects_duplicate_keep_indices(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
    with pytest.raises(ContractError):
        mae.encode_visible(np.zeros((2, tiny_mae_config.patch_dim)), (1, 1), model)


def test_encode_visible_checks_keep_indices_in_order(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
    dim = tiny_mae_config.patch_dim
    # a count mismatch before a negative index, a negative before a duplicate
    with pytest.raises(ShapeError, match="3 patches for 2 keep indices"):
        mae.encode_visible(np.zeros((3, dim)), (-1, -1), model)
    with pytest.raises(ContractError, match="negative patch index"):
        mae.encode_visible(np.zeros((3, dim)), (4, -1, 4), model)
    with pytest.raises(ContractError, match="distinct"):
        mae.encode_visible(np.zeros((3, dim)), (4, 0, 4), model)


def test_encode_visible_position_sensitivity(tiny_mae_config):
    """Same patch content at different grid positions gives different latents."""
    model = mae.init_model(tiny_mae_config)
    vis = np.random.default_rng(1).random((2, tiny_mae_config.patch_dim))
    a = mae.encode_visible(vis, (0, 1), model).data
    b = mae.encode_visible(vis, (0, 7), model).data
    assert not np.allclose(a, b)


def test_encode_visible_matches_manual_stages(tiny_mae_config):
    """Embed + positions + blocks + final norm, staged by hand."""
    model = mae.init_model(tiny_mae_config)
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


def _decoder_tokens(latent, spec, model):
    """decode_full's token rows: projected latents, then mask tokens, each plus its position."""
    order = spec.keep_indices + spec.masked_indices
    proj = ag.affine(latent, model.enc2dec_w, model.enc2dec_b)
    mask_rows = ag.tile_rows(model.mask_token, len(spec.masked_indices))
    pe = tf.positional_encoding(range(spec.n_patches), model.config.dec_d_model)
    return ag.add(ag.concat([proj, mask_rows], 0), ag.gather_rows(pe, order))


def _reference_decode(latent, spec, model):
    """Every patch's prediction, in patch order: each decoder block at start 0.

    A one-block decoder's masked rows take the mask-token memo from
    keep_count where decode_full does; every other row takes the whole map.
    """
    tokens = _decoder_tokens(latent, spec, model)
    seq = tf.TokenSequence(tokens)
    for block in model.dec_blocks:
        seq = tf.encoder_block(seq, block)
    out, keep = seq.tokens, spec.keep_count
    if (len(model.dec_blocks) == 1 and spec.masked_indices and not tokens.requires_grad
            and not any(p.requires_grad for p in model.parameters())):
        sums = mae._mask_token_sums(model, spec.seed, spec.n_patches, keep)
        tail = tf.encoder_block(tf.TokenSequence(tokens), model.dec_blocks[0], keep, sums).tokens
        out = ag.concat([ag.gather_rows(out, range(keep)), tail], 0)
    pred = ag.affine(out, model.head_w, model.head_b)
    return ag.gather_rows(pred, np.argsort(spec.keep_indices + spec.masked_indices))


def test_decode_full_depth_zero_masked_rows_oracle():
    """With no decoder blocks a masked row is head(mask_token + pe[i])."""
    cfg = _no_decoder_config()
    model = mae.init_model(cfg, seed=3)
    spec = mask_from_counts(seed=9, n_patches=6, keep_count=2)
    latent = Tensor(np.random.default_rng(4).random((2, cfg.enc_d_model)))
    out = mae.decode_full(latent, spec, model).data

    pe = tf.positional_encoding(range(6), cfg.dec_d_model).data
    for row, i in enumerate(spec.masked_indices):
        expected = (model.mask_token.data + pe[i]) @ model.head_w.data + model.head_b.data
        np.testing.assert_allclose(out[row], expected, rtol=1e-12)


def test_decode_full_rejects_wrong_latent(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
    spec = mask_from_counts(seed=0, n_patches=8, keep_count=3)
    with pytest.raises(ShapeError):
        mae.decode_full(Tensor(np.zeros((4, tiny_mae_config.enc_d_model))), spec, model)
    with pytest.raises(ShapeError):
        mae.decode_full(Tensor(np.zeros((3, 5))), spec, model)


def test_decode_full_shape(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
    spec = mask_from_counts(seed=1, n_patches=10, keep_count=4)
    latent = Tensor(np.zeros((4, tiny_mae_config.enc_d_model)))
    out = mae.decode_full(latent, spec, model)
    assert out.shape == (6, tiny_mae_config.patch_dim)


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
    model = mae.init_model(tiny_mae_config, seed=11)
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
    model = mae.init_model(tiny_mae_config, seed=7)
    for _, t in model.named_parameters():
        t.data = t.data * 50.0  # force wild predictions
    img = np.random.default_rng(8).integers(0, 256, (8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, tiny_mae_config.patch_size)
    spec = generate_mask(seed=1, n_patches=grid.n_patches, mask_ratio=0.5)
    visible = patches.data[list(spec.keep_indices)]
    masked = list(spec.masked_indices)
    pred = mae.decode_full(mae.encode_visible(visible, spec.keep_indices, model), spec, model).data
    assert not ((pred >= 0.0) & (pred <= 1.0)).any()
    out = mae.reconstruct(visible, spec, grid, model)
    got, _ = patchify(out, tiny_mae_config.patch_size)
    masked_bytes = np.rint(got.data[masked] * 255.0)
    np.testing.assert_array_equal(masked_bytes, np.where(pred > 1.0, 255.0, 0.0))
    assert set(np.unique(masked_bytes)) == {0.0, 255.0}


def test_reconstruct_validates_grid_and_shapes(tiny_mae_config):
    model = mae.init_model(tiny_mae_config)
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
    pred = x[list(spec.masked_indices)]
    assert mae.masked_mse(Tensor(pred), Tensor(x), spec).data == 0.0


def test_masked_mse_ignores_visible_rows():
    spec = mask_from_counts(seed=2, n_patches=6, keep_count=2)
    target = np.random.default_rng(10).random((6, 4))
    pred = target[list(spec.masked_indices)]
    target[list(spec.keep_indices)] += 99.0
    assert mae.masked_mse(Tensor(pred), Tensor(target), spec).data == 0.0


def test_masked_mse_constant_offset():
    spec = mask_from_counts(seed=3, n_patches=5, keep_count=1)
    target = np.zeros((5, 3))
    pred = np.full((len(spec.masked_indices), 3), 0.25)
    assert abs(mae.masked_mse(Tensor(pred), Tensor(target), spec).data - 0.0625) < 1e-15


def test_masked_mse_rejects_empty_mask_and_mismatch():
    spec = mask_from_counts(seed=0, n_patches=4, keep_count=4)
    with pytest.raises(ContractError):
        mae.masked_mse(Tensor(np.zeros((0, 2))), Tensor(np.zeros((4, 2))), spec)
    spec2 = mask_from_counts(seed=0, n_patches=4, keep_count=2)
    with pytest.raises(ShapeError):
        mae.masked_mse(Tensor(np.zeros((2, 2))), Tensor(np.zeros((4, 3))), spec2)
    with pytest.raises(ShapeError):  # every row's prediction, not the masked rows'
        mae.masked_mse(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))), spec2)


# -- gradients -----------------------------------------------------------------


def test_forward_loss_gradient_reaches_every_parameter(tiny_mae_config):
    model = mae.init_model(tiny_mae_config, seed=12)
    patches = Tensor(np.random.default_rng(13).random((8, tiny_mae_config.patch_dim)))
    spec = mask_from_counts(seed=5, n_patches=8, keep_count=3)
    loss = mae.forward_loss(model, patches, spec)
    ag.backward(loss)
    for name, t in model.named_parameters():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), name


def test_forward_loss_is_masked_mse_of_predict_masked_bitwise(tiny_mae_config):
    model = mae.init_model(tiny_mae_config, seed=16)
    patches = Tensor(np.random.default_rng(17).random((8, tiny_mae_config.patch_dim)))
    spec = mask_from_counts(seed=7, n_patches=8, keep_count=3)
    pred = mae.predict_masked(patches.data[list(spec.keep_indices)], spec, model)
    expected = mae.masked_mse(pred, patches, spec)
    assert np.array_equal(mae.forward_loss(model, patches, spec).data, expected.data)


def test_reconstruct_runs_no_model_when_nothing_is_masked(tiny_mae_config, monkeypatch):
    img = np.random.default_rng(18).integers(0, 256, (8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, 2)
    spec = mask_from_counts(seed=3, n_patches=grid.n_patches, keep_count=grid.n_patches)

    def refuse(*args):
        raise AssertionError("the model ran with nothing masked")

    monkeypatch.setattr(mae, "predict_masked", refuse)
    out = mae.reconstruct(patches.data, spec, grid, mae.init_model(tiny_mae_config, seed=19))
    np.testing.assert_array_equal(out, img)


@pytest.mark.parametrize("dec_depth", [0, 2])
@pytest.mark.parametrize(
    "objective", [mae.forward_loss, training.masked_model_mse], ids=lambda f: f.__name__
)
def test_training_and_evaluation_run_the_last_decoder_block_and_the_head_at_the_masked_rows(
    objective, dec_depth, monkeypatch
):
    cfg = mae.TMAEConfig(patch_size=2, channels=1, enc_d_model=8, enc_depth=2, enc_heads=2,
                         enc_d_ff=8, dec_d_model=4, dec_depth=dec_depth, dec_heads=2,
                         dec_d_ff=4)
    model = mae.init_model(cfg, seed=24)
    patches = Tensor(np.random.default_rng(25).random((9, cfg.patch_dim)))
    spec = mask_from_counts(seed=8, n_patches=9, keep_count=3)
    block_starts, head_rows = [], []
    encoder_block, affine = tf.encoder_block, ag.affine

    def record_block(x, params, start=0, sums=None):
        block_starts.append(start)
        return encoder_block(x, params, start, sums)

    def record_head(x, w, b):
        if w is model.head_w:
            head_rows.append(x.shape[0])
        return affine(x, w, b)

    monkeypatch.setattr(tf, "encoder_block", record_block)
    monkeypatch.setattr(ag, "affine", record_head)
    objective(model, patches, spec)
    # the decoder's tokens are the kept latents, then the mask tokens
    expected = [0] * cfg.enc_depth
    if dec_depth:
        expected += [0] * (dec_depth - 1) + [spec.keep_count]
    assert block_starts == expected
    assert head_rows == [9 - spec.keep_count]


# the train_toy32 benchmark's model, which the acceptance test trains too
_TOY32_CONFIG = mae.TMAEConfig(
    patch_size=4, channels=1, enc_d_model=32, enc_depth=2, enc_heads=2,
    enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
)


def test_forward_loss_agrees_with_the_full_prediction_at_the_masked_rows():
    """The loss and every weight gradient of the masked-row path match the full path.

    The full path is the reference decoder, gathered at the masked rows. Their
    losses agree to 1e-12 relative. The backward sums add their terms in
    another order, so each weight's gradient agrees to 1e-13 of its
    largest entry, not bit for bit.
    """
    cfg = _TOY32_CONFIG
    for i, (_, image) in enumerate(synthetic_corpus(4, size=32, channels=1, seed=3)):
        model = mae.init_model(cfg, seed=i)
        patches, grid = patchify(image, cfg.patch_size)
        spec = generate_mask(i, grid.n_patches, 0.5 + 0.1 * i)
        masked = list(spec.masked_indices)

        def full_loss():
            latent = mae.encode_visible(patches.data[list(spec.keep_indices)],
                                        spec.keep_indices, model)
            pred = ag.gather_rows(_reference_decode(latent, spec, model), masked)
            return mae.masked_mse(pred, patches, spec)

        losses, grads = [], []
        for loss_fn in (lambda: mae.forward_loss(model, patches, spec), full_loss):
            for p in model.parameters():
                p.grad = None
            loss = loss_fn()
            ag.backward(loss)
            losses.append(loss.item())
            grads.append([p.grad.copy() for p in model.parameters()])
        assert abs(losses[0] - losses[1]) <= 1e-12 * losses[1]
        for (name, _), a, b in zip(model.named_parameters(), *grads, strict=True):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip(tiny_mae_config):
    model = mae.init_model(tiny_mae_config, seed=16)
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
    model = mae.init_model(cfg, seed=17)
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
    model = mae.init_model(tiny_mae_config, seed=23)
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
    model = mae.init_model(tiny_mae_config, seed=18)
    path = tmp_path / "model.tmck"
    mae.save_checkpoint(model, path)
    clone = mae.load_checkpoint(path)
    np.testing.assert_array_equal(
        clone.embed.data.astype(np.float32), model.embed.data.astype(np.float32)
    )


@pytest.mark.parametrize("value", [1e39, np.nan], ids=["float32-overflow", "nan"])
def test_save_refuses_a_weight_that_is_not_finite_as_float32(tiny_mae_config, tmp_path, value):
    model = mae.init_model(tiny_mae_config, seed=19)
    name, tensor = model.named_parameters()[3]
    tensor.data[0] = value
    path = tmp_path / "model.tmck"
    path.write_bytes(b"an earlier checkpoint")
    message = f"tensor {name} holds values that are not finite as float32"
    with pytest.raises(NumericError, match=f"^{message}$"):
        mae.save_bytes(model)
    with pytest.raises(NumericError, match=f"^{message}$"):
        mae.save_checkpoint(model, path)
    assert path.read_bytes() == b"an earlier checkpoint"
    with pytest.raises(NumericError):
        mae.save_checkpoint(model, tmp_path / "new" / "model.tmck")
    assert not (tmp_path / "new").exists()


# SHA-256 over the float64 latents and the reference decoder's every-patch
# prediction and the decompressed pixels of the seeded containers below, each
# reconstructed with a model that went through save_bytes/load_bytes. Any change
# to an inference op shows here.
GOLDEN_DECODE_SHA256 = "e16c0ca2ef6582a7bf0055c9be311d0214b175e0c52b45b4cb0d2ddc6ca7e2df"


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
        pred = _reference_decode(latent, spec, model)
        masked = mae.decode_full(latent, spec, model)
        assert np.array_equal(masked.data, pred.data[list(spec.masked_indices)])
        digest.update(latent.data.tobytes())
        digest.update(pred.data.tobytes())
        digest.update(pl.decompress(container, model).tobytes())
    assert digest.hexdigest() == GOLDEN_DECODE_SHA256


# -- the last decoder block from a start row --------------------------------

def _row_subset_case(cfg, n, keep, loaded):
    size = "" if n == 300 else f"-n{n}"
    tag = "-loaded" if loaded else ""
    return pytest.param(cfg, n, keep, loaded, id=f"dec_depth{cfg.dec_depth}{size}-keep{keep}{tag}")


# Above 256 tokens one attention map spans several blocks of rows: the full
# run at 300 tokens cuts blocks of 218 and 82 rows. A model after
# save_bytes/load_bytes tracks no gradients, so its attention computes one
# block at a time. Its 219 masked rows at keep_count 81 are a block of 218
# and a lone row, a one-row block that autograd computes as two copies of
# that row, as it does the last row alone (start n - 1); at 1024 tokens the
# blocks hold 64.
_ROW_SUBSET_CASES = [
    _row_subset_case(cfg, n, keep, loaded)
    for loaded in (False, True)
    for cfg in [_no_decoder_config()] + [cfg for cfg, _, _ in _golden_decode_cases()]
    for n, keep in ((300, 1), (300, 81), (300, 299)) + (((1024, 205),) if loaded else ())
]


def _check_row_subsets(cfg, n, keep_count, loaded):
    """decode_full equals the reference decoder at the masked rows, bit for bit.

    Every block run from the first mask token, the middle, the last and
    the second row equals those rows of the same block at start 0.
    """
    model = mae.init_model(cfg, seed=keep_count)
    if loaded:
        model = mae.load_bytes(mae.save_bytes(model))
    spec = mask_from_counts(seed=keep_count, n_patches=n, keep_count=keep_count)
    rng = np.random.default_rng(keep_count)
    latent = Tensor(rng.random((keep_count, cfg.enc_d_model)))
    pred = _reference_decode(latent, spec, model).data
    assert np.array_equal(mae.decode_full(latent, spec, model).data, pred[list(spec.masked_indices)])
    for block in model.enc_blocks + model.dec_blocks:
        seq = tf.TokenSequence(Tensor(rng.standard_normal((n, block.config.d_model))))
        out = tf.encoder_block(seq, block).tokens.data
        for start in (keep_count, n // 2, n - 1, 1):
            assert np.array_equal(tf.encoder_block(seq, block, start).tokens.data, out[start:])


@pytest.mark.parametrize("cfg,n,keep_count,loaded", _ROW_SUBSET_CASES)
def test_row_subset_matches_full_rows(cfg, n, keep_count, loaded):
    _check_row_subsets(cfg, n, keep_count, loaded)


def _loaded_attention_model():
    cfg = mae.TMAEConfig(patch_size=4, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
                         enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4)
    return mae.load_bytes(mae.save_bytes(mae.init_model(cfg, seed=24)))


def test_decompress_with_loaded_model_keeps_one_attention_map():
    model = _loaded_attention_model()
    image = np.random.default_rng(25).integers(0, 256, (128, 128, 1), dtype=np.uint8)
    container = pl.compress(image, pl.PipelineConfig(4, 0.5, 3, CodecParams()))
    n = container.n_patches
    assert n == 1024
    # One float64 n x n map is 8 MiB. A loaded model's attention holds one
    # block of 64 map rows at a time: 2.5 MiB at ratio 0.5 and 1.4 MiB at
    # ratio 0.8. Whole maps, one per head, peaked at 6.0 and 4.1 MiB.
    with traced_peak() as trace:
        pl.decompress(container, model)
    assert trace.peak < 0.5 * n * n * 8
    denser = pl.compress(image, pl.PipelineConfig(4, 0.8, 3, CodecParams()))
    with traced_peak() as trace:
        pl.decompress(denser, model)
    assert trace.peak < 0.25 * n * n * 8

    spec = container.mask_spec()
    visible = np.random.default_rng(26).random((spec.keep_count, model.config.patch_dim))
    latent = mae.encode_visible(visible, spec.keep_indices, model)
    pred = mae.decode_full(latent, spec, model)
    assert not pred.requires_grad and pred._grad_fn is None


@pytest.mark.parametrize("ratio", [0.5, 0.8])
def test_decompress_peak_memory_at_4096_patches(ratio):
    """A 256x256 image at patch 4: one n x n map is 128 MiB, one row block 0.5 MiB."""
    model = _loaded_attention_model()
    image = np.random.default_rng(27).integers(0, 256, (256, 256, 1), dtype=np.uint8)
    container = pl.compress(image, pl.PipelineConfig(4, ratio, 3, CodecParams()))
    assert container.n_patches == 4096
    # whole maps peaked at 66.0 MiB (ratio 0.5) and 53.1 MiB (ratio 0.8)
    with traced_peak() as trace:
        pl.decompress(container, model)
    assert trace.peak < 8 * 2**20, f"decompress peak {trace.peak / 2**20:.1f} MiB"


# -- a one-block decoder's mask-token sums ---------------------------------------

def _memo_case(n, keep_count, seed, scale=1.0, width=16, dec_depth=1):
    """A loaded model of this ``width`` on both sides, a mask and random latents.

    The first decoder block's query and key weights are scaled by ``scale``
    before the model is saved, so its logit bound grows by scale^2.
    """
    cfg = mae.TMAEConfig(patch_size=4, channels=1, enc_d_model=width, enc_depth=dec_depth,
                         enc_heads=2, enc_d_ff=width, dec_d_model=width, dec_depth=dec_depth,
                         dec_heads=2, dec_d_ff=width)
    fresh = mae.init_model(cfg, seed=seed)
    for w in fresh.dec_blocks[0].wq + fresh.dec_blocks[0].wk:
        w.data *= scale
    model = mae.load_bytes(mae.save_bytes(fresh))
    spec = mask_from_counts(seed=seed, n_patches=n, keep_count=keep_count)
    latent = Tensor(np.random.default_rng(seed).standard_normal((keep_count, cfg.enc_d_model)))
    return model, spec, latent


def _decode_masked(model, spec, latent):
    return mae.decode_full(latent, spec, model).data


def _decode_recording_the_block(model, spec, latent, monkeypatch):
    """Decode the masked rows; return the decoder block's arguments and its normed input."""
    seen = {}
    encoder_block = tf.encoder_block

    def record_block(x, params, start=0, sums=None):
        seen.update(params=params, start=start, sums=sums)
        seen["normed"] = ag.layer_norm(x.tokens, params.ln1_gain, params.ln1_bias)
        return encoder_block(x, params, start, sums)

    monkeypatch.setattr(tf, "encoder_block", record_block)
    _decode_masked(model, spec, latent)
    return seen


def _tracked_copy(model):
    """The same weights, shared, in a model whose weights track gradients."""
    weights = iter(model.parameters())
    return mae._build(model.config, lambda name, shape, init: Tensor(next(weights).data, requires_grad=True))


def test_mask_token_sums_cold_and_warm_decodes_are_equal_bitwise():
    model, spec, latent = _memo_case(300, 81, 1)
    mae._mask_token_sums.cache_clear()
    cold = _decode_masked(model, spec, latent)
    warm = _decode_masked(model, spec, latent)
    info = mae._mask_token_sums.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(cold, warm)
    # read-only, and masked rows x (d_head + 1) floats per head
    sums = mae._mask_token_sums(model, spec.seed, spec.n_patches, spec.keep_count)
    tables = [a for head in sums for a in head]
    assert len(tables) == 4 and not any(a.flags.writeable for a in tables)
    assert sum(a.nbytes for a in tables) == 2 * len(spec.masked_indices) * (8 + 1) * 8


def test_mask_token_sums_alternating_models_and_masks_miss_every_time():
    """A, B, A by model, then A, C, A by mask: each decode misses and gives its case's own bits."""
    model_a, spec_a, latent = _memo_case(300, 81, 1)
    model_b = _memo_case(300, 81, 2)[0]
    spec_c = mask_from_counts(seed=3, n_patches=300, keep_count=81)
    cases = [(model_a, spec_a), (model_b, spec_a), (model_a, spec_a), (model_a, spec_c), (model_a, spec_a)]
    own = []
    for model, spec in cases:
        mae._mask_token_sums.cache_clear()
        own.append(_decode_masked(model, spec, latent))
    mae._mask_token_sums.cache_clear()
    for (model, spec), expected in zip(cases, own):
        assert np.array_equal(_decode_masked(model, spec, latent), expected)
    info = mae._mask_token_sums.cache_info()
    assert (info.misses, info.hits) == (len(cases), 0)
    assert not np.array_equal(own[0], own[1])
    assert own[0].shape != own[3].shape or not np.array_equal(own[0], own[3])


def test_tracked_weights_or_latents_never_fill_the_mask_token_memo():
    model, spec, latent = _memo_case(300, 81, 1)
    patches = Tensor(np.random.default_rng(5).random((300, model.config.patch_dim)))
    mae._mask_token_sums.cache_clear()
    tracked = _tracked_copy(model)
    _decode_masked(tracked, spec, latent)
    mae.forward_loss(tracked, patches, spec)
    _decode_masked(model, spec, Tensor(latent.data, requires_grad=True))
    info = mae._mask_token_sums.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize("dec_depth", [2, 3])
def test_deeper_decoders_fill_no_memo_and_decode_as_their_tracked_copies_bitwise(dec_depth):
    """Only a one-block decoder takes the memo: a deeper one runs every
    block on the whole map, as a tracked copy of it does, bit for bit."""
    model, spec, latent = _memo_case(300, 81, 1, dec_depth=dec_depth)
    mae._mask_token_sums.cache_clear()
    got = _decode_masked(model, spec, latent)
    info = mae._mask_token_sums.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
    assert np.array_equal(got, _decode_masked(_tracked_copy(model), spec, latent))


def test_a_logit_bound_above_exp_safe_decodes_as_the_whole_map_bitwise():
    """Past the bound every head runs autograd.attention, so the loaded model
    decodes as a tracked copy of it does, bit for bit.

    Head 0's mask-token logits alone are bounded by 545.2, so it has no
    table; head 1's by 497.7, so it has one, but its masked queries against
    the kept keys by 514.7, so the decode refuses that table.
    """
    model, spec, latent = _memo_case(1024, 205, 3, scale=8.0)
    mae._mask_token_sums.cache_clear()
    got = _decode_masked(model, spec, latent)
    sums = mae._mask_token_sums(model, spec.seed, spec.n_patches, spec.keep_count)
    assert mae._mask_token_sums.cache_info().misses == 1
    assert sums[0] is None and sums[1] is not None
    assert np.array_equal(got, _decode_masked(_tracked_copy(model), spec, latent))


def test_the_memo_bounds_only_the_queries_a_decode_computes(monkeypatch):
    """Decoding the masked rows forms no decoder map when their own logits are
    within the bound, although a kept query's are not: each ``_exp_sums`` call
    bounds the queries it computes, as ``autograd.attention`` does.
    """
    model, spec, latent = _memo_case(300, 81, 5, scale=8.5, width=8)
    maps = []
    attention = ag.attention

    def record_map(q, k, v):
        maps.append((q.shape[0], k.shape[0]))
        return attention(q, k, v)

    monkeypatch.setattr(ag, "attention", record_map)
    seen = _decode_recording_the_block(model, spec, latent, monkeypatch)
    assert maps == []
    # head 1: masked queries bound their logits by 443.4, every query by 521.7
    params, keep = seen["params"], spec.keep_count
    qs, k = (seen["normed"].data @ w[1].data for w in (params.wq, params.wk))
    qs *= 1.0 / math.sqrt(qs.shape[1])
    assert ag._logit_bound(qs[keep:], k) <= ag._EXP_SAFE < ag._logit_bound(qs, k)


def test_loaded_weights_are_read_only():
    """The memo keys a model by identity, so a loaded model's weights cannot change under it."""
    model = _memo_case(300, 81, 1)[0]
    assert not any(p.data.flags.writeable for p in model.parameters())
    with pytest.raises(ValueError):
        model.dec_blocks[0].wq[0].data *= 2.0


def test_a_non_finite_latent_raises_with_the_mask_token_memo_filled():
    model, spec, latent = _memo_case(300, 81, 1)
    _decode_masked(model, spec, latent)
    data = latent.data.copy()
    data[4, 0] = np.nan
    with pytest.raises(NumericError):
        _decode_masked(model, spec, Tensor(data))
    assert mae._mask_token_sums.cache_info().currsize == 1


def _longdouble_attention(normed, params):
    """multi_head_attention of every row, in longdouble from the float64 inputs."""
    x = normed.astype(np.longdouble)
    heads = []
    for h in range(params.config.n_heads):
        q, k, v = (x @ w[h].data.astype(np.longdouble) for w in (params.wq, params.wk, params.wv))
        logits = q @ k.T / np.sqrt(np.longdouble(q.shape[1]))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        heads.append(e @ v / e.sum(axis=1, keepdims=True))
    return np.concatenate(heads, axis=1) @ params.wo.data.astype(np.longdouble) + params.bo.data


@pytest.mark.parametrize("n,keep_count,scale", [(300, 81, 1.0), (1536, 506, 1.0), (1024, 205, 7.0)])
def test_mask_token_sums_agree_with_a_longdouble_reference(n, keep_count, scale, monkeypatch):
    """A one-block decoder's attention at the masked rows through the memo,
    against a longdouble softmax of the same float64 inputs, errs by at most
    5e-15 of the largest output entry or 1.1x the whole-map path's own
    error, whichever is larger.

    Measured: 0.5e-15 and 1.3e-15 at logit bounds near 8, both below the
    whole-map path's; 8.07e-15 against its 7.88e-15 at the bound of 394 that
    scale 7 gives. Near the bound both paths' error is the rounding of the
    float64 logits, which exp turns into relative error.
    """
    model, spec, latent = _memo_case(n, keep_count, 4, scale)
    seen = _decode_recording_the_block(model, spec, latent, monkeypatch)
    params, start, sums, normed = seen["params"], seen["start"], seen["sums"], seen["normed"]
    assert all(head is not None for head in sums)
    expected = _longdouble_attention(normed.data, params)[start:]
    memo = np.abs(tf.multi_head_attention(normed, params, start, sums).data - expected).max()
    whole = np.abs(tf.multi_head_attention(normed, params, start).data - expected).max()
    assert memo <= max(5e-15 * np.abs(expected).max(), 1.1 * whole)


def test_init_model_deterministic(tiny_mae_config):
    a = mae.save_bytes(mae.init_model(tiny_mae_config, seed=21))
    b = mae.save_bytes(mae.init_model(tiny_mae_config, seed=21))
    c = mae.save_bytes(mae.init_model(tiny_mae_config, seed=22))
    assert a == b
    assert a != c
