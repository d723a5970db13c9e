"""Adam optimizer, the training loop, and its baselines."""

import hashlib

import numpy as np
import pytest

from maecodec import dataset, mae, training
from maecodec.autograd import Tensor
from maecodec.errors import ContractError, NumericError
from maecodec.masking import mask_from_counts, patchify


def _tiny_train_config(**overrides):
    base = dict(crop_size=8, epochs=2, batch_size=2, seed=0,
                ratio_low=0.4, ratio_high=0.6)
    base.update(overrides)
    return training.TrainConfig(**base)


def _tiny_model_config():
    return mae.TMAEConfig(
        patch_size=2, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2,
        enc_d_ff=8, dec_d_model=4, dec_depth=1, dec_heads=2, dec_d_ff=4,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epochs=0),
        dict(batch_size=0),
        dict(crop_size=0),
        dict(learning_rate=0.0),
        dict(ratio_low=0.7, ratio_high=0.6),
        dict(ratio_high=1.0),
        dict(ratio_low=-0.1),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ContractError):
        _tiny_train_config(**kwargs)


def test_adam_first_step_hand_computed():
    """After one step with gradient g: m=(1-b1)g, v=(1-b2)g^2, and the
    bias-corrected update is lr * g / (|g| + eps)."""
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = training.Adam([p], lr=0.1)
    p.grad = np.array([0.5, -3.0])
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -3.0]) / (
        np.array([0.5, 3.0]) + 1e-8
    )
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def test_adam_second_step_hand_computed():
    p = Tensor(np.array([0.0]), requires_grad=True)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = training.Adam([p], lr=lr)
    g1, g2 = 2.0, -1.0
    p.grad = np.array([g1])
    opt.step()
    p.grad = np.array([g2])
    opt.step()

    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = -lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x -= lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = training.Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [5.0])


def test_adam_defaults_are_the_reference_constants():
    assert (training._BETA1, training._BETA2, training._ADAM_EPS) == (0.9, 0.999, 1e-8)


def test_adam_zero_grad_clears():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([3.0])
    opt = training.Adam([p], lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def _toy_corpus(n=4, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (f"img{i}", rng.integers(0, 256, (size, size, 1), dtype=np.uint8))
        for i in range(n)
    ]


def test_train_rejects_empty_corpus():
    with pytest.raises(ContractError):
        training.train([], _tiny_model_config(), _tiny_train_config())


def test_train_is_deterministic():
    corpus = _toy_corpus()
    a = training.train(corpus, _tiny_model_config(), _tiny_train_config())
    b = training.train(corpus, _tiny_model_config(), _tiny_train_config())
    assert mae.save_bytes(a.model) == mae.save_bytes(b.model)
    assert a.epoch_losses == b.epoch_losses


# SHA-256 of the checkpoint and the float64 epoch losses of the run below.
# Any change to a forward or backward rule, or to the order in which
# gradients accumulate, shows up here.
GOLDEN_TRAIN_SHA256 = "7e171aa1673ba6fd8cdba0d81d66a8f75ce2b09c3aaea9b6b82f9059f9f06398"


def test_train_golden_digest():
    corpus = dataset.synthetic_corpus(6, size=16, channels=1, seed=5)
    model_cfg = mae.TMAEConfig(
        patch_size=2, channels=1, enc_d_model=8, enc_depth=2, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    result = training.train(
        corpus, model_cfg, _tiny_train_config(crop_size=12, batch_size=3, seed=3)
    )
    digest = hashlib.sha256(mae.save_bytes(result.model))
    digest.update(np.array(result.epoch_losses).tobytes())
    assert digest.hexdigest() == GOLDEN_TRAIN_SHA256


def test_train_seed_changes_result():
    corpus = _toy_corpus()
    a = training.train(corpus, _tiny_model_config(), _tiny_train_config(seed=1))
    b = training.train(corpus, _tiny_model_config(), _tiny_train_config(seed=2))
    assert mae.save_bytes(a.model) != mae.save_bytes(b.model)


def test_train_reduces_loss_on_learnable_data():
    """Constant images are perfectly predictable; loss must fall."""
    corpus = [("flat%d" % i, np.full((8, 8, 1), 100 + i, dtype=np.uint8)) for i in range(4)]
    result = training.train(
        corpus, _tiny_model_config(), _tiny_train_config(epochs=15, learning_rate=3e-3)
    )
    assert result.epoch_losses[-1] < 0.5 * result.epoch_losses[0]


def test_train_logs_one_line_per_epoch():
    lines = []
    training.train(_toy_corpus(), _tiny_model_config(),
                   _tiny_train_config(epochs=3), log=lines.append)
    assert len(lines) == 3
    assert lines[0].startswith("epoch 1/3")
    assert "loss" in lines[0]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_aborts_on_nonfinite_loss():
    # an absurd learning rate reliably drives the weights to overflow
    with pytest.raises(NumericError, match="epoch"):
        training.train(
            _toy_corpus(), _tiny_model_config(),
            _tiny_train_config(epochs=40, learning_rate=1e38),
        )


def test_baseline_fill_mse_known_values():
    spec = mask_from_counts(seed=0, n_patches=4, keep_count=2)
    patches = Tensor(np.full((4, 3), 0.75))
    assert abs(training.baseline_fill_mse(patches, spec) - 0.0625) < 1e-15
    assert training.baseline_fill_mse(Tensor(np.full((4, 3), 0.5)), spec) == 0.0


def test_masked_model_mse_matches_manual():
    cfg = _tiny_model_config()
    model = mae.init_model(cfg, seed=4)
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    patches, grid = patchify(img, cfg.patch_size)
    spec = mask_from_counts(seed=1, n_patches=grid.n_patches, keep_count=6)

    got = training.masked_model_mse(model, patches, spec)

    latent = mae.encode_visible(patches.data[list(spec.keep_indices)], spec.keep_indices, model)
    pred = np.clip(mae.decode_full(latent, spec, model).data, 0.0, 1.0)
    idx = list(spec.masked_indices)
    manual = float(np.mean((pred[idx] - patches.data[idx]) ** 2))
    assert abs(got - manual) < 1e-15
    assert 0.0 <= got <= 1.0


def test_random_crop_bounds():
    rng = np.random.default_rng(6)
    img = np.arange(20 * 30, dtype=np.uint8).reshape(20, 30)[:, :, None]
    for _ in range(10):
        crop = training._random_crop(img, 8, rng)
        assert crop.shape == (8, 8, 1)
    small = np.zeros((4, 4, 1), dtype=np.uint8)
    assert training._random_crop(small, 8, rng).shape == (4, 4, 1)
