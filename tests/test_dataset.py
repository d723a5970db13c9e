"""Netpbm IO and the synthetic corpus generator."""

import warnings

import numpy as np
import pytest

from maecodec import dataset
from maecodec.errors import ContractError

from conftest import traced_peak


def test_p5_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, (7, 5, 1), dtype=np.uint8)
    path = tmp_path / "gray.pgm"
    dataset.save_image(path, img)
    np.testing.assert_array_equal(dataset.load_image(path), img)


def test_p6_round_trip(tmp_path):
    img = np.random.default_rng(1).integers(0, 256, (4, 9, 3), dtype=np.uint8)
    path = tmp_path / "color.ppm"
    dataset.save_image(path, img)
    np.testing.assert_array_equal(dataset.load_image(path), img)


def test_load_known_bytes(tmp_path):
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
    img = dataset.load_image(path)
    assert img.shape == (2, 2, 3)
    np.testing.assert_array_equal(img[0, 0], [0, 1, 2])
    np.testing.assert_array_equal(img[1, 1], [9, 10, 11])


def test_load_handles_comments_and_whitespace(tmp_path):
    path = tmp_path / "comments.pgm"
    path.write_bytes(b"P5 # format\n# a comment line\n 3 # width\n\t1\n255\nabc")
    img = dataset.load_image(path)
    np.testing.assert_array_equal(img[:, :, 0], [[97, 98, 99]])
    # a comment before the magic, and one that ends maxval: pixels follow its newline
    path.write_bytes(b"# lead\nP5 3 1 255# after maxval\nabc")
    np.testing.assert_array_equal(dataset.load_image(path)[:, :, 0], [[97, 98, 99]])


def test_save_rejects_wrong_dtype_or_channels(tmp_path):
    with pytest.raises(ContractError):
        dataset.save_image(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float64))
    with pytest.raises(ContractError):
        dataset.save_image(tmp_path / "x.ppm", np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ContractError):
        dataset.save_image(tmp_path / "x.pgm", np.zeros((2, 3), dtype=np.uint8))


def test_load_corpus_sorted_and_skips_bad(tmp_path):
    rng = np.random.default_rng(2)
    for name in ("bbb.pgm", "aaa.pgm"):
        dataset.save_image(tmp_path / name, rng.integers(0, 256, (4, 4, 1), dtype=np.uint8))
    (tmp_path / "ccc.ppm").write_bytes(b"P6\n9 9\n255\nshort")
    (tmp_path / "ddd.ppm").write_bytes(b"P6\n8192 8192\n255\n" + bytes(10))
    (tmp_path / "ignored.txt").write_bytes(b"not an image")
    with pytest.warns(UserWarning) as record:
        corpus = dataset.load_corpus(tmp_path)
    assert [str(w.message).split(":")[0] for w in record] == ["skipping ccc.ppm", "skipping ddd.ppm"]
    assert [name for name, _ in corpus] == ["aaa", "bbb"]
    assert all(img.shape == (4, 4, 1) for _, img in corpus)


def test_load_corpus_of_malformed_files_warns_by_name_only(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    with pytest.warns(UserWarning) as record:
        assert dataset.load_corpus(tmp_path) == []
    assert [str(w.message).split(":")[0] for w in record] == ["skipping bad.pgm"]


def test_load_corpus_empty_dir_returns_nothing_without_a_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dataset.load_corpus(tmp_path) == []


def _oracle_bilinear_upsample(coarse, out_h, out_w):
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


def oracle_synthetic_image(rng, size, channels):
    """The whole-image construction: upsample everything, paint, round once."""
    coarse = rng.uniform(40.0, 215.0, (size // 16 + 1, size // 16 + 1, channels))
    img = _oracle_bilinear_upsample(coarse, size, size)
    for _ in range(int(rng.integers(1, 4))):
        rh = int(rng.integers(size // 8, size // 2))
        rw = int(rng.integers(size // 8, size // 2))
        y = int(rng.integers(0, size - rh))
        x = int(rng.integers(0, size - rw))
        img[y : y + rh, x : x + rw] = rng.uniform(0.0, 255.0, channels)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("size", [2, 3, 13, 16, 17, 31, 33, 40, 64, 97, 768])
@pytest.mark.parametrize("channels", [1, 3])
def test_synthetic_image_matches_whole_image_oracle(size, channels):
    for seed in (0, 1, 2):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = dataset.synthetic_image(rng, size, channels)
            want = oracle_synthetic_image(oracle_rng, size, channels)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # the same draws, so the next image starts from the same state
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_synthetic_image_peak_memory_is_bounded_by_its_output():
    # the whole-image construction peaked at 54.2 MiB; the uint8 output is 1.7 MiB
    rng = np.random.default_rng(0)
    with traced_peak() as trace:
        dataset.synthetic_image(rng, 768, 3)
    assert trace.peak < 8 * 2**20, f"peak {trace.peak / 2**20:.1f} MiB"


def test_synthetic_corpus_deterministic():
    a = dataset.synthetic_corpus(5, size=32, seed=7)
    b = dataset.synthetic_corpus(5, size=32, seed=7)
    c = dataset.synthetic_corpus(5, size=32, seed=8)
    assert [n for n, _ in a] == ["toy0", "toy1", "toy2", "toy3", "toy4"]
    for (_, x), (_, y) in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for (_, x), (_, y) in zip(a, c))


def test_synthetic_corpus_shapes_and_padding():
    corpus = dataset.synthetic_corpus(12, size=48, channels=3, seed=0)
    assert corpus[0][0] == "toy00" and corpus[11][0] == "toy11"
    for _, img in corpus:
        assert img.shape == (48, 48, 3) and img.dtype == np.uint8


def test_synthetic_image_has_structure():
    """Not constant, not pure noise: neighboring pixels correlate."""
    img = dataset.synthetic_image(np.random.default_rng(3), size=64).astype(float)
    assert img.std() > 5.0
    horizontal_diff = np.abs(np.diff(img[:, :, 0], axis=1)).mean()
    assert horizontal_diff < img[:, :, 0].std()


def test_synthetic_corpus_rejects_nonpositive_count():
    with pytest.raises(ContractError):
        dataset.synthetic_corpus(0)


@pytest.mark.parametrize("size", [0, 1])
def test_synthetic_corpus_rejects_sizes_below_two(size):
    with pytest.raises(ContractError, match="size"):
        dataset.synthetic_corpus(1, size=size)
    # the smallest size it takes
    assert dataset.synthetic_corpus(1, size=2)[0][1].shape == (2, 2, 1)
