"""End-to-end runs of every CLI subcommand."""

import warnings

import numpy as np
import pytest

from maecodec import cli, dataset, mae, sweep, training
from maecodec.codec import CodecParams
from maecodec.pipeline import PipelineConfig, container_from_bytes


# The 8-wide patch-4 model of the small training runs, as TMAEConfig fields and as flags.
_SMALL_MODEL = dict(patch_size=4, channels=1, enc_d_model=8, enc_depth=1, enc_heads=2, enc_d_ff=8,
                    dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8)
_SMALL_MODEL_FLAGS = ["--enc-width", "8", "--enc-depth", "1", "--enc-heads", "2", "--enc-ff", "8",
                      "--dec-width", "8", "--dec-depth", "1", "--dec-heads", "2", "--dec-ff", "8"]


def _write_image(path, seed=0, size=24, channels=1):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (size, size, channels), dtype=np.uint8)
    dataset.save_image(path, img)
    return img


def test_compress_then_decompress(tmp_path, capsys):
    img_path = tmp_path / "in.pgm"
    img = _write_image(img_path, seed=1)
    bin_path = tmp_path / "out.tmae"
    ckpt = tmp_path / "model.tmck"
    cfg = mae.TMAEConfig(
        patch_size=8, channels=1, enc_d_model=16, enc_depth=1, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    mae.save_checkpoint(mae.init_model(cfg, seed=0), ckpt)

    rc = cli.main([
        "compress", "--input", str(img_path), "--output", str(bin_path),
        "--mask-ratio", "0.5", "--patch-size", "8", "--quality", "80",
    ])
    assert rc == 0
    assert "bpp" in capsys.readouterr().out
    container = container_from_bytes(bin_path.read_bytes())
    assert (container.orig_width, container.orig_height) == (24, 24)

    out_path = tmp_path / "roundtrip.pgm"
    rc = cli.main([
        "decompress", "--input", str(bin_path), "--output", str(out_path),
        "--model", str(ckpt),
    ])
    assert rc == 0
    assert dataset.load_image(out_path).shape == img.shape


def test_decompress_without_model_when_nothing_masked(tmp_path):
    img_path = tmp_path / "in.pgm"
    img = _write_image(img_path, seed=2, size=16)
    bin_path = tmp_path / "out.tmae"
    cli.main([
        "compress", "--input", str(img_path), "--output", str(bin_path),
        "--mask-ratio", "0", "--patch-size", "8", "--codec", "null",
    ])
    out_path = tmp_path / "back.pgm"
    assert cli.main(["decompress", "--input", str(bin_path), "--output", str(out_path)]) == 0
    np.testing.assert_array_equal(dataset.load_image(out_path), img)


def test_train_and_sweep_and_budget(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for i in range(3):
        _write_image(data_dir / f"img{i}.pgm", seed=10 + i, size=16)

    ckpt = tmp_path / "toy.tmck"
    rc = cli.main([
        "train", "--dataset", str(data_dir), "--out", str(ckpt),
        "--epochs", "1", "--crop-size", "16", "--patch-size", "8",
        "--enc-width", "16", "--enc-depth", "1", "--enc-heads", "2",
        "--enc-ff", "16", "--dec-width", "8", "--dec-depth", "1",
        "--dec-heads", "2", "--dec-ff", "8",
    ])
    assert rc == 0
    assert ckpt.exists()
    out = capsys.readouterr().out
    assert "epoch 1/1" in out and "saved" in out

    csv_path = tmp_path / "points.csv"
    plot_dir = tmp_path / "plots"
    rc = cli.main([
        "sweep", "--dataset", str(data_dir), "--model", str(ckpt),
        "--ratios", "0.5,0.75", "--qualities", "40,80",
        "--csv-out", str(csv_path), "--plot-dir", str(plot_dir),
    ])
    assert rc == 0
    points = sweep.read_csv(csv_path)
    assert len(points) == 3 * 2 * 2 + 4  # per-image cells plus the means
    assert (plot_dir / "curve_r0.5.dat").exists()
    assert (plot_dir / "curve_r0.75.dat").exists()
    assert (plot_dir / "pareto.dat").exists()

    rc = cli.main([
        "budget", "--bits", "10000000", "--width", "768", "--height", "512",
        "--calibration", str(csv_path),
    ])
    assert rc == 0
    assert "mask_ratio" in capsys.readouterr().out

    rc = cli.main([
        "budget", "--bits", "1", "--width", "768", "--height", "512",
        "--calibration", str(csv_path),
    ])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_budget_calibrates_on_corpus_means(tmp_path, capsys):
    csv_path = tmp_path / "points.csv"
    sweep.write_csv([
        sweep.RDPoint("easy", 0.8, 90, 0.10, 0.10, 0.99, 40.0),
        sweep.RDPoint("hard", 0.8, 90, 0.30, 0.30, 0.50, 20.0),
        sweep.RDPoint("mean", 0.8, 90, 0.20, 0.20, 0.745, 30.0),
        sweep.RDPoint("mean", 0.5, 40, 0.15, 0.15, 0.80, 31.0),
    ], csv_path)
    rc = cli.main([
        "budget", "--bits", "2000", "--width", "100", "--height", "100",
        "--calibration", str(csv_path),
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("mask_ratio 0.5 quality 40 ")


@pytest.mark.parametrize("channels,ext", [(1, "pgm"), (3, "ppm")])
def test_corpus_writes_synthetic_corpus(tmp_path, capsys, channels, ext):
    out_dir = tmp_path / "toy"
    rc = cli.main([
        "corpus", "--out", str(out_dir), "--count", "3", "--size", "16",
        "--channels", str(channels), "--seed", "5",
    ])
    assert rc == 0
    assert "3 images" in capsys.readouterr().out
    assert sorted(p.suffix for p in out_dir.iterdir()) == [f".{ext}"] * 3
    loaded = dataset.load_corpus(out_dir)
    expected = dataset.synthetic_corpus(3, 16, channels, 5)
    assert [name for name, _ in loaded] == [name for name, _ in expected]
    for (_, got), (_, want) in zip(loaded, expected):
        np.testing.assert_array_equal(got, want)


def test_train_synthetic_corpus(tmp_path):
    ckpt = tmp_path / "syn.tmck"
    rc = cli.main([
        "train", "--synthetic", "2", "--out", str(ckpt),
        "--epochs", "1", "--crop-size", "8", "--patch-size", "4",
        "--enc-width", "8", "--enc-depth", "1", "--enc-heads", "2",
        "--enc-ff", "8", "--dec-width", "4", "--dec-depth", "1",
        "--dec-heads", "2", "--dec-ff", "4",
    ])
    assert rc == 0
    model = mae.load_checkpoint(ckpt)
    assert model.config.patch_size == 4


def test_train_creates_missing_checkpoint_directory(tmp_path):
    ckpt = tmp_path / "missing" / "nested" / "toy.tmck"
    rc = cli.main([
        "train", "--synthetic", "2", "--out", str(ckpt),
        "--epochs", "1", "--crop-size", "8", "--patch-size", "4",
        "--enc-width", "8", "--enc-depth", "1", "--enc-heads", "2",
        "--enc-ff", "8", "--dec-width", "4", "--dec-depth", "1",
        "--dec-heads", "2", "--dec-ff", "4",
    ])
    assert rc == 0
    assert mae.load_checkpoint(ckpt).config.patch_size == 4


def test_sweep_creates_missing_csv_directory(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    _write_image(data_dir / "img0.pgm", seed=3, size=16)
    ckpt = tmp_path / "model.tmck"
    cfg = mae.TMAEConfig(
        patch_size=8, channels=1, enc_d_model=16, enc_depth=1, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    mae.save_checkpoint(mae.init_model(cfg, seed=0), ckpt)
    csv_path = tmp_path / "missing" / "rd.csv"
    rc = cli.main([
        "sweep", "--dataset", str(data_dir), "--model", str(ckpt),
        "--ratios", "0.5", "--qualities", "50", "--csv-out", str(csv_path),
    ])
    assert rc == 0
    assert len(sweep.read_csv(csv_path)) == 2  # one cell plus its mean


def test_corpus_refuses_a_size_below_two_before_making_its_directory(tmp_path, capsys):
    out_dir = tmp_path / "toy"
    assert cli.main(["corpus", "--out", str(out_dir), "--size", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


_PACKAGE_ERRORS = {
    "compress": "error: mask_ratio must lie in [0, 1), got 1.0\n",
    "decompress": "error: bad container magic b'JUNK'\n",
    "decompress-model": "error: bad checkpoint magic b'JUNK'\n",
}


@pytest.mark.parametrize("command", sorted(_PACKAGE_ERRORS))
def test_package_errors_print_one_line_and_exit_2(tmp_path, capsys, command):
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, seed=4, size=16)
    good = tmp_path / "good.tmae"
    assert cli.main(["compress", "--input", str(img_path), "--output", str(good),
                     "--mask-ratio", "0.5", "--patch-size", "8"]) == 0
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"JUNK" + bytes(60))
    out = tmp_path / "out"
    argv = {
        "compress": ["compress", "--input", str(img_path), "--output", str(out),
                     "--mask-ratio", "1.0"],
        "decompress": ["decompress", "--input", str(junk), "--output", str(out)],
        "decompress-model": ["decompress", "--input", str(good), "--output", str(out),
                             "--model", str(junk)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == _PACKAGE_ERRORS[command]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["compress-out-is-dir", "compress-out-under-file", "decompress-out-is-dir",
     "decompress-out-under-file"],
)
def test_compress_and_decompress_check_their_output_before_reading_input(
    tmp_path, capsys, monkeypatch, command
):
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, seed=5, size=16)
    container = tmp_path / "in.tmae"
    assert cli.main(["compress", "--input", str(img_path), "--output", str(container),
                     "--mask-ratio", "0.5", "--patch-size", "8"]) == 0
    model = tmp_path / "m.tmck"
    mae.save_checkpoint(mae.init_model(mae.TMAEConfig(**_SMALL_MODEL), seed=0), model)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"JUNK")

    def refuse(*args):
        raise AssertionError(f"{command} ran before its output path was checked")

    monkeypatch.setattr(cli, "compress", refuse)
    monkeypatch.setattr(cli, "decompress", refuse)
    verb, _, where = command.partition("-out-")
    out, message = {
        "is-dir": (tmp_path, f"{tmp_path} is a directory"),
        "under-file": (junk / "out", f"{junk} is not a directory"),
    }[where]
    argv = {
        "compress": ["compress", "--input", str(img_path), "--output", str(out),
                     "--patch-size", "8"],
        "decompress": ["decompress", "--input", str(container), "--output", str(out),
                       "--model", str(model)],
    }[verb]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: --output: {message}\n"


@pytest.mark.parametrize("command", ["decompress", "sweep", "budget"])
def test_os_errors_print_one_line_and_exit_2(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    argv = {
        "decompress": ["decompress", "--input", missing, "--output", str(tmp_path / "out.pgm")],
        "sweep": ["sweep", "--dataset", missing, "--model", missing,
                  "--csv-out", str(tmp_path / "rd.csv")],
        # a directory where a sweep CSV belongs
        "budget": ["budget", "--bits", "1000", "--width", "16", "--height", "16",
                   "--calibration", str(tmp_path)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "command",
    [
        "train-config", "train-lr-nan", "train-one-patch-crop", "train-channels",
        "train-float32-overflow", "sweep-dataset", "sweep-model", "sweep-ratios",
        "sweep-qualities", "sweep-ratio-range", "sweep-quality-range", "sweep-empty-dataset",
        "sweep-empty-ratios", "sweep-empty-qualities", "sweep-channels", "sweep-mean-id",
        "train-out-is-dir", "train-out-under-file", "sweep-csv-is-dir",
    ],
)
def test_train_and_sweep_check_inputs_before_making_their_directory(tmp_path, capsys, command):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    _write_image(data_dir / "img0.pgm", seed=3, size=16)
    rgb_dir = tmp_path / "rgb"
    rgb_dir.mkdir()
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    _write_image(rgb_dir / "img0.ppm", seed=3, size=16, channels=3)
    mean_dir = tmp_path / "mean"
    mean_dir.mkdir()
    _write_image(mean_dir / "mean.pgm", seed=3, size=16)
    junk = tmp_path / "junk.tmck"
    junk.write_bytes(b"JUNK" + bytes(60))
    model = tmp_path / "m.tmck"
    mae.save_checkpoint(mae.init_model(mae.TMAEConfig(**_SMALL_MODEL), seed=0), model)
    out_dir = tmp_path / "newdir"
    sweep_args = ["--ratios", "0.5", "--qualities", "50", "--csv-out", str(out_dir / "rd.csv")]
    small_train = ["train", "--synthetic", "4", "--out", str(out_dir / "m.tmck"), "--crop-size", "16",
                   "--epochs", "1", "--patch-size", "4", *_SMALL_MODEL_FLAGS]
    argv = {
        # 3 heads do not divide the default encoder width of 64
        "train-config": ["train", "--synthetic", "2", "--out", str(out_dir / "m.tmck"),
                         "--enc-heads", "3"],
        "train-lr-nan": [*small_train, "--lr", "nan"],
        # a 4 px crop at patch 4 is one patch, which every mask keeps
        "train-one-patch-crop": ["train", "--synthetic", "2", "--out", str(out_dir / "m.tmck"),
                                 "--crop-size", "4", "--patch-size", "4"],
        # an RGB corpus for the default one-channel model, which train refuses
        "train-channels": ["train", "--dataset", str(rgb_dir), "--out", str(out_dir / "m.tmck"),
                           "--crop-size", "16", "--epochs", "1"],
        # one Adam step this large leaves weights finite in float64 only
        "train-float32-overflow": [*small_train, "--lr", "1e300"],
        "sweep-dataset": ["sweep", "--dataset", str(tmp_path / "missing"), "--model", str(junk),
                          *sweep_args],
        "sweep-model": ["sweep", "--dataset", str(data_dir), "--model", str(junk), *sweep_args],
        "sweep-ratios": ["sweep", "--dataset", str(data_dir), "--model", str(junk),
                         *sweep_args, "--ratios", "0.5,x"],
        "sweep-qualities": ["sweep", "--dataset", str(data_dir), "--model", str(junk),
                            *sweep_args, "--qualities", "5,x"],
        "sweep-ratio-range": ["sweep", "--dataset", str(data_dir), "--model", str(model),
                              *sweep_args, "--ratios", "0.5,1.5"],
        "sweep-quality-range": ["sweep", "--dataset", str(data_dir), "--model", str(model),
                                *sweep_args, "--qualities", "50,0"],
        # refused before the junk model is read
        "sweep-empty-dataset": ["sweep", "--dataset", str(empty_dir), "--model", str(junk),
                                *sweep_args],
        "sweep-empty-ratios": ["sweep", "--dataset", str(data_dir), "--model", str(model),
                               *sweep_args, "--ratios", ","],
        "sweep-empty-qualities": ["sweep", "--dataset", str(data_dir), "--model", str(model),
                                  *sweep_args, "--qualities", ""],
        # an RGB corpus for the one-channel model, which every cell would refuse
        "sweep-channels": ["sweep", "--dataset", str(rgb_dir), "--model", str(model), *sweep_args],
        # the id of the corpus-mean rows
        "sweep-mean-id": ["sweep", "--dataset", str(mean_dir), "--model", str(model), *sweep_args],
        # output paths that open() would refuse only after every epoch or cell
        "train-out-is-dir": [*small_train, "--out", str(data_dir)],
        "train-out-under-file": [*small_train, "--out", str(junk / "m.tmck")],
        "sweep-csv-is-dir": ["sweep", "--dataset", str(data_dir), "--model", str(model),
                             *sweep_args, "--csv-out", str(data_dir)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if command in ("sweep-ratios", "sweep-qualities"):  # refused before the junk model is read
        assert err.startswith(f"error: --{command[6:]}: "), err
    if command in ("train-channels", "sweep-channels"):
        assert err == "error: corpus image 'img0' has 3 channels, but the model takes 1\n", err
    expected = {
        "train-lr-nan": "error: learning_rate must be finite and positive, got nan\n",
        "train-float32-overflow": "error: tensor embed holds values that are not finite as float32\n",
        "sweep-ratio-range": "error: mask_ratio must lie in [0, 1), got 1.5\n",
        "sweep-quality-range": "error: quality must lie in 1..100, got 0\n",
        "sweep-empty-dataset": f"error: sweep corpus is empty: no readable PPM/PGM in {empty_dir}\n",
        "sweep-empty-ratios": "error: a sweep needs a ratio and a quality, got [] and [50]\n",
        "sweep-empty-qualities": "error: a sweep needs a ratio and a quality, got [0.5] and []\n",
        "sweep-mean-id": "error: image id 'mean' cannot be a sweep CSV id: it must be UTF-8, "
                         "not contain ',', '\\n' or '\\r' and not equal 'mean'\n",
        "train-out-is-dir": f"error: --out: {data_dir} is a directory\n",
        "train-out-under-file": f"error: --out: {junk} is not a directory\n",
        "sweep-csv-is-dir": f"error: --csv-out: {data_dir} is a directory\n",
    }
    if command in expected:
        assert err == expected[command], err
    assert not out_dir.exists()


def test_train_refuses_an_empty_dataset_before_making_its_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out_dir = tmp_path / "newdir"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["train", "--dataset", str(empty), "--out", str(out_dir / "m.tmck")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: training corpus is empty: no readable PPM/PGM in {empty}\n"
    assert not out_dir.exists()


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_parsed_defaults_are_the_dataclass_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["compress", "--input", "in.pgm", "--output", "out.tmae"])
    assert PipelineConfig(
        patch_size=args.patch_size, mask_ratio=args.mask_ratio, seed=args.seed,
        codec=CodecParams(quality=args.quality),
    ) == PipelineConfig()
    args = parser.parse_args(["train", "--out", "model.ckpt"])
    assert cli._model_config_from_args(args) == mae.TMAEConfig()
    assert training.TrainConfig(
        crop_size=args.crop_size, epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.lr, seed=args.seed,
    ) == training.TrainConfig()
