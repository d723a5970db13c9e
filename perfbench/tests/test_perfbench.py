"""Tests of the benchmark itself: its schema, its tracer and its stability.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The last test runs every workload six times for 5 s, so the suite takes
about four minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracer
import workloads
from maecodec import dataset, mae, sweep, training
from maecodec import pipeline as pl
from maecodec.codec import CodecParams

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- schema --------------------------------------------------------------------


def test_schema_every_metric_has_unit_direction_and_bound(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_run_reports_every_per_layer_metric(spec):
    proc = _run(["--workload", "train_toy32", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["autograd.backward_ms"]["value"] > 0


# -- tracer --------------------------------------------------------------------


def _originals():
    sites = [(o, a) for o, a, _ in tracer.SPAN_SITES]
    sites += [(tracer.autograd, n) for n in tracer.autograd_ops()]
    return {(id(o), a): vars(o)[a] for o, a in sites}


def test_traced_run_leaves_every_container_byte_identical():
    rgb = mae.load_checkpoint(os.path.join(workloads.FIXTURE_DIR, "rgb_p16.tmck"))
    gray = mae.load_checkpoint(os.path.join(workloads.FIXTURE_DIR, "gray_p8.tmck"))
    cases = [
        (dataset.synthetic_corpus(1, 128, 3, seed=5)[0][1][:96], rgb, 16),
        (dataset.synthetic_corpus(1, 64, 1, seed=6)[0][1], gray, 8),
    ]

    def round_trip(image, model, patch):
        blobs, outs = [], []
        for ratio, quality in ((0.67, 50), (0.5, 10), (0.8, 90)):
            config = pl.PipelineConfig(patch, ratio, 9, CodecParams(1, quality))
            blob = pl.compress(image, config).to_bytes()
            blobs.append(blob)
            outs.append(pl.decompress(pl.container_from_bytes(blob), model))
        return blobs, outs

    before = _originals()
    t = tracer.Tracer()
    for image, model, patch in cases:
        plain_blobs, plain_outs = round_trip(image, model, patch)
        with t, t.root():
            traced_blobs, traced_outs = round_trip(image, model, patch)
        assert traced_blobs == plain_blobs
        for a, b in zip(traced_outs, plain_outs):
            assert np.array_equal(a, b)
    assert _originals() == before
    assert t.counts["codec.blocks"] > 0 and t.counts["autograd.op_calls"] > 0
    names = {s[0] for s in t.spans}
    assert {"codec.encode", "codec.decode", "mae.decode_full", "autograd.softmax_rows"} <= names


def test_traced_sweep_and_training_match_untraced():
    model = mae.load_checkpoint(os.path.join(workloads.FIXTURE_DIR, "gray_p8.tmck"))
    corpus = dataset.synthetic_corpus(1, 64, 1, seed=4)
    cfg = workloads.TrainToy32.MODEL
    train_cfg = training.TrainConfig(crop_size=32, epochs=2, batch_size=8, seed=4)
    toy = dataset.synthetic_corpus(16, 64, 1, seed=4)

    def both():
        points = sweep.rd_sweep(corpus, [0.5, 0.8], [10, 90], model, seed=2).points
        losses = training.train(toy, cfg, train_cfg).epoch_losses
        return points, losses

    plain = both()
    t = tracer.Tracer()
    with t, t.root():
        traced = both()
    assert traced == plain
    assert t.counts["autograd.op_calls"] > 0
    assert {"metrics.ssim", "autograd.backward", "training.adam_step"} <= {s[0] for s in t.spans}


def test_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()
    image = dataset.synthetic_corpus(1, 64, 1, seed=1)[0][1]
    model = mae.load_checkpoint(os.path.join(workloads.FIXTURE_DIR, "gray_p8.tmck"))
    with t, t.root():
        pl.decompress(pl.compress(image, pl.PipelineConfig(8, 0.67, 1)), model)
    root = t.spans[0]
    assert root[0] == tracer.ROOT_SPAN and root[3] == -1
    assert all(s[3] >= 0 for s in t.spans[1:])
    assert sum(t.self_times().values()) == pytest.approx(root[2] - root[1], rel=1e-9)


# -- the runner ----------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it exits non-zero, printing no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "kodak_rgb", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fails_on_a_changed_fixture(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    ckpt = tmp_path / "perfbench" / "fixtures" / "gray_p8.tmck"
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 1
    ckpt.write_bytes(bytes(blob))
    proc = _run(["--workload", "gray256_sweep", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "gray_p8.tmck" in proc.stderr and '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_second_seed_stays_within_bounds(spec, workload):
    """Medians of three short runs per seed, in the order 1, 2, 2, 1, 1, 2, so
    that neither seed gets all of a fast or slow spell of the machine."""
    values: dict[int, dict[str, list[float]]] = {1: {}, 2: {}}
    for seed in (1, 2, 2, 1, 1, 2):
        proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "5"])
        assert proc.returncode == 0, proc.stderr
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        for name, metric in result["metrics"].items():
            values[seed].setdefault(name, []).append(metric["value"])
    for m in spec["end_to_end"]:
        a, b = (float(np.median(values[s][m["name"]])) for s in (1, 2))
        assert a > 0 and b > 0
        assert abs(b - a) / a <= m["bound"], (m["name"], values)
