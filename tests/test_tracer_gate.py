"""The benchmark's span tracer (perfbench/tracer.py) still fits the package.

The tracer wraps public functions by name from outside ``src/``. A rename
or deletion here that drops one of its sites would break every traced
benchmark run, so tier-1 loads the tracer file as it is and installs it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from maecodec import autograd, mae
from maecodec import pipeline as pl

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_exists():
    tracer = _load_tracer()
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in tracer.SPAN_SITES
        if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_installs_and_restores_every_original(tiny_mae_config):
    tracer = _load_tracer()
    sites = [(owner, attr) for owner, attr, _ in tracer.SPAN_SITES]
    sites += [(autograd, name) for name in tracer.autograd_ops()]
    originals = [vars(owner)[attr] for owner, attr in sites]

    image = np.random.default_rng(0).integers(0, 256, (16, 16, 1), dtype=np.uint8)
    model = mae.init_model(tiny_mae_config, seed=0)
    config = pl.PipelineConfig(patch_size=tiny_mae_config.patch_size, mask_ratio=0.5, seed=1)
    with tracer.Tracer() as t:
        assert all(vars(o)[a] is not f for (o, a), f in zip(sites, originals))
        with t.root():
            blob = pl.compress(image, config).to_bytes()
            out = pl.decompress(pl.container_from_bytes(blob), model)

    assert out.shape == image.shape
    names = {span[0] for span in t.spans}
    assert {
        "pipeline.compress", "pipeline.to_bytes", "pipeline.container_parse",
        "pipeline.decompress", "codec.encode", "codec.decode", "mae.reconstruct",
        "transformer.encoder_block", "transformer.attention", "autograd.softmax_rows",
    } <= names
    assert t.counts["autograd.op_calls"] > 0
    assert all(vars(o)[a] is f for (o, a), f in zip(sites, originals))
