"""Train the two reconstruction checkpoints the benchmark decodes with.

Run once from the repository root:

    python3 perfbench/make_fixtures.py

It trains each checkpoint with the repository's own ``training.train`` at
fixed seeds, writes it under ``perfbench/fixtures/`` and records its SHA-256
in ``perfbench/fixtures/manifest.json``. The benchmark refuses to run when a
checkpoint no longer matches its digest, so later changes to training cannot
move the fixtures silently: regenerating them is a deliberate, reviewed act.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from maecodec import dataset, mae, training  # noqa: E402

FIXTURE_DIR = os.path.join(HERE, "fixtures")
MANIFEST = os.path.join(FIXTURE_DIR, "manifest.json")

# Widths follow the acceptance-test model (encoder 32, decoder 16).
FIXTURES = {
    "rgb_p16.tmck": {
        "model": dict(
            patch_size=16, channels=3, enc_d_model=32, enc_depth=2, enc_heads=2,
            enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
        ),
        "corpus": dict(count=400, size=128, channels=3, seed=101),
        "train": dict(crop_size=128, epochs=50, batch_size=8, learning_rate=2e-3, seed=1),
    },
    "gray_p8.tmck": {
        "model": dict(
            patch_size=8, channels=1, enc_d_model=32, enc_depth=2, enc_heads=2,
            enc_d_ff=64, dec_d_model=16, dec_depth=1, dec_heads=2, dec_d_ff=32,
        ),
        "corpus": dict(count=400, size=64, channels=1, seed=102),
        "train": dict(crop_size=64, epochs=50, batch_size=8, learning_rate=2e-3, seed=2),
    },
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    manifest = {}
    for name, spec in FIXTURES.items():
        t0 = time.perf_counter()
        corpus = dataset.synthetic_corpus(**spec["corpus"])
        result = training.train(
            corpus, mae.TMAEConfig(**spec["model"]), training.TrainConfig(**spec["train"])
        )
        path = os.path.join(FIXTURE_DIR, name)
        mae.save_checkpoint(result.model, path)
        elapsed = time.perf_counter() - t0
        print(
            f"{name}: loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f} "
            f"in {elapsed:.0f} s",
            flush=True,
        )
        manifest[name] = {"sha256": sha256_file(path), **spec}
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
