"""Importing the package costs only what its modules use at import time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maecodec

PROBE = """
import sys
import numpy
bare = "numpy.random" in sys.modules
import maecodec.pipeline, maecodec.sweep, maecodec.training
print(int(bare), int("numpy.random" in sys.modules))
"""


def _run_fresh(code: str) -> str:
    src = str(Path(maecodec.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_package_import_loads_numpy_random_only_if_numpy_does():
    # numpy 1.x loads numpy.random with a bare ``import numpy``; numpy 2 does not
    bare, after = (bool(int(v)) for v in _run_fresh(PROBE).split())
    assert after == bare


@pytest.mark.parametrize("module", ["codec", "dataset", "metrics"])
def test_leaf_module_loads_only_itself_and_errors(module):
    # the package root imports nothing, so these need neither autograd nor mae
    loaded = _run_fresh(f"import sys, maecodec.{module}; print(*sorted(sys.modules))").split()
    loaded = [name for name in loaded if name.partition(".")[0] == "maecodec"]
    assert loaded == sorted(["maecodec", f"maecodec.{module}", "maecodec.errors"])
