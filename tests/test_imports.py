"""Importing the package costs only what its modules use at import time."""

import os
import subprocess
import sys
from pathlib import Path

import maecodec

PROBE = """
import sys
import numpy
bare = "numpy.random" in sys.modules
import maecodec.pipeline, maecodec.sweep, maecodec.training
print(int(bare), int("numpy.random" in sys.modules))
"""


def test_package_import_loads_numpy_random_only_if_numpy_does():
    # numpy 1.x loads numpy.random with a bare ``import numpy``; numpy 2 does not
    src = str(Path(maecodec.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    bare, after = (bool(int(v)) for v in child.stdout.split())
    assert after == bare
