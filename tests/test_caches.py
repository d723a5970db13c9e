"""The package's memoisation is bounded: no module state set through
``global``, and every ``functools.lru_cache`` has a finite size."""

import ast
import importlib
import pkgutil
from pathlib import Path

import maecodec

PACKAGE = Path(maecodec.__file__).resolve().parent

# (module, function) -> maxsize of every cache in the package
EXPECTED_CACHES = {
    ("maecodec.masking", "_partition"): 1,
    ("maecodec.transformer", "_shared_table"): 2,
    ("maecodec.metrics", "_reference_stats"): 1,
    ("maecodec.mae", "_mask_token_sums"): 1,
}


def test_no_module_sets_a_global():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_every_lru_cache_is_bounded_and_known():
    caches = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"maecodec.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[module.__name__, name] = value.cache_parameters()["maxsize"]
    assert caches == EXPECTED_CACHES
