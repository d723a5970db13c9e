"""Outputs that must not depend on how many threads BLAS runs.

Every test in conftest's ``BLAS_THREAD_TESTS`` runs again in a child pytest
run per thread count, whatever count the host's BLAS would pick by default.
"""

import pytest

from conftest import BLAS_THREAD_TESTS, run_at_blas_threads


@pytest.mark.parametrize("threads", ["1", "2"])
def test_registered_tests_pass_at_blas_threads(threads):
    """Every registered test, in one child pytest run whose BLAS runs this many threads."""
    child = run_at_blas_threads(threads)
    assert child.returncode == 0, child.stdout + child.stderr
    # nothing skipped, deselected or warned about either
    expected = sum(BLAS_THREAD_TESTS.values())
    assert child.stdout.splitlines()[-1].startswith(f"{expected} passed in "), child.stdout
