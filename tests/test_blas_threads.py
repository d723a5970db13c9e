"""Outputs that must not depend on how many threads BLAS runs.

Every test in conftest's ``BLAS_THREAD_TESTS`` runs again in a child pytest
run per thread count, whatever count the host's BLAS would pick by default.
"""

import pytest

from conftest import BLAS_THREAD_TESTS, passed_at_blas_threads, run_at_blas_threads


@pytest.mark.parametrize("threads", ["1", "2"])
def test_registered_tests_pass_at_blas_threads(threads):
    """Every case of every registered test passes in the child run at this many BLAS threads."""
    child = run_at_blas_threads(threads)
    assert child.returncode == 0, child.stdout + child.stderr
    passed = {test: passed_at_blas_threads(threads, test) for test in BLAS_THREAD_TESTS}
    assert passed == BLAS_THREAD_TESTS, child.stdout
    # nothing skipped, deselected or warned about either
    expected = sum(BLAS_THREAD_TESTS.values())
    assert child.stdout.splitlines()[-1].startswith(f"{expected} passed in "), child.stdout
