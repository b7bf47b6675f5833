"""Shared test settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite checks the same examples and two runs compare like for
like. Per-test ``max_examples`` and deadlines are set where the tests are.
"""

import pytest
from hypothesis import settings

from mechmbqc import optomech

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def fresh_run_caches():
    """Start every test with empty run caches (cluster and reference, step
    coefficients), so what a test counts does not depend on which tests ran
    before it."""
    optomech._cluster_and_reference.cache_clear()
    optomech._step_coefficients.cache_clear()
