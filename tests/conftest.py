"""Shared test settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite checks the same examples and two runs compare like for
like. Per-test ``max_examples`` and deadlines are set where the tests are.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
