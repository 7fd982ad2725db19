"""Shared test settings.

Property tests run under a derandomized hypothesis profile without a
deadline, so every run of the suite tries the same examples and a slow
machine does not fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
