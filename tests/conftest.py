"""Shared test settings.

Property tests run under a derandomized hypothesis profile without a
deadline, so every run of the suite tries the same examples and a slow
machine does not fail a test on timing. The "thorough" profile is the same
at 1000 examples a test; CI runs the bit-for-bit tests under it with
`pytest tests/test_properties.py -k bit_for_bit --hypothesis-profile=thorough`.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=1000)
settings.load_profile("deterministic")
