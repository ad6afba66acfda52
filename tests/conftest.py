"""Shared test settings.

Property tests draw their examples from a derandomized hypothesis
profile, so every run of the suite checks the same examples, and run
without a per-example deadline, so a slow host cannot time them out.
"""

from hypothesis import settings

settings.register_profile("edgebench", derandomize=True, deadline=None)
settings.load_profile("edgebench")
