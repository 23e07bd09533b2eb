"""Hypothesis settings for the whole suite.

Examples are derived from each test's own source instead of a random seed,
and none are stored, so every run of the suite tests the same inputs.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
