"""Shared test settings: one hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("ltcsim", deadline=None, max_examples=200)
settings.load_profile("ltcsim")
