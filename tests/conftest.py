"""Hypothesis runs derandomized and without deadlines, so the suite gives
the same result on every run, however loaded the host is."""

from hypothesis import settings

settings.register_profile("driventb", derandomize=True, deadline=None)
settings.load_profile("driventb")
