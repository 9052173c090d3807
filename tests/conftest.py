"""Hypothesis runs derandomized and without deadlines, so the suite gives
the same verdict on every run whatever the machine's speed."""

from hypothesis import settings

settings.register_profile("scalekit", derandomize=True, deadline=None)
settings.load_profile("scalekit")
