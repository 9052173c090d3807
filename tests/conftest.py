"""Hypothesis runs derandomized and without deadlines, so the suite gives
the same verdict on every run whatever the machine's speed.  Every test
starts with io's written-CSV slot empty, as a fresh process does."""

import pytest
from hypothesis import settings

from scalekit import io as skio

settings.register_profile("scalekit", derandomize=True, deadline=None)
settings.load_profile("scalekit")


@pytest.fixture(autouse=True)
def empty_written_slot(monkeypatch):
    monkeypatch.setattr(skio, "_written", None)
