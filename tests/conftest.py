"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run and drops the per-example deadline, so a
CI failure reproduces and a slow runner does not fail a test. Federated runs
take two lanes in every test, a one-CPU runner's too."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def two_lanes(monkeypatch):
    """Every federated run trains two clients at once, whatever CPUs the
    runner may use: a test that wants one lane sets ``protocol_sim.LANES``."""
    monkeypatch.setattr("splitfed.protocol_sim.LANES", 2)
