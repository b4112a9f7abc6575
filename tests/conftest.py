"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run and drops the per-example deadline, so a
CI failure reproduces and a slow runner does not fail a test."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
