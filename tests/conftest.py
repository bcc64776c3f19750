"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` draws every example from a fixed seed and prints
the reproduction blob of any failure, so a failing CI log can be replayed.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
