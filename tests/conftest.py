"""Hypothesis profiles for the test suite.

``ci`` drops the per-example deadline, which flakes on shared runners,
and prints the reproduction blob of a failing example.  Select it with
``pytest --hypothesis-profile=ci``; without the flag the default profile
applies.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)
