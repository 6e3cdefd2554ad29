"""Hypothesis profiles and shared fixtures for the test suite.

``ci`` drops the per-example deadline, which flakes on shared runners,
and prints the reproduction blob of a failing example.  Select it with
``pytest --hypothesis-profile=ci``; without the flag the default profile
applies.
"""

import pytest
from hypothesis import settings

from polydecomp import QuadraticField, RationalField

settings.register_profile("ci", deadline=None, print_blob=True)


@pytest.fixture
def hull_divisions(monkeypatch):
    """A list that grows by one entry per call of a hull's divides_exact."""
    calls = []
    for cls in (RationalField, QuadraticField):
        def counted(self, x, y, original=cls.divides_exact):
            calls.append(self)
            return original(self, x, y)
        monkeypatch.setattr(cls, "divides_exact", counted)
    return calls
