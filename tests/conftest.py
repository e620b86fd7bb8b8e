"""Test-suite settings.

Property-based tests run under the ``cglab`` hypothesis profile: examples
are derived from each test's name rather than drawn at random, no example
database is kept, and the example count is capped, so every run checks the
same cases in about the same time.  The ``pmf_builds`` fixture records the
Poisson-binomial pmfs that ``cglab.atomic`` builds.
"""

import pytest
from hypothesis import settings

from cglab import atomic

settings.register_profile("cglab", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("cglab")


@pytest.fixture
def pmf_builds(monkeypatch):
    """The sorted terms of every Poisson-binomial pmf that ``atomic`` builds, in order."""
    built = []
    build = atomic.bernoulli_sum_pmf
    monkeypatch.setattr(atomic, "bernoulli_sum_pmf",
                        lambda probs: built.append(tuple(sorted(probs))) or build(probs))
    return built
