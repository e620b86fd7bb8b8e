"""Test-suite settings.

Property-based tests run under the ``cglab`` hypothesis profile: examples
are derived from each test's name rather than drawn at random, no example
database is kept, and the example count is capped, so every run checks the
same cases in about the same time.  The ``pmf_builds`` fixture records the
Poisson-binomial pmfs that ``cglab.atomic`` builds.

Derandomizing does not tie a test's examples to the test alone: Hypothesis
(6.155) also draws numeric and string literals that it collects from every
local module loaded so far (``providers._get_local_constants``, rescanned
whenever ``sys.modules`` grows).  So adding or deleting a constant in
``src/`` or in a test file, or changing the import order, can change the
examples of an unrelated property test.  A failure that shows up that way
is a finding: fix the code (or record the failure), add the case to the test
as an ``@example`` so that it stays checked, and never loosen the test.
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
