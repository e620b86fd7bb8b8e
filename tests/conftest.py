"""Test-suite settings.

Property-based tests run under the ``cglab`` hypothesis profile: examples
are derived from each test's name rather than drawn at random, no example
database is kept, and the example count is capped, so every run checks the
same cases in about the same time.
"""

from hypothesis import settings

settings.register_profile("cglab", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("cglab")
