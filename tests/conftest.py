"""Hypothesis settings for the whole suite.

Examples are derandomized and no example database is kept, so every run of
the suite draws the same cases.
"""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("suite", derandomize=True, deadline=None, database=None,
                          max_examples=25)
settings.load_profile("suite")


def pytest_configure(config):
    # Hypothesis also caches the literals of local modules on disk; keep that
    # cache in pytest's cache directory rather than a new .hypothesis/
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
