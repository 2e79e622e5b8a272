"""Session-wide pytest configuration for every suite in the repository.

Property tests run derandomized: each test draws the same examples on
every run, so a green tier-1 means the same thing everywhere.  Pass
``--hypothesis-profile=default`` to explore fresh random examples.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
