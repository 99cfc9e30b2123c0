"""Suite-wide test settings: every hypothesis test draws the same examples on
every run and keeps no example database, so two trees run the same tests.
A test's own ``@settings`` keeps its ``max_examples``."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
