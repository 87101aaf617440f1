"""Settings shared by the whole suite."""

from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so the suite is reproducible and does not fail on a loaded host.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
