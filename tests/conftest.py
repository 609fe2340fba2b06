"""Suite-wide settings: every hypothesis test draws the same examples on
every run, so a failure names an input that fails again.  Example counts
stay with each test's own ``@settings``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
