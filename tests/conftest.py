"""Shared test settings: every ``hypothesis`` property runs derandomized,
without a deadline and without an example database, so a run draws the same
examples on every machine.  Each property sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("hotelling", deadline=None, derandomize=True, database=None)
settings.load_profile("hotelling")
