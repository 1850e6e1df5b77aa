"""Test-wide Hypothesis policy: derandomized properties, no example database, no deadline.

Each property states only its own ``max_examples`` and health-check suppressions.
"""

from hypothesis import settings

settings.register_profile("gripstream", derandomize=True, database=None, deadline=None)
settings.load_profile("gripstream")
