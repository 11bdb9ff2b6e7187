"""One hypothesis profile for every property test: derandomized, so a test
run is deterministic, and without a deadline, since exact enumeration time
varies with the drawn model."""

from hypothesis import settings

settings.register_profile("statpriv", derandomize=True, deadline=None)
settings.load_profile("statpriv")
