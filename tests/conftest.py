"""One hypothesis profile for every property test: derandomized, so a test
run is deterministic, and without a deadline, since exact enumeration time
varies with the drawn model; and a fixture that starts a test with an
empty answer-law memo."""

import pytest
from hypothesis import settings

from statpriv import dist

settings.register_profile("statpriv", derandomize=True, deadline=None)
settings.load_profile("statpriv")


@pytest.fixture
def empty_law_memo(monkeypatch):
    """answer_law's memo, empty for this test and restored after it."""
    monkeypatch.setattr(dist, "_law_memo", {})
    monkeypatch.setattr(dist, "_memo_outcomes", 0)
    return dist._law_memo
