import os

import pytest
from hypothesis import settings

from lifshitz_fidelity.verification import _bulk

# derandomized property tests cannot flake in CI (HYPOTHESIS_PROFILE=ci);
# local runs keep drawing new examples
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def make_bulk():
    """Build BulkParams hitting a requested Lambda + Qt^2 xi exactly."""
    return _bulk
