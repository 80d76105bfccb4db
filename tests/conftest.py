import pytest

from lifshitz_fidelity.verification import _bulk


@pytest.fixture
def make_bulk():
    """Build BulkParams hitting a requested Lambda + Qt^2 xi exactly."""
    return _bulk
