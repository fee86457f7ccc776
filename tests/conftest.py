import numpy as np
import pytest


def _lagrange_upwind(r, lam):
    """Coefficients a_-r .. a_0 of the upwind scheme interpolating U at x_j - lam on r + 1 cells."""
    nodes = np.arange(-r, 1)
    return [float(np.prod([(-lam - m) / (k - m) for m in nodes if m != k])) for k in nodes]


@pytest.fixture
def lagrange_upwind():
    return _lagrange_upwind
