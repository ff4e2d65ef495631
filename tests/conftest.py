"""Shared test helpers."""

import numpy as np
import pytest


def quadratic_value_bound(obs, states):
    """Forward-error bound of u.A.u/2 + b.u + c, one per row of ``states``:
    4 (dim + 2) eps (|u|.|A|.|u| + |b|.|u| + |c|)."""
    U = np.abs(np.atleast_2d(states))
    scale = np.einsum("ri,ij,rj->r", U, np.abs(obs.A), U) + U @ np.abs(obs.b) + abs(obs.c)
    return 4 * (obs.dim + 2) * np.finfo(float).eps * scale


@pytest.fixture
def value_bound():
    return quadratic_value_bound
