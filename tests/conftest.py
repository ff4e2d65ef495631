"""Shared test helpers."""

from fractions import Fraction

import numpy as np
import pytest


def quadratic_value_bound(obs, states):
    """Forward-error bound of u.A.u/2 + b.u + c, one per row of ``states``:
    4 (dim + 2) eps (|u|.|A|.|u| + |b|.|u| + |c|)."""
    U = np.abs(np.atleast_2d(states))
    scale = np.einsum("ri,ij,rj->r", U, np.abs(obs.A), U) + U @ np.abs(obs.b) + abs(obs.c)
    return 4 * (obs.dim + 2) * np.finfo(float).eps * scale


def factored_value_bound(obs, states):
    """Forward-error bound of (1/2) sum_j D_j (T u)_j^2, one per row of
    ``states``, against the same formula in exact arithmetic on the stored
    T, D and u.

    With d = dim, gamma_d = d eps / (1 - d eps) and e_j = (|T| |u|)_j: each
    computed c_j = (T u)_j is off by at most gamma_d e_j, so its square by
    (2 gamma_d + gamma_d^2) e_j^2, plus eps (1 + gamma_d)^2 e_j^2 for
    rounding the square; the weighted sum of the squares adds
    gamma_d (1 + eps) (1 + gamma_d)^2 sum_j |D_j| e_j^2, and the factor 1/2
    is exact.  In all (3 gamma_d + eps + O(eps^2)) (1/2) sum_j |D_j| e_j^2,
    which 4 (d + 2) eps (1/2) sum_j |D_j| e_j^2 covers.
    """
    E = np.abs(np.atleast_2d(states)) @ np.abs(obs.T).T
    return 4 * (obs.dim + 2) * np.finfo(float).eps * 0.5 * (E * E @ np.abs(obs.weights))


def exact_coordinates(T, states):
    """T u for each row of ``states``, in exact rational arithmetic."""
    T = [[Fraction(x) for x in row] for row in np.asarray(T).tolist()]
    out = []
    for u in np.atleast_2d(states).tolist():
        u = [Fraction(x) for x in u]
        out.append([sum(t * x for t, x in zip(row, u)) for row in T])
    return out


def factored_errors(obs, coords, values, offsets=None):
    """|value - (1/2) sum_j D_j c_j^2 - offset| per row, from exact
    coordinates (``exact_coordinates``), in exact arithmetic and rounded
    once at the end."""
    D = [Fraction(x) for x in obs.weights.tolist()]
    offsets = np.zeros(len(values)) if offsets is None else offsets
    return np.array([
        float(abs(Fraction(v) - sum(d * c * c for d, c in zip(D, row)) / 2 - Fraction(off)))
        for row, v, off in zip(coords, np.asarray(values).tolist(),
                               np.asarray(offsets).tolist())])


def within_factored_bound(obs, states, values, offsets=None, slack=0.0, coords=None):
    """True per row where ``values`` is within ``factored_value_bound`` (plus
    ``slack``) of the exact (1/2) sum_j D_j (T u)_j^2 (plus ``offsets``);
    ``coords`` may pass ``exact_coordinates(obs.T, states)`` computed once."""
    if coords is None:
        coords = exact_coordinates(obs.T, states)
    errors = factored_errors(obs, coords, values, offsets)
    return errors <= factored_value_bound(obs, states) + slack


@pytest.fixture
def value_bound():
    return quadratic_value_bound


@pytest.fixture
def factored_bound_check():
    return within_factored_bound
