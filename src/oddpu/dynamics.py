"""Equations of motion on the jet phase space and their propagation.

The model's (2n+1)-order equation of motion is realized as a linear
first-order system ``du/dt = M u`` on the jet vector of all derivatives.
Linear flows are propagated exactly by fitting modal amplitudes; nonlinear
(deformed) flows use a fixed-step classical RK4 integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import FrequencySpectrum


class IntegrationError(RuntimeError):
    """Raised when a vector field turns non-finite during integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


def jet_index(s: int, i: int) -> int:
    """Index of x_i^{(s)} in the jet vector; derivative-major, i in {1, 2}."""
    return 2 * s + (i - 1)


#: The 2x2 Levi-Civita block eps_ij, eps_12 = +1 (read-only).
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def block_view(A: np.ndarray) -> np.ndarray:
    """Writable (d, d, 2, 2) view of a C-contiguous (2d, 2d) array.  On the
    jet layout block [s, m] holds the entries at (jet_index(s, i),
    jet_index(m, j)), a_{sm} delta_ij or d_{sm} eps_ij in every
    rotation-covariant matrix of the model."""
    d = len(A) // 2
    return A.reshape(d, 2, d, 2).swapaxes(1, 2)


@dataclass(frozen=True)
class PhaseState:
    """Jet vector u (length 4n+2, layout ``jet_index``) at time t."""

    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or u.size < 6 or (u.size - 2) % 4 != 0:
            raise ValueError("jet vector must have length 4n+2 for some n >= 1")
        if not np.all(np.isfinite(u)):
            raise ValueError("jet vector entries must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return (self.u.size - 2) // 4

    def component(self, i: int) -> np.ndarray:
        """Derivative stack (x_i, x_i', ..., x_i^{(2n)}) of one component."""
        return self.u[(i - 1)::2]


def companion_matrix(spec: FrequencySpectrum) -> np.ndarray:
    """Matrix M with du/dt = M u equivalent to the (2n+1)-order EOM.

    Shift rows move each derivative slot up one order; the top-order rows
    implement x_i^{(2n+1)} = -sum_k sigma_k x_i^{(2k+1)}.
    """
    n = spec.n
    M = np.zeros((spec.jet_dim, spec.jet_dim))
    blocks = block_view(M)
    s = np.arange(2 * n)
    blocks[s, s + 1, 0, 0] = blocks[s, s + 1, 1, 1] = 1.0
    blocks[2 * n, 1::2, 0, 0] = blocks[2 * n, 1::2, 1, 1] = -np.array(spec.table.sigma[:n])
    return M


def _basis_derivatives(spec: FrequencySpectrum, taus, smax: int) -> np.ndarray:
    """B[r, s, j] = s-th time derivative, at taus[r], of the j-th basis
    function of the solution space {1, cos(w_k t), sin(w_k t)}.

    The factors w ** s stay Python powers: numpy's vectorized power rounds
    differently, which would change the last digits of the states.
    """
    taus = np.asarray(taus, dtype=float)
    B = np.zeros((taus.size, smax + 1, 2 * spec.n + 1))
    B[:, 0, 0] = 1.0
    order = np.arange(smax + 1)
    for k, w in enumerate(spec.omegas):
        c, s = np.cos(w * taus), np.sin(w * taus)
        # the s-th derivative of cos is cycle[s % 4], of sin cycle[(s + 3) % 4]
        cycle = np.stack((c, -s, -c, s), axis=1)
        factors = np.array([w ** sder for sder in range(smax + 1)])
        B[:, :, 2 * k + 1] = cycle[:, order % 4] * factors
        B[:, :, 2 * k + 2] = cycle[:, (order + 3) % 4] * factors
    return B


class ModalSolution:
    """Closed-form solution of the linear EOM through a given state.

    The 2n+1 amplitudes per spatial component are fitted once against the
    initial derivative stack; evaluation at any time is then exact per mode,
    so a long trajectory accumulates no round-off from step to step.
    ``eval`` gives one state, ``states`` the jet vectors at many times, and
    ``grid_states`` a whole grid for ``trajectory``.
    """

    def __init__(self, spec: FrequencySpectrum, state: PhaseState):
        if state.n != spec.n:
            raise ValueError("state dimension does not match spectrum")
        self.spec = spec
        self.t0 = state.t
        d = 2 * spec.n + 1
        B0 = _basis_derivatives(spec, [0.0], d - 1)[0]
        rhs = np.column_stack([state.component(1), state.component(2)])
        self.amps = np.linalg.solve(B0, rhs)

    def derivatives(self, t, smax: int) -> np.ndarray:
        """Derivative stacks up to order smax at absolute time t; (smax+1, 2)
        for a scalar t, (T, smax+1, 2) for an array of T times."""
        t = np.asarray(t, dtype=float)
        # overflow in w t shows as non-finite entries, which callers check
        with np.errstate(over="ignore", invalid="ignore"):
            # one small product per time: a single 2-D product over all
            # times would round differently
            stacks = _basis_derivatives(self.spec, t.ravel() - self.t0, smax) @ self.amps
        return stacks.reshape(t.shape + stacks.shape[1:])

    def states(self, times) -> np.ndarray:
        """Jet vectors at each absolute time; (T, 4n+2), layout ``jet_index``."""
        stacks = self.derivatives(np.ravel(times), 2 * self.spec.n)
        return stacks.reshape(len(stacks), self.spec.jet_dim)

    def grid_states(self, state: PhaseState, grid) -> np.ndarray:
        """Jet vectors at each time of a grid starting at state.t, from one
        evaluation; (T, 4n+2), row 0 = state.u."""
        later = self.states(np.asarray(grid, dtype=float)[1:])
        if not np.isfinite(later).all():
            raise ValueError("jet vector entries must be finite")
        return np.vstack((state.u, later))

    def eval(self, t: float) -> PhaseState:
        """The state at absolute time t."""
        return PhaseState(self.states([t])[0], t)


def _rk4_update(field, t: float, u: np.ndarray, h: float) -> np.ndarray:
    """The classical RK4 update of u over [t, t + h]; the one copy of the
    formula.  Callers run it under ``np.errstate(over="ignore",
    invalid="ignore")``: overflow is reported here as IntegrationError."""
    half = h / 2
    k1 = field(t, u)
    k2 = field(t + half, u + half * k1)
    k3 = field(t + half, u + half * k2)
    k4 = field(t + h, u + h * k3)
    # k + k is 2 * k exactly
    u_next = u + (h / 6) * (k1 + (k2 + k2) + (k3 + k3) + k4)
    # a non-finite slope always makes the update non-finite, so one check
    # covers both on the common path.  A non-finite entry makes the sum
    # non-finite; a finite sum clears the state without the elementwise
    # test, which runs only when the sum is not finite (it may overflow).
    if not math.isfinite(sum(u_next.tolist())) and not np.isfinite(u_next).all():
        slopes_finite = all(np.isfinite(k).all() for k in (k1, k2, k3, k4))
        what = "state after the step" if slopes_finite else "vector field"
        raise IntegrationError("non-finite %s near t=%g" % (what, t), t=t)
    return u_next


def _require_positive_step(h: float):
    if not h > 0.0:     # refuses nan too
        raise ValueError("step size must be positive")


def rk4_step(field, state: PhaseState, h: float) -> PhaseState:
    """One classical fourth-order Runge-Kutta step; local error O(h^5).

    ``field(t, u)`` returns du/dt.
    """
    _require_positive_step(h)
    with np.errstate(over="ignore", invalid="ignore"):
        u_next = _rk4_update(field, state.t, state.u, h)
    return PhaseState(u_next, state.t + h)


class RK4Flow:
    """Fixed-step RK4 flow of ``field(t, u)``: each interval [a, b] is
    split into max(1, ceil((b - a)/h)) equal steps, so no step exceeds h.

    ``grid_states`` advances along a whole grid on raw arrays, building no
    PhaseState per step; ``grid_states(state, [state.t, t])[-1]`` is the
    state at one later time t.
    """

    def __init__(self, field, h: float):
        _require_positive_step(h)
        self.field = field
        self.h = h

    def grid_states(self, state: PhaseState, grid) -> np.ndarray:
        """Jet vectors at each time of a strictly increasing grid that
        starts at state.t; (T, 4n+2), row 0 = state.u.

        Each interval starts from the exact grid time, so step round-off
        does not accumulate in t.
        """
        times = np.asarray(grid, dtype=float).tolist()
        out = np.empty((len(times), state.u.size))
        u = state.u
        out[0] = u
        field, h = self.field, self.h
        start = state.t
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(1, len(times)):
                span = times[r] - start
                steps = max(1, math.ceil(span / h - 1e-12))
                dt = span / steps
                t = start
                for _ in range(steps):
                    u = _rk4_update(field, t, u, dt)
                    t = t + dt
                out[r] = u
                start = times[r]
        return out


@dataclass(frozen=True)
class TrajectoryTable:
    """Sampled states and named observable values along a flow."""

    times: np.ndarray
    states: np.ndarray          # (len(times), 4n+2)
    observable_names: tuple
    observable_values: np.ndarray  # (len(times), len(names))


def trajectory(flow, state: PhaseState, grid, observables=()) -> TrajectoryTable:
    """Tabulate a flow on a strictly increasing grid starting at state.t.

    ``flow`` is a ModalSolution or an RK4Flow; either gives every grid
    state in one ``grid_states`` call.  ``observables`` is a sequence of
    (name, observable) pairs, one column each.  Factored observables
    (``poisson.FactoredObservable``: H, Hcal, every J_{k,i}) that share a
    map T share one T u per row, computed once per grid; each of their
    columns is then a weighted sum of its squares.  Any other observable
    (``deformation.PotentialObservable``, ``poisson.QuadraticObservable``)
    gives its column from its ``value`` of the (rows, dim) stack of grid
    states.  A non-finite observable value raises IntegrationError at the
    first grid time that has one.
    """
    grid = np.asarray(grid, dtype=float)
    names = tuple(name for name, _ in observables)
    if grid.size == 0:
        dim = state.u.size
        return TrajectoryTable(grid, np.empty((0, dim)), names, np.empty((0, len(names))))
    if abs(grid[0] - state.t) > 1e-12:
        raise ValueError("grid must start at the state's time")
    if not (np.diff(grid) > 0).all():
        raise ValueError("time grid must be strictly increasing")
    states = flow.grid_states(state, grid)
    values = np.empty((grid.size, len(names)))
    coords = {}                 # id(T) -> T u for each row, one per shared map
    with np.errstate(over="ignore", invalid="ignore"):
        for col, (_, obs) in enumerate(observables):
            if not hasattr(obs, "from_coordinates"):
                values[:, col] = obs.value(states)
                continue
            if id(obs.T) not in coords:
                coords[id(obs.T)] = obs.coordinates(states)
            values[:, col] = obs.from_coordinates(coords[id(obs.T)])
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise IntegrationError("non-finite observable %s at t=%g" % (names[col], grid[row]),
                               t=float(grid[row]))
    return TrajectoryTable(grid, states, names, values)
