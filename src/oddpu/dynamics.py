"""Equations of motion on the jet phase space and their propagation.

The model's (2n+1)-order equation of motion is realized as a linear
first-order system ``du/dt = M u`` on the jet vector of all derivatives.
Linear flows are propagated exactly by fitting modal amplitudes; nonlinear
(deformed) flows use classical RK4, one step per grid interval.  The
system is invariant under time translations, so a state is its jet vector
alone, every flow starts from it at t = 0, and a field is ``field(u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import FrequencySpectrum


class IntegrationError(RuntimeError):
    """Raised when a flow, or a table computed along it, turns non-finite."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


def require_finite(rows, times, names=None):
    """``rows``, a 2-D table with one row per time of ``times``, refused
    with IntegrationError at the first time whose row holds a non-finite
    value: a state without ``names``, else the observable named by the
    row's leftmost non-finite column.  The one check that makes a
    non-finite table value exit 4 on the command line."""
    finite = np.isfinite(rows)
    if not finite.all():
        r = int(np.argmin(finite.all(axis=1)))
        t = float(times[r])
        what = "state" if names is None else "observable " + names[int(np.argmin(finite[r]))]
        raise IntegrationError("non-finite %s at t=%g" % (what, t), t=t)
    return rows


#: The 2x2 Levi-Civita block eps_ij, eps_12 = +1 (read-only).
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def block_view(A: np.ndarray) -> np.ndarray:
    """Writable (..., d, d, 2, 2) view of a C-contiguous (..., 2d, 2d) array,
    one matrix or a stack.  On the jet layout block [s, m] holds the entries
    at (2s + i - 1, 2m + j - 1), a_{sm} delta_ij or d_{sm} eps_ij in every
    rotation-covariant matrix of the model."""
    d = A.shape[-1] // 2
    return A.reshape(A.shape[:-2] + (d, 2, d, 2)).swapaxes(-3, -2)


@dataclass(frozen=True)
class PhaseState:
    """Jet vector u in the jet layout: x_i^{(s)} at index 2s + i - 1."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or u.size < 6 or (u.size - 2) % 4 != 0:
            raise ValueError("jet vector must have length 4n+2 for some n >= 1")
        if not np.all(np.isfinite(u)):
            raise ValueError("jet vector entries must be finite")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return (self.u.size - 2) // 4


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


#: Times per basis block in ``ModalSolution.derivatives``: a block of the
#: basis is (ROW_BLOCK, smax+1, 2n+1), 2.4 MB at n = 8, whatever the grid.
ROW_BLOCK = 1024


def _basis_derivatives(spec: FrequencySpectrum, taus, smax: int) -> np.ndarray:
    """B[r, s, j] = s-th time derivative, at taus[r], of the j-th basis
    function of the solution space {1, cos(w_k t), sin(w_k t)}.

    Every mode runs the same derivative cycle: the s-th derivative of
    cos(w t) is w^s (cos, -sin, -cos, sin)[s % 4], of sin(w t) w^s (sin,
    cos, -sin, -cos)[s % 4].  So cos and sin are taken once over the (n,
    rows) array w_k t, the sign of each order is folded into its factor
    +-w^s, and each derivative parity and family is one broadcast product,
    written with the rows innermost.  The factors stay Python powers with
    Python int exponents: numpy's power rounds differently, which would
    change the last digits of the states.
    """
    taus = np.asarray(taus, dtype=float)
    wt = np.multiply.outer(spec.omegas, taus)
    cos, sin = np.cos(wt), np.sin(wt)
    # signed[s][k] = +-w_k^s, the factor of cos's s-th derivative, on cos
    # at even s and on sin at odd s; sin's odd orders take the opposite sign
    signed = [[(w ** s if s % 4 in (0, 3) else -(w ** s)) for w in spec.omegas]
              for s in range(smax + 1)]
    even = np.array(signed[0::2]).reshape(-1, spec.n, 1)
    odd = np.array(signed[1::2]).reshape(-1, spec.n, 1)
    B = np.zeros((taus.size, smax + 1, 2 * spec.n + 1))
    Bt = B.transpose(1, 2, 0)           # (order, basis function, row)
    Bt[0, 0] = 1.0
    np.multiply(even, cos, out=Bt[0::2, 1::2])
    np.multiply(even, sin, out=Bt[0::2, 2::2])
    np.multiply(odd, sin, out=Bt[1::2, 1::2])
    np.multiply(-odd, cos, out=Bt[1::2, 2::2])
    return B


def _check_grid(grid) -> np.ndarray:
    """The time grid of a flow as floats; a ValueError unless it is not
    empty, starts within 1e-12 of 0 (not nan) and strictly increases."""
    grid = np.asarray(grid, dtype=float)
    if not (grid.size and abs(grid[0]) <= 1e-12):
        raise ValueError("grid must start at 0")
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError("time grid must be strictly increasing")
    return grid


class ModalSolution:
    """Closed-form solution of the linear EOM through a given state.

    x_i(t) = c_i + sum_k (a_{k,i} cos(w_k t) + b_{k,i} sin(w_k t)); ``amps``
    holds rows (c, a_0, b_0, a_1, ...), one column per component.  Each
    amplitude is a residue of the spectrum table: with R its ``residues``
    and x^{(j)} the stack x^{(2m+j)}(0), m < n, a_k = -(R x^{(2)})_k / w_k^2,
    b_k = (R x^{(1)})_k / w_k and c = x(0) - sum_k a_k.  Measured within
    2e-15 of an exact rational fit, relative to its largest amplitude, at
    n <= 14.  Evaluation at any time is then exact per mode, so a long
    trajectory accumulates no round-off from step to step.  The flow keeps
    the state it was fitted through as its start at t = 0: ``eval`` gives
    the state at one time, ``grid_states`` the jet vectors on a grid.
    """

    def __init__(self, spec: FrequencySpectrum, state: PhaseState):
        if state.n != spec.n:
            raise ValueError("state dimension does not match spectrum")
        self.spec = spec
        self.state = state
        d = state.u.reshape(-1, 2)          # d[s, i - 1] = x_i^{(s)}(0)
        R = spec.table.residues
        self.amps = amps = np.empty_like(d)
        # overflow shows as non-finite states, which callers check
        with np.errstate(over="ignore", invalid="ignore"):
            amps[1::2] = -(R @ d[2::2]) / np.array(spec.omega_sq)[:, None]
            amps[2::2] = (R @ d[1:-1:2]) / np.array(spec.omegas)[:, None]
            amps[0] = d[0] - amps[1::2].sum(axis=0)

    def derivatives(self, t, smax: int) -> np.ndarray:
        """Derivative stacks up to order smax at elapsed time t; (smax+1, 2)
        for a scalar t, (T, smax+1, 2) for an array of T times.

        The stacks are filled in blocks of ROW_BLOCK times, so the basis
        held at once is one block's, whatever T; only the result grows
        with T.
        """
        t = np.asarray(t, dtype=float)
        taus = t.ravel()
        stacks = np.empty((taus.size, smax + 1, 2))
        # overflow in w t shows as non-finite entries, which callers check
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, taus.size, ROW_BLOCK):
                # one small product per time: a single 2-D product over all
                # times would round differently
                np.matmul(_basis_derivatives(self.spec, taus[lo:lo + ROW_BLOCK], smax),
                          self.amps, out=stacks[lo:lo + ROW_BLOCK])
        return stacks.reshape(t.shape + stacks.shape[1:])

    def grid_states(self, grid) -> np.ndarray:
        """Jet vectors at each time of a ``_check_grid`` grid, from one
        evaluation; (T, 4n+2), row 0 = the fitted state.  A non-finite
        state raises IntegrationError at the first grid time that has one."""
        grid = _check_grid(grid)
        out = self.derivatives(grid, 2 * self.spec.n).reshape(grid.size, -1)
        out[0] = self.state.u
        return require_finite(out, grid)

    def eval(self, t: float) -> PhaseState:
        """The state at elapsed time t."""
        return PhaseState(self.derivatives(t, 2 * self.spec.n).ravel())


def _rk4_update(field, t: float, u: np.ndarray, h: float) -> np.ndarray:
    """The classical RK4 update of u over [t, t + h]; the one copy of the
    formula.  ``RK4Flow`` runs it under ``np.errstate(over="ignore",
    invalid="ignore")``: overflow is reported here as IntegrationError."""
    half = h / 2
    k1 = field(u)
    k2 = field(u + half * k1)
    k3 = field(u + half * k2)
    k4 = field(u + h * k3)
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


class RK4Flow:
    """Classical RK4 flow of ``field(u)``, which returns du/dt, from
    ``state`` at t = 0 along a time grid: one step of size t_r - t_{r-1}
    per interval.  It is the one RK4 driver: ``grid_blocks`` runs the
    steps, ``grid_states`` is its single block and ``rk4_step`` its grid
    [0, h].

    The steps advance on raw arrays, building no PhaseState per step.
    ``cli.cmd_deform`` integrates block 0 itself and the rest in a forked
    worker, and formats each block while the next is integrated.
    """

    def __init__(self, field, state: PhaseState):
        self.field = field
        self.state = state

    def grid_blocks(self, grid, rows: int):
        """The jet vectors at each time of a ``_check_grid`` grid, checked
        here, as an iterator of (rows, 4n+2) blocks in grid order, the last
        one shorter where ``rows`` does not divide the grid; row 0 of the
        first = the start state.  A step is taken only when its block is
        asked for.

        Each interval starts from the exact grid time, so step round-off
        does not accumulate in t.
        """
        return self._blocks(_check_grid(grid).tolist(), rows)

    def _blocks(self, times, rows):
        u = self.state.u
        field = self.field
        for lo in range(0, len(times), rows):
            out = np.empty((min(rows, len(times) - lo), u.size))
            # per block: held across a yield, it would hold in the caller's code too
            with np.errstate(over="ignore", invalid="ignore"):
                for r in range(lo, lo + len(out)):
                    if r:
                        u = _rk4_update(field, times[r - 1], u, times[r] - times[r - 1])
                    out[r - lo] = u
            yield out

    def grid_states(self, grid) -> np.ndarray:
        """Jet vectors at each time of a ``_check_grid`` grid, checked before
        the first field call; (T, 4n+2), row 0 = the start state: the one
        block of ``grid_blocks``."""
        times = _check_grid(grid).tolist()
        return next(self._blocks(times, len(times)))


def rk4_step(field, state: PhaseState, h: float) -> PhaseState:
    """One classical fourth-order Runge-Kutta step of ``field(u)``, local
    error O(h^5): ``RK4Flow`` over the grid [0, h], so h must be positive."""
    return PhaseState(RK4Flow(field, state).grid_states([0.0, h])[-1])


@dataclass(frozen=True)
class TrajectoryTable:
    """Sampled states along a flow."""

    times: np.ndarray
    states: np.ndarray          # (len(times), 4n+2)


def trajectory(flow, grid) -> TrajectoryTable:
    """The table of ``flow.grid_states(grid)``; no package code calls it."""
    return TrajectoryTable(np.asarray(grid, dtype=float), flow.grid_states(grid))
