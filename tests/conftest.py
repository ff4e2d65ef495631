"""Shared test helpers."""

import contextlib
import functools
import math
import operator
import os
import signal
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from oddpu import verify
from oddpu.canonical import (alt_hamiltonian_observable, canonical_map, energy_observable,
                             oscillator_map, oscillator_sums, quadratic_form,
                             scaled_canonical_map, structure_rank)
from oddpu.dynamics import J2, block_view, companion_matrix
from oddpu.poisson import GammaWeights, dirac_equivalent_gamma
from oddpu.spectrum import (P_TABLE_DEGREE, _complete_homogeneous_pass, complete_homog,
                            passes_tolerance)


def quadratic_value_bound(A, states):
    """Forward-error bound of u.A.u/2, one per row of ``states``:
    4 (dim + 2) eps |u|.|A|.|u|."""
    U = np.abs(np.atleast_2d(states))
    scale = np.einsum("ri,ij,rj->r", U, np.abs(A), U)
    return 4 * (len(A) + 2) * np.finfo(float).eps * scale


def factored_value_bound(T, D, states):
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
    E = np.abs(np.atleast_2d(states)) @ np.abs(T).T
    return 4 * (len(D) + 2) * np.finfo(float).eps * 0.5 * (E * E @ np.abs(D))


def exact_coordinates(T, states):
    """T u for each row of ``states``, in exact rational arithmetic."""
    T = [[Fraction(x) for x in row] for row in np.asarray(T).tolist()]
    out = []
    for u in np.atleast_2d(states).tolist():
        u = [Fraction(x) for x in u]
        out.append([sum(t * x for t, x in zip(row, u)) for row in T])
    return out


def factored_errors(D, coords, values, offsets=None):
    """|value - (1/2) sum_j D_j c_j^2 - offset| per row, from exact
    coordinates (``exact_coordinates``), in exact arithmetic and rounded
    once at the end."""
    D = [Fraction(x) for x in np.asarray(D).tolist()]
    offsets = np.zeros(len(values)) if offsets is None else offsets
    return np.array([
        float(abs(Fraction(v) - sum(d * c * c for d, c in zip(D, row)) / 2 - Fraction(off)))
        for row, v, off in zip(coords, np.asarray(values).tolist(),
                               np.asarray(offsets).tolist())])


def within_factored_bound(T, D, states, values, offsets=None, slack=0.0, coords=None):
    """True per row where ``values`` is within ``factored_value_bound`` (plus
    ``slack``) of the exact (1/2) sum_j D_j (T u)_j^2 (plus ``offsets``);
    ``coords`` may pass ``exact_coordinates(T, states)`` computed once."""
    if coords is None:
        coords = exact_coordinates(T, states)
    errors = factored_errors(D, coords, values, offsets)
    return errors <= factored_value_bound(T, D, states) + slack


def _left_sum(terms):
    return functools.reduce(operator.add, terms, 0.0)


def _oracle_worst(checks) -> dict:
    """The report entry of one identity from its (residual, scale, location)
    checks: the largest relative residual |residual| / |scale| (the first
    of equal ones), where it occurred, and whether that check passes
    ``passes_tolerance``."""
    worst = None
    for residual, scale, location in checks:
        rel = abs(residual) / max(abs(scale), 1e-300)
        if worst is None or rel > worst[0]:
            worst = (rel, residual, scale, location)
    rel, residual, scale, location = worst
    return {"max_residual": rel, "location": list(location),
            "pass": passes_tolerance(residual, scale)}


def identity_report_oracle(spec) -> dict:
    """The identity report of one spectrum, one index combination at a
    time: the form ``spectrum.identity_reports`` replaced, kept as its
    oracle.  Its array passes must give ``json.dumps``-equal reports.
    Each sum is ``_left_sum``, the left-to-right order of Python 3.11's
    ``sum`` (3.12 compensates)."""
    n = spec.n
    w = spec.omegas
    table = spec.table
    w2 = spec.omega_sq
    rhos = table.rho
    red = table.reduced

    def id1_first():
        for s in range(n):
            for p in range(n):
                terms = [(-1.0) ** k * w[p] ** (2 * k) * red[s][k] for k in range(n)]
                rhs = (-1.0) ** s / rhos[s] if s == p else 0.0
                yield _left_sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (s, p)

    def id1_second():
        for s in range(n + 1):
            for p in range(n):
                terms = [(-1.0) ** k * (-w2[k]) ** s * red[k][p] * rhos[k]
                         for k in range(n)]
                if s == n:
                    rhs = -table.sigma[p]
                else:
                    rhs = 1.0 if s == p else 0.0
                yield _left_sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (s, p)

    def id2():
        for k in range(-n + 1, P_TABLE_DEGREE + 1):
            terms = [(-1.0) ** (n - 1) * (-1.0) ** s * w[s] ** (2 * n + 2 * k - 2) * rhos[s]
                     for s in range(n)]
            rhs = complete_homog(spec, k)
            yield _left_sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (k,)

    def power_diff():
        # one P pass per pair serves every s
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                h = _complete_homogeneous_pass([w2[a], w2[b]], 5)
                for s in range(1, 7):
                    lhs = w[a] ** (2 * s) - w[b] ** (2 * s)
                    rhs = (w2[a] - w2[b]) * h[s - 1]
                    scale = max(abs(w[a] ** (2 * s)), abs(w[b] ** (2 * s)), abs(rhs), 1.0)
                    yield lhs - rhs, scale, (a, b, s)
        if n == 1:  # check against sampled fixed second arguments
            for v in (0.25, 2.0):
                h = _complete_homogeneous_pass([w2[0], v], 5)
                for s in range(1, 7):
                    lhs = w2[0] ** s - v ** s
                    rhs = (w2[0] - v) * h[s - 1]
                    yield lhs - rhs, max(abs(lhs), abs(rhs), 1.0), (v, s)

    def p_diff():
        # over sampled argument subsets, padded so n = 1 still exercises it
        pool = list(w2) + [0.3, 1.7]
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                rest = [pool[j] for j in range(len(pool)) if j not in (a, b)][:2]
                ha = _complete_homogeneous_pass(rest + [pool[a]], 4)
                hb = _complete_homogeneous_pass(rest + [pool[b]], 4)
                hab = _complete_homogeneous_pass(rest + [pool[a], pool[b]], 3)
                for s in range(1, 5):
                    lhs = ha[s] - hb[s]
                    rhs = (pool[a] - pool[b]) * hab[s - 1]
                    yield lhs - rhs, max(abs(ha[s]), abs(hb[s]), abs(rhs), 1.0), (a, b, s)

    return {check.__name__: _oracle_worst(check())
            for check in (id1_first, id1_second, id2, power_diff, p_diff)}


def loop_dirac_structure(spec):
    """``poisson.dirac_structure`` one 2x2 block at a time: the loop the
    batch builder replaced, kept as its bit-for-bit oracle."""
    n = spec.n
    P = spec.table.P
    omega = np.zeros((spec.jet_dim, spec.jet_dim))
    blocks = block_view(omega)
    for s in range(2 * n + 1):
        for m in range(s % 2, 2 * n + 1, 2):
            k = (s + m - 2 * n) // 2
            coef = (-1.0) ** ((s - m) // 2 + n + 1) * (P[k] if k >= 0 else 0.0)
            blocks[s, m] = coef * J2
    return omega


def loop_alt_structure(spec, g):
    """``poisson.alt_structure`` one moment sum and one 2x2 block at a
    time: the loop the batch builder replaced, kept as its bit-for-bit
    oracle."""
    n = spec.n
    rhos = np.array(spec.table.rho)
    w = np.array(spec.omegas)
    ap, am = g.alpha_plus, g.alpha_minus
    sums = {}
    for e in range(-1, 4 * n - 1):
        moments = rhos * w ** e
        sums[e] = (float(moments @ ap), float(moments @ am))
    omega = np.zeros((spec.jet_dim, spec.jet_dim))
    blocks = block_view(omega)
    for s in range(2 * n + 1):
        for m in range(2 * n + 1):
            if s == 0 and m == 0:
                continue
            plus, minus = sums[s + m - 2]
            if (s + m) % 2 == 1:
                coef = (-1.0) ** ((s - m + 1) // 2) * plus
                blocks[s, m, 0, 0] = blocks[s, m, 1, 1] = coef
            else:
                blocks[s, m] = (-1.0) ** ((s - m) // 2) * minus * J2
    return omega


# Criteria 2, 3, 4 and 6 one draw at a time, on the loop builders: the
# bodies ``verify`` replaced with batched passes per n, kept as their
# oracles.  Each check's ``json.dumps`` must be equal.

def hamilton_closure_oracle(n_max, trials, seed) -> dict:
    worst = 0.0
    for rng, spec in verify._draws(seed, n_max, trials):
        M = companion_matrix(spec)
        scale = np.abs(M).max()
        field = loop_dirac_structure(spec) @ quadratic_form(spec, energy_observable(spec))
        worst = max(worst, np.abs(field - M).max() / scale)
        g = verify.random_gamma(rng, spec)
        field = loop_alt_structure(spec, g) @ quadratic_form(
            spec, alt_hamiltonian_observable(spec, g))
        worst = max(worst, np.abs(field - M).max() / scale)
    return verify._result("hamilton_closure", worst, 1e-9)


def dirac_recovery_oracle(n_max, trials, seed) -> dict:
    worst = 0.0
    for _, spec in verify._draws(seed, n_max, trials):
        dirac = loop_dirac_structure(spec)
        alt = loop_alt_structure(spec, dirac_equivalent_gamma(spec.n))
        worst = max(worst, np.abs(alt - dirac).max() / np.abs(dirac).max())
    return verify._result("dirac_recovery", worst, 1e-9)


def canonical_form_oracle(n_max, trials, seed) -> dict:
    worst_block = 0.0
    worst_energy = 0.0
    for rng, spec in verify._draws(seed, n_max, trials):
        n = spec.n
        J = np.kron(np.eye(2 * n + 1), J2)
        g = verify.random_gamma(rng, spec)
        T = scaled_canonical_map(spec, g)
        Om = loop_alt_structure(spec, g)
        worst_block = max(worst_block, np.abs(T @ Om @ T.T - J).max())
        Tc = canonical_map(spec)
        Omd = loop_dirac_structure(spec)
        worst_block = max(worst_block, np.abs(Tc @ Omd @ Tc.T - J).max())
        osc = oscillator_map(spec)
        states = rng.uniform(-1, 1, size=(100 // trials + 1, spec.jet_dim))
        energies = oscillator_sums(spec, energy_observable(spec), states)
        for u, energy in zip(states, energies.tolist()):
            x = (osc @ u).reshape(n, 3, 2)
            noether = sum((-1.0) ** (k + 1) * (x[k, 1, 0] * x[k, 2, 1]
                                               - x[k, 1, 1] * x[k, 2, 0]) for k in range(n))
            worst_energy = max(worst_energy, abs(energy - noether) / max(1.0, abs(noether)))
    out = verify._result("canonical_block_form", worst_block, 1e-9)
    out.update(verify._result("energy_oscillator_sum", worst_energy, 1e-10))
    return out


def degeneracy_rank_oracle(n_max, trials, seed) -> dict:
    failures = []
    for rng, spec in verify._draws(seed, n_max, 1):
        n = spec.n
        flat = GammaWeights(tuple((1.0, 1.0) for _ in range(n)))
        r = structure_rank(spec, loop_alt_structure(spec, flat))
        if r != 4 * n:
            failures.append(("degenerate", n, r))
        for _ in range(trials):
            g = verify.random_gamma(rng, spec)
            r = structure_rank(spec, loop_alt_structure(spec, g))
            if r != 4 * n + 2:
                failures.append(("nondegenerate", n, r))
    return {"degeneracy_rank": {"failures": failures, "pass": not failures}}


def jet_index(s, i):
    """Index of x_i^{(s)} in the jet vector, i in {1, 2}."""
    return 2 * s + i - 1


def _sign(k):
    """(-1)^k as an int, for any integer k."""
    return -1 if k % 2 else 1


def exact_alt_structure(omegas, gamma):
    """Omega_alt of the float inputs in exact rational arithmetic, entry by
    entry from the formula of ``poisson.alt_structure``: rows of Fractions.
    ``gamma`` is the flat (gamma_{0,1}, gamma_{0,2}, gamma_{1,1}, ...)."""
    w = [Fraction(x) for x in omegas]
    g = [Fraction(x) for x in gamma]
    n = len(w)
    rho = [Fraction(_sign(k)) / math.prod(w[j] ** 2 - w[k] ** 2 for j in range(n) if j != k)
           for k in range(n)]
    ap = [(1 / g[2 * k] + 1 / g[2 * k + 1]) / 2 for k in range(n)]
    am = [(1 / g[2 * k] - 1 / g[2 * k + 1]) / 2 for k in range(n)]
    omega = [[Fraction(0)] * (4 * n + 2) for _ in range(4 * n + 2)]
    for s in range(2 * n + 1):
        for m in range(2 * n + 1):
            if s == m == 0:
                continue
            e = s + m - 2
            if (s + m) % 2 == 1:
                c = _sign((s - m + 1) // 2) * sum(r * x ** e * a for r, x, a in zip(rho, w, ap))
                omega[2 * s][2 * m] = omega[2 * s + 1][2 * m + 1] = c
            else:
                c = _sign((s - m) // 2) * sum(r * x ** e * a for r, x, a in zip(rho, w, am))
                omega[2 * s][2 * m + 1], omega[2 * s + 1][2 * m] = c, -c
    return omega


def exact_modal_amplitudes(omegas, u):
    """The amplitudes (c, a_0, b_0, a_1, ...) x (component 1, 2) of
    ``dynamics.ModalSolution`` for the float inputs, in exact rational
    arithmetic: rows of Fractions.  Gauss-Jordan solve of the t = 0 fit
    B0 amps = d, with d[s] = (x_1^{(s)}(0), x_2^{(s)}(0)) and B0[s] the s-th
    derivative at t = 0 of the basis (1, cos(w_0 t), sin(w_0 t), ...)."""
    w = [Fraction(x) for x in omegas]
    dim = 2 * len(w) + 1
    cos_cycle, sin_cycle = (1, 0, -1, 0), (0, 1, 0, -1)
    A = []
    for s in range(dim):
        row = [Fraction(int(s == 0))]
        for x in w:
            row += [cos_cycle[s % 4] * x ** s, sin_cycle[s % 4] * x ** s]
        A.append(row + [Fraction(v) for v in u[2 * s:2 * s + 2]])
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(dim):
            if r != col and A[r][col] != 0:
                A[r] = [x - A[r][col] * y for x, y in zip(A[r], A[col])]
    return [row[dim:] for row in A]


def exact_mode_integrals(omegas, u):
    """Every J_{k,i} of the jet vector u, in the column order of
    ``canonical.conserved_values`` (J_0_1, J_0_2, J_1_1, ...), in
    exact rational arithmetic from the jet definition:
    J_{k,i} = (w_k / 2) rho_k [(D_1 + (-1)^i DD_2 / w_k)^2 + (D_2 - (-1)^i DD_1 / w_k)^2],
    with D = sum_m r_{m,k} x^{(2m+1)}, DD = sum_m r_{m,k} x^{(2m+2)}, r_{m,k}
    the coefficient of z^m in prod_{j != k} (z + w_j^2) and
    rho_k = (-1)^k / prod_{j != k} (w_j^2 - w_k^2)."""
    w = [Fraction(x) for x in omegas]
    u = [Fraction(x) for x in u]
    n = len(w)
    out = []
    for k in range(n):
        r = [Fraction(1)]               # coefficients of prod_{j != k} (z + w_j^2), low to high
        for j in range(n):
            if j != k:
                r = [w[j] ** 2 * c + (r[m - 1] if m else 0) for m, c in enumerate(r + [0])]
        rho = Fraction(_sign(k)) / math.prod(w[j] ** 2 - w[k] ** 2 for j in range(n) if j != k)
        D = [sum(r[m] * u[jet_index(2 * m + 1, i)] for m in range(n)) for i in (1, 2)]
        DD = [sum(r[m] * u[jet_index(2 * m + 2, i)] for m in range(n)) for i in (1, 2)]
        for i in (1, 2):
            out.append(w[k] / 2 * rho * ((D[0] + _sign(i) * DD[1] / w[k]) ** 2
                                         + (D[1] - _sign(i) * DD[0] / w[k]) ** 2))
    return out


def exact_hamiltonians(J, gamma=None):
    """(H, Hcal) from exact mode integrals J (``exact_mode_integrals``):
    H = (1/2) sum_k (-1)^k (J_{k,1} - J_{k,2}) and, given the flat weights
    gamma, Hcal = (1/2) sum gamma_{k,i} J_{k,i} (None without them)."""
    H = sum(_sign(j // 2 + j % 2) * x for j, x in enumerate(J)) / 2
    if gamma is None:
        return H, None
    return H, sum(Fraction(g) * x for g, x in zip(gamma, J)) / 2


def exact_null_vector(omega):
    """N_1 of ``deformation.invariant_directions`` in exact arithmetic: the
    vector annihilated by the lower 4n rows of ``omega`` (Fractions) whose
    position part is (1, 0), by Gauss-Jordan elimination on the other 4n
    entries."""
    rows = len(omega) - 2
    # augmented system C[:, 2:] x = -C[:, 0]
    A = [row[2:] + [-row[0]] for row in omega[:rows]]
    for col in range(rows):
        pivot = next(r for r in range(col, rows) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(rows):
            if r != col and A[r][col] != 0:
                A[r] = [x - A[r][col] * y for x, y in zip(A[r], A[col])]
    return [Fraction(1), Fraction(0)] + [A[r][-1] for r in range(rows)]


def exact_invariant_plane(omega, digits=50):
    """(v1, v2, (a, b)) for the exact ``omega`` (Fractions), as Decimals to
    ``digits`` significant digits: v1 = N_1 / |N_1|, v2 its rotation and
    (a, b) the top entries of Omega_alt v1, the product taken here, where
    ``deformation.invariant_directions`` returns b = t / |N_1|, read off
    its closed form, and has a = 0."""
    N1 = exact_null_vector(omega)
    top = [sum(o * x for o, x in zip(row, N1)) for row in omega[-2:]]
    with localcontext() as ctx:
        ctx.prec = digits
        sq = sum(x * x for x in N1)
        norm = (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()
        v1 = [Decimal(x.numerator) / Decimal(x.denominator) / norm for x in N1]
        force = tuple(Decimal(x.numerator) / Decimal(x.denominator) / norm for x in top)
    v2 = [None] * len(v1)
    v2[0::2], v2[1::2] = [-x for x in v1[1::2]], v1[0::2]
    return v1, v2, force


def exact_deformed_rk4(omegas, gamma, terms, u0, times, digits=50):
    """Classical RK4 of the exact-model deformed field over a time grid, in
    ``digits``-digit Decimal arithmetic: rows of Decimals, row 0 = u0.

    The field is the companion form of Omega_alt (A_H u + grad U): the
    lower rows copy u[2:], the top rows are -sum_k sigma_k x_i^(2k+1) plus
    (a g1 - b g2, b g1 + a g2), with sigma_k the coefficients of
    prod_k (z + w_k^2), (a, b) from ``exact_invariant_plane`` and
    (g1, g2) the gradient of sum c w1^i w2^j over ``terms`` ((i, j, c),
    empty for the linear flow) at w_a = v_a . u.  Each grid interval is
    one step, as in ``dynamics.RK4Flow``."""
    n = len(omegas)
    sigma = [Fraction(1)]             # coefficients of prod (z + w_k^2), low to high
    for w in omegas:
        w2 = Fraction(w) ** 2
        sigma = [w2 * c + (sigma[k - 1] if k else 0) for k, c in enumerate(sigma + [0])]
    with localcontext() as ctx:
        ctx.prec = digits
        sig = [Decimal(c.numerator) / Decimal(c.denominator) for c in sigma[:n]]
        if terms:
            v1, v2, (a, b) = exact_invariant_plane(exact_alt_structure(omegas, gamma), digits)
            terms = [(i, j, Decimal(c)) for i, j, c in terms]

        def field(u):
            top = [-sum(c * u[2 * (2 * k + 1) + i] for k, c in enumerate(sig)) for i in (0, 1)]
            if terms:
                w1 = sum(x * y for x, y in zip(v1, u))
                w2 = sum(x * y for x, y in zip(v2, u))
                g1 = sum(c * i * w1 ** (i - 1) * w2 ** j for i, j, c in terms if i)
                g2 = sum(c * j * w1 ** i * w2 ** (j - 1) for i, j, c in terms if j)
                top = [top[0] + a * g1 - b * g2, top[1] + b * g1 + a * g2]
            return u[2:] + top

        def axpy(x, k, y):
            return [p + x * q for p, q in zip(y, k)]

        u = [Decimal(x) for x in u0]
        out = [u]
        for t0, t1 in zip(times[:-1], times[1:]):
            dt = Decimal(t1) - Decimal(t0)
            k1 = field(u)
            k2 = field(axpy(dt / 2, k1, u))
            k3 = field(axpy(dt / 2, k2, u))
            k4 = field(axpy(dt, k3, u))
            u = [x + dt / 6 * (p + 2 * q + 2 * r + s)
                 for x, p, q, r, s in zip(u, k1, k2, k3, k4)]
            out.append(u)
    return out


@pytest.fixture
def value_bound():
    return quadratic_value_bound


@pytest.fixture
def factored_bound_check():
    return within_factored_bound


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers (CSV formatters, verify workers) forked
    during the test.  Any still a child at teardown is reaped, and killed
    first if it is running, so a failing test leaves no process behind."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with contextlib.suppress(ChildProcessError):      # reaped by the code under test
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class Hung(Exception):
    """A call that the watchdog ended."""


@pytest.fixture
def watchdog():
    """A call that does not return within 20 s raises ``Hung`` instead of
    hanging the run."""
    def expire(signum, frame):
        raise Hung("no return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """No child of this process is running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
