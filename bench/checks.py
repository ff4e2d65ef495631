"""Correctness checks on the CLI's outputs, computed apart from ``oddpu``.

Nothing here imports ``oddpu``.  Each ``check_*`` function returns a list
of problems; an empty list means the output passed.

Tolerances follow from float64 conditioning: ``EPS`` times the condition
number of the modal decomposition (``modal_condition``), times the growth
of rounding error with time, times the size of the quantity compared.
``TOL_FACTOR`` is the slack on those first-order error estimates.  The
matrix-exponential reference errs by about EPS * |C t| (scaling and
squaring), so states are compared with that growth; the program's own
invariants grow rounding error only through the phases w_k t.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm

EPS = float(np.finfo(float).eps)
TOL_FACTOR = 64.0

#: The names of the checks ``oddpu verify`` reports.
VERIFY_CHECKS = (
    "identities", "hamilton_closure", "dirac_recovery", "canonical_block_form",
    "energy_oscillator_sum", "conservation", "degeneracy_rank",
    "uniqueness_structure_exists", "uniqueness_conserved",
    "uniqueness_structure_fails", "deformation_rank_null",
    "deformation_closed_form_n1", "deformation_rk4_order", "eom_fidelity",
)

#: Minimum convergence order of the deformed flow's energy drift.
RK4_MIN_ORDER = 3.8


def companion(omegas) -> np.ndarray:
    """Companion matrix of one component's derivative stack
    (x, x', ..., x^(2n)) for the EOM  D prod_k (D^2 + w_k^2) x = 0.

    The coefficients come from ``numpy.poly`` of the roots -w_k^2, so the
    matrix is built without the program's symmetric-polynomial code.
    """
    w = np.asarray(omegas, dtype=float)
    n = w.size
    coeffs = np.poly(-w * w)              # coeffs[j] multiplies X^(n-j)
    C = np.zeros((2 * n + 1, 2 * n + 1))
    for s in range(2 * n):
        C[s, s + 1] = 1.0
    for k in range(n):
        C[2 * n, 2 * k + 1] = -coeffs[n - k]
    return C


def modal_condition(omegas) -> float:
    """Condition number of the eigenvector matrix of ``companion``: how much
    float64 rounding is amplified between jet and modal coordinates."""
    _, V = np.linalg.eig(companion(omegas))
    return float(np.linalg.cond(V))


def state_header(n: int) -> list:
    cols = ["t", "x1", "x2"]
    for s in range(1, 2 * n + 1):
        cols += ["d%d_x1" % s, "d%d_x2" % s]
    return cols


def simulate_header(n: int, with_gamma: bool) -> list:
    cols = state_header(n) + ["H"] + (["Hcal"] if with_gamma else [])
    return cols + ["J_%d_%d" % (k, i) for k in range(n) for i in (1, 2)]


def grid_rows(t_end: float, dt: float) -> int:
    """Row count of a grid 0, dt, ..., t_end; the inputs keep t_end/dt integral."""
    steps = t_end / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError("benchmark inputs must keep t_end/dt integral")
    return int(round(steps)) + 1


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def exact_states(omegas, state, times) -> np.ndarray:
    """Jet vectors at ``times`` from scipy's matrix exponential of the
    companion matrix; one row per time, jet layout u[2s + i - 1]."""
    C = companion(omegas)
    u0 = np.asarray(state, dtype=float)
    prop = expm(C[None, :, :] * np.asarray(times, dtype=float)[:, None, None])
    out = np.empty((len(times), u0.size))
    out[:, 0::2] = prop @ u0[0::2]
    out[:, 1::2] = prop @ u0[1::2]
    return out


def simulate_reference(inp: dict) -> dict:
    """Everything ``check_simulate`` needs that does not depend on the output."""
    omegas = inp["omegas"]
    rows = grid_rows(inp["t_end"], inp["dt"])
    times = np.arange(rows) * inp["dt"]
    return {"header": simulate_header(len(omegas), inp.get("gamma") is not None),
            "times": times, "states": exact_states(omegas, inp["state"], times),
            "kappa": modal_condition(omegas),
            "norm_c": float(np.linalg.norm(companion(omegas), 2))}


def _time_column(t, times) -> list:
    if t.shape != times.shape:
        return ["%d rows, expected %d" % (t.size, times.size)]
    if np.any(np.abs(t - times) > 2 * EPS * np.maximum(times, 1.0)):
        return ["time column departs from k*dt"]
    return []


def check_simulate(path, inp: dict, ref: dict) -> list:
    """``simulate`` output against the matrix exponential and the paper's
    identities  H = 1/2 sum_k (-1)^k (J_k1 - J_k2),
    Hcal = 1/2 sum gamma_ki J_ki;  H, Hcal and J constant, J >= 0."""
    header, data = read_csv(path)
    if header != ref["header"]:
        return ["header %s, expected %s" % (header, ref["header"])]
    problems = _time_column(data[:, 0], ref["times"])
    if problems:
        return problems
    w = np.asarray(inp["omegas"], dtype=float)
    n = w.size
    dim = 4 * n + 2
    kappa = ref["kappa"]
    times = ref["times"]

    states = data[:, 1:1 + dim]
    exact = ref["states"]
    scale = np.maximum(np.abs(exact).max(axis=1), 1.0)
    err = np.abs(states - exact).max(axis=1)
    tol = TOL_FACTOR * EPS * kappa * (1.0 + ref["norm_c"] * times) * scale
    bad = np.flatnonzero(err > tol)
    if bad.size:
        k = bad[0]
        problems.append("state at t=%r off the matrix exponential by %.3g (tol %.3g)"
                        % (float(data[k, 0]), err[k], tol[k]))

    cols = {name: data[:, j] for j, name in enumerate(header)}
    J = np.column_stack([cols["J_%d_%d" % (k, i)] for k in range(n) for i in (1, 2)])
    energy = np.abs(J).sum(axis=1)                 # sum of mode energies
    # each column is a quadratic form of the same row: rounding of the
    # coordinate change (kappa) and of a dim-term sum, relative to the
    # total mode energy
    form_tol = TOL_FACTOR * dim * EPS * kappa * np.maximum(energy, EPS)
    signs = np.array([(-1.0) ** k * s for k in range(n) for s in (1.0, -1.0)])
    H = cols["H"]
    if np.any(np.abs(H - 0.5 * J @ signs) > form_tol):
        problems.append("H != 1/2 sum_k (-1)^k (J_k1 - J_k2)")
    if inp.get("gamma") is not None:
        gamma = np.asarray(inp["gamma"], dtype=float)
        if np.any(np.abs(cols["Hcal"] - 0.5 * J @ gamma)
                  > np.abs(gamma).max() * form_tol):
            problems.append("Hcal != 1/2 sum gamma_ki J_ki")
    if np.any(J < -form_tol[:, None]):
        problems.append("a mode integral J is negative")

    drift_tol = (TOL_FACTOR * EPS * kappa * (1.0 + w.max() * times[-1])
                 * max(energy[0], EPS))
    invariants = [("H", H, 1.0)]
    if inp.get("gamma") is not None:
        invariants.append(("Hcal", cols["Hcal"], float(np.abs(inp["gamma"]).max())))
    invariants += [("J", J[:, j], 1.0) for j in range(2 * n)]
    for name, col, weight in invariants:
        if np.abs(col - col[0]).max() > weight * drift_tol:
            problems.append("%s drifts by %.3g (tol %.3g)"
                            % (name, np.abs(col - col[0]).max(), weight * drift_tol))
    return problems


def read_deform(path, inp: dict):
    """Header-checked deform table: (problems, data)."""
    n = len(inp["omegas"])
    expected = state_header(n) + ["Hcal", "U", "Htot"]
    header, data = read_csv(path)
    if header != expected:
        return ["header %s, expected %s" % (header, expected)], None
    times = np.arange(grid_rows(inp["t_end"], inp["dt"])) * inp["dt"]
    return _time_column(data[:, 0], times), data


def energy_drift(data) -> float:
    htot = data[:, -1]
    return float(np.abs(htot - htot[0]).max())


def check_deform(path, inp: dict, half_step_drift: float) -> list:
    """``deform`` output: the jet chain x_i^(s)' = x_i^(s+1) to O(dt^2),
    Htot = Hcal + U, Htot drift within the RK4 bound, and an energy-drift
    order >= RK4_MIN_ORDER against the same input rerun at dt/2
    (``half_step_drift``)."""
    problems, data = read_deform(path, inp)
    if problems:
        return problems
    n = len(inp["omegas"])
    dim = 4 * n + 2
    h = float(inp["dt"])
    T = float(inp["t_end"])
    u = data[:, 1:1 + dim]
    if np.any(u[0] != np.asarray(inp["state"], dtype=float)):
        problems.append("first row is not the initial state")

    for s in range(2 * n):
        for i in (0, 1):
            x = u[:, 2 * s + i]
            dx = u[:, 2 * (s + 1) + i]
            central = (x[2:] - x[:-2]) / (2 * h)
            # x^(s+3) from the second difference of x^(s+1); the central
            # difference errs by h^2/6 x^(s+3) plus rounding 2 eps |x| / h
            third = np.abs(dx[2:] - 2 * dx[1:-1] + dx[:-2]) / (h * h)
            tol = (2.0 * h * h / 6.0 * third.max()
                   + TOL_FACTOR * EPS * np.abs(x).max() / h)
            err = np.abs(central - dx[1:-1]).max()
            if err > tol:
                problems.append("jet chain d/dt x%d^(%d) != x%d^(%d): %.3g > %.3g"
                                % (i + 1, s, i + 1, s + 1, err, tol))

    hcal, U, htot = data[:, -3], data[:, -2], data[:, -1]
    if np.any(np.abs(htot - (hcal + U)) > 4 * EPS * (np.abs(hcal) + np.abs(U))):
        problems.append("Htot != Hcal + U")

    # Global RK4 bound on an invariant: T * lam * (h lam)^4 * scale, with
    # lam the largest per-step growth rate seen and scale the largest
    # energy term.
    norms = np.maximum(np.linalg.norm(u, axis=1), EPS)
    lam = max(float(np.max(np.linalg.norm(np.diff(u, axis=0), axis=1) / (h * norms[:-1]))),
              float(np.max(inp["omegas"])))
    scale = float(np.max(np.abs(hcal) + np.abs(U)))
    bound = T * lam * (h * lam) ** 4 * scale
    drift = energy_drift(data)
    if not drift <= bound:
        problems.append("Htot drift %.3g above the RK4 bound %.3g" % (drift, bound))
    if half_step_drift > 0:
        order = np.log2(drift / half_step_drift) if drift > 0 else -np.inf
        if not order >= RK4_MIN_ORDER:
            problems.append("energy-drift order %.3g < %.1g" % (order, RK4_MIN_ORDER))
    else:
        problems.append("no energy drift at dt/2 to measure an order against")
    return problems


def check_verify(path) -> list:
    """``verify`` JSON: all 14 checks present and passing, each residual
    finite and within its stated tolerance or threshold."""
    with open(path) as fh:
        summary = json.load(fh)
    problems = []
    if (summary.get("seed"), summary.get("n_max"), summary.get("trials")) != (42, 6, 20):
        problems.append("verify did not run at its defaults")
    checks = summary.get("checks", {})
    if sorted(checks) != sorted(VERIFY_CHECKS):
        problems.append("checks %s, expected %s" % (sorted(checks), sorted(VERIFY_CHECKS)))
    for name in VERIFY_CHECKS:
        c = checks.get(name)
        if c is None:
            continue
        if c.get("pass") is not True:
            problems.append("%s does not pass" % name)
        if "worst_residual" in c:
            r, tol = c["worst_residual"], c["tolerance"]
            if not (np.isfinite(r) and 0 <= r <= tol):
                problems.append("%s residual %r outside [0, %r]" % (name, r, tol))
        if "best_residual" in c and not (np.isfinite(c["best_residual"])
                                         and c["best_residual"] >= c["threshold"]):
            problems.append("%s residual %r below %r"
                            % (name, c["best_residual"], c["threshold"]))
        if "failures" in c and c["failures"]:
            problems.append("%s lists failures %s" % (name, c["failures"]))
        if "orders" in c and not all(np.isfinite(o) and o >= RK4_MIN_ORDER
                                     for o in c["orders"]):
            problems.append("%s orders %s below %r" % (name, c["orders"], RK4_MIN_ORDER))
    if summary.get("pass") is not True:
        problems.append("summary does not pass")
    return problems
