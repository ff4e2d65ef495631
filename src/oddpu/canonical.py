"""Oscillator and canonical coordinates, Hamiltonians, and mode integrals.

The oscillator coordinates split the (2n+1)-order dynamics into n
single-frequency third-order oscillators; on top of them sit the
canonical coordinates (q, p, z) that put the Dirac structure into block
form, and their gamma-scaled generalization for the alternative family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModalSolution, PhaseState, companion_matrix, jet_index
from .poisson import (DegeneracyError, GammaWeights, QuadraticObservable,
                      degeneracy_scalar, gamma_is_degenerate)
from .spectrum import FrequencySpectrum


@dataclass(frozen=True)
class LinearMap:
    """Linear map from jet coordinates to labeled target coordinates.

    The matrix is a read-only copy, so a map can be shared: the
    per-spectrum maps are built once and handed to every caller.
    """

    matrix: np.ndarray
    labels: tuple

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape[0] != len(self.labels):
            raise ValueError("one label per output row required")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, u) -> np.ndarray:
        return self.matrix @ np.asarray(u, dtype=float)

    def labeled(self, u) -> dict:
        return dict(zip(self.labels, self.apply(u)))

    def row(self, label: str) -> np.ndarray:
        return self.matrix[self.labels.index(label)]


def oscillator_map(spec: FrequencySpectrum) -> LinearMap:
    """Map u -> (x_{k,i}, dx_{k,i}, ddx_{k,i}), k = 0..n-1, i = 1,2.

    x_{k,i} = sqrt(rho_k) sum_m reduced_sigma(m, k) x_i^{(2m)}; the dx/ddx
    rows shift the derivative stack by one and two orders.  Built once
    per spectrum instance.
    """
    return spec.memo("oscillator_map", lambda: _oscillator_map(spec))


def _oscillator_map(spec: FrequencySpectrum) -> LinearMap:
    n = spec.n
    table = spec.table
    rows, labels = [], []
    for k in range(n):
        rk = np.sqrt(table.rho[k])
        coeffs = [rk * table.reduced[k][m] for m in range(n)]
        for order, tag in ((0, "x"), (1, "dx"), (2, "ddx")):
            for i in (1, 2):
                row = np.zeros(spec.jet_dim)
                for m in range(n):
                    row[jet_index(2 * m + order, i)] = coeffs[m]
                rows.append(row)
                labels.append("%s[%d][%d]" % (tag, k, i))
    return LinearMap(rows, tuple(labels))


def canonical_map(spec: FrequencySpectrum) -> LinearMap:
    """Square map u -> (q_{k,i}, p_{k,i}, z_i) block-diagonalizing the
    Dirac structure into symplectic pairs plus the z-sector.

    q_{k,i} = sqrt(1/(2 w_k)) (dx_{k,1} + (-1)^i ddx_{k,2} / w_k)
    p_{k,i} = (-1)^k sqrt(w_k/2) (dx_{k,2} + (-1)^{i+1} ddx_{k,1} / w_k)
    z_i     = (-1)^i / (w_0...w_{n-1}) sum_k sigma_k x_i^{(2k)}

    Row order: (q[k][1], p[k][1], q[k][2], p[k][2]) per mode, then z[1], z[2].
    Built once per spectrum instance.
    """
    return spec.memo("canonical_map", lambda: _canonical_map(spec))


def _canonical_map(spec: FrequencySpectrum) -> LinearMap:
    n = spec.n
    sigma = spec.table.sigma
    osc = oscillator_map(spec)
    rows, labels = [], []
    for k in range(n):
        w = spec.omegas[k]
        dx1, dx2 = osc.row("dx[%d][1]" % k), osc.row("dx[%d][2]" % k)
        ddx1, ddx2 = osc.row("ddx[%d][1]" % k), osc.row("ddx[%d][2]" % k)
        for i in (1, 2):
            q = np.sqrt(1.0 / (2 * w)) * (dx1 + (-1.0) ** i / w * ddx2)
            p = (-1.0) ** k * np.sqrt(w / 2.0) * (dx2 + (-1.0) ** (i + 1) / w * ddx1)
            rows += [q, p]
            labels += ["q[%d][%d]" % (k, i), "p[%d][%d]" % (k, i)]
    wprod = float(np.prod(spec.omegas))
    for i in (1, 2):
        z = np.zeros(spec.jet_dim)
        for k in range(n + 1):
            z[jet_index(2 * k, i)] = (-1.0) ** i / wprod * sigma[k]
        rows.append(z)
        labels.append("z[%d]" % i)
    return LinearMap(rows, tuple(labels))


def scaled_canonical_map(spec: FrequencySpectrum, g: GammaWeights) -> LinearMap:
    """Gamma-scaled canonical coordinates for the alternative structure.

    Requires a nondegenerate gamma set: the pi_i rows carry 1/sqrt(|s|).
    """
    if gamma_is_degenerate(spec, g):
        raise DegeneracyError("degenerate gamma weights: scalar s vanishes")
    s = degeneracy_scalar(spec, g)
    base = canonical_map(spec)
    wprod = float(np.prod(spec.omegas))
    rows, labels = [], []
    for k in range(spec.n):
        for i in (1, 2):
            gam = g.gamma[k][i - 1]
            root = np.sqrt(abs(gam))
            rows.append(root * base.row("q[%d][%d]" % (k, i)))
            labels.append("q[%d][%d]" % (k, i))
            sign = (-1.0) ** (k + i + 1) * np.sign(gam)
            rows.append(sign * root * base.row("p[%d][%d]" % (k, i)))
            labels.append("p[%d][%d]" % (k, i))
    scale = 1.0 / (wprod * np.sqrt(abs(s)))
    rows.append(scale * base.row("z[1]"))
    labels.append("pi[1]")
    rows.append(np.sign(s) * scale * base.row("z[2]"))
    labels.append("pi[2]")
    return LinearMap(rows, tuple(labels))


def _weighted_oscillator_sum(spec: FrequencySpectrum, weights) -> QuadraticObservable:
    """(1/2) sum_{k,i} weights[k][i-1] (p_{k,i}^2 + w_k^2 q_{k,i}^2) as a
    quadratic form in jet coordinates."""
    T = canonical_map(spec)
    D = np.zeros(spec.jet_dim)
    for k in range(spec.n):
        w2 = spec.omega_sq[k]
        for i in (1, 2):
            D[T.labels.index("q[%d][%d]" % (k, i))] = weights[k][i - 1] * w2
            D[T.labels.index("p[%d][%d]" % (k, i))] = weights[k][i - 1]
    A = T.matrix.T @ np.diag(D) @ T.matrix
    return QuadraticObservable(0.5 * (A + A.T))


def energy_observable(spec: FrequencySpectrum) -> QuadraticObservable:
    """The Noether energy sum_k (-1)^{k+1} eps_{ij} dx_{k,i} ddx_{k,j}.

    Built through the oscillator map; equal, pointwise, to the alternating
    sum of mode oscillators in canonical coordinates.
    """
    osc = oscillator_map(spec)
    dim = spec.jet_dim
    A = np.zeros((dim, dim))
    for k in range(spec.n):
        dx1, dx2 = osc.row("dx[%d][1]" % k), osc.row("dx[%d][2]" % k)
        ddx1, ddx2 = osc.row("ddx[%d][1]" % k), osc.row("ddx[%d][2]" % k)
        # eps_{ij} dx_i ddx_j = dx_1 ddx_2 - dx_2 ddx_1
        sgn = (-1.0) ** (k + 1)
        A += sgn * (np.outer(dx1, ddx2) + np.outer(ddx2, dx1)
                    - np.outer(dx2, ddx1) - np.outer(ddx1, dx2))
    return QuadraticObservable(A)


def alt_hamiltonian_observable(spec: FrequencySpectrum, g: GammaWeights) -> QuadraticObservable:
    """The gamma-weighted Hamiltonian
    (1/2) sum_k [gamma_{k,1} (p_{k,1}^2 + w_k^2 q_{k,1}^2)
                 + gamma_{k,2} (p_{k,2}^2 + w_k^2 q_{k,2}^2)]."""
    if g.n != spec.n:
        raise ValueError("gamma weights sized for n=%d, spectrum has n=%d" % (g.n, spec.n))
    return _weighted_oscillator_sum(spec, g.gamma)


def mode_integrals(spec: FrequencySpectrum):
    """The 2n positive-semidefinite conserved integrals
    J_{k,i} = p_{k,i}^2 + w_k^2 q_{k,i}^2, as ((k, i), observable) pairs."""
    T = canonical_map(spec)
    out = []
    for k in range(spec.n):
        w2 = spec.omega_sq[k]
        for i in (1, 2):
            q = T.row("q[%d][%d]" % (k, i))
            p = T.row("p[%d][%d]" % (k, i))
            A = 2.0 * (np.outer(p, p) + w2 * np.outer(q, q))
            out.append(((k, i), QuadraticObservable(A)))
    return out


@dataclass(frozen=True)
class UniquenessReport:
    conserved_residual: float
    structure_residual: float


def quadratic_ansatz_observable(omega0: float, b: float, c: float, f: float) -> QuadraticObservable:
    """W = b (ddx_i + w0^2 x_i)^2 + c (dx_i^2 - 2 x_i ddx_i - w0^2 x_i^2)
    + f eps_{ij} dx_i ddx_j, summed over i, on the n = 1 jet space."""
    dim = 6
    A = np.zeros((dim, dim))
    w2 = omega0 * omega0

    def e(s, i):
        v = np.zeros(dim)
        v[jet_index(s, i)] = 1.0
        return v

    def add_product(coef, va, vb):
        A[:] += coef * (np.outer(va, vb) + np.outer(vb, va))

    for i in (1, 2):
        trans = e(2, i) + w2 * e(0, i)     # conserved space-translation charge
        add_product(b, trans, trans)
        add_product(c, e(1, i), e(1, i))
        add_product(-2 * c, e(0, i), e(2, i))
        add_product(-c * w2, e(0, i), e(0, i))
    add_product(f, e(1, 1), e(2, 2))
    add_product(-f, e(1, 2), e(2, 1))
    # value convention is u.A.u/2; the display above is a plain quadratic
    return QuadraticObservable(A)


def _antisymmetric_basis():
    """Rotation-covariant antisymmetric 6x6 patterns for the n = 1 bracket
    ansatz {x_i^{(s)}, x_j^{(m)}} = a_{sm} delta_{ij} + d_{sm} eps_{ij}.

    Bracket antisymmetry forces a_{sm} = -a_{ms} (3 unknowns) and
    d_{sm} = d_{ms} (6 unknowns).  The d_{00} pattern is excluded:
    positions commute in both structure families (the (0,0) block of the
    gamma family vanishes by definition), and without that constraint a
    structure would exist for every coefficient choice, emptying the
    uniqueness statement.  8 basis matrices in all.
    """
    mats = []
    for s in range(3):
        for m in range(s + 1, 3):  # a_{sm}, s < m
            E = np.zeros((6, 6))
            for i in (1, 2):
                E[jet_index(s, i), jet_index(m, i)] = 1.0
                E[jet_index(m, i), jet_index(s, i)] = -1.0
            mats.append(E)
    for s in range(3):
        for m in range(s, 3):      # d_{sm}, s <= m, (0,0) excluded
            if s == 0 and m == 0:
                continue
            E = np.zeros((6, 6))
            pairs = [(s, m)] if s == m else [(s, m), (m, s)]
            for ss, mm in pairs:
                E[jet_index(ss, 1), jet_index(mm, 2)] = 1.0
                E[jet_index(ss, 2), jet_index(mm, 1)] = -1.0
            mats.append(E)
    return mats


def uniqueness_check(omega0: float, b: float, c: float, f: float) -> UniquenessReport:
    """Third-order uniqueness analysis for a candidate Hamiltonian W.

    ``conserved_residual``: worst drift of W along exact trajectories,
    normalized by 1 + |W(0)| (always near zero: W is a combination of
    conserved charges).

    ``structure_residual``: least-squares residual, relative to the
    right-hand side, of solving Omega A_W = M for a rotation-covariant
    constant antisymmetric Omega.  Small exactly when c = b omega0^2.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    spec = FrequencySpectrum((omega0,))
    W = quadratic_ansatz_observable(omega0, b, c, f)

    rng = np.random.default_rng(1234)
    drift = 0.0
    grid = np.linspace(0.0, 10.0, 201)
    for _ in range(5):
        state = PhaseState(rng.uniform(-1, 1, size=6))
        sol = ModalSolution(spec, state)
        w0 = W.value(state.u)
        vals = W.value(sol.states(grid))
        drift = max(drift, float(np.abs(vals - w0).max()) / (1.0 + abs(w0)))

    M = companion_matrix(spec)
    basis = _antisymmetric_basis()
    K = np.column_stack([(E @ W.A).ravel() for E in basis])
    rhs = M.ravel()
    coef, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    resid = float(np.linalg.norm(K @ coef - rhs) / np.linalg.norm(rhs))
    return UniquenessReport(float(drift), resid)
