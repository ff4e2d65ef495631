"""Oscillator and canonical coordinates, Hamiltonians, and mode integrals.

The oscillator coordinates split the (2n+1)-order dynamics into n
single-frequency third-order oscillators; on top of them sit the
canonical coordinates (q, p, z) that put the Dirac structure into block
form, and their gamma-scaled generalization for the alternative family.
Each map is a plain read-only float64 array whose row layout is stated
in its builder's docstring; the oscillator and canonical maps are built
once per spectrum instance and shared by every caller.

Every conserved quadratic is diagonal in (q, p): the Noether energy, the
gamma-weighted Hamiltonian and each mode integral J_{k,i} is a
``poisson.FactoredObservable``, (1/2) sum_j D_j (T u)_j^2 over the shared
canonical map T, differing only in the weight vector D.  Its value is a
weighted sum of p^2 + w^2 q^2; the dense jet-space matrix
A = T^T diag(D) T is built only when a bracket or vector field asks.
"""

from __future__ import annotations

import numpy as np

from .dynamics import J2, ModalSolution, PhaseState, block_view, companion_matrix
from .poisson import (DegeneracyError, FactoredObservable, GammaWeights,
                      QuadraticObservable, _require_sizes_match, degeneracy_scalar,
                      dirac_equivalent_gamma, gamma_is_degenerate)
from .spectrum import FrequencySpectrum


def oscillator_map(spec: FrequencySpectrum) -> np.ndarray:
    """Read-only map u -> (x_{k,i}, dx_{k,i}, ddx_{k,i}), k = 0..n-1, i = 1,2.

    x_{k,i} = sqrt(rho_k) sum_m reduced_sigma(m, k) x_i^{(2m)}; the dx/ddx
    rows shift the derivative stack by one and two orders.  Row
    6k + 2 order + (i - 1) holds the order-th derivative of x_{k,i}, so
    ``(osc @ u).reshape(n, 3, 2)[k, order, i - 1]`` reads it off.  Built
    once per spectrum instance.
    """
    return spec.memo("oscillator_map", lambda: _oscillator_map(spec))


def _oscillator_map(spec: FrequencySpectrum) -> np.ndarray:
    n = spec.n
    table = spec.table
    coeffs = np.sqrt(np.array(table.rho))[:, None] * np.array(table.reduced)
    # axes: mode k, derivative order, component i; then the jet columns
    # as (derivative s, component), with x_i^{(2m + order)} at s = 2m + order
    osc = np.zeros((n, 3, 2, 2 * n + 1, 2))
    for order in range(3):
        for i in range(2):
            osc[:, order, i, order:order + 2 * n:2, i] = coeffs
    return _read_only(osc.reshape(6 * n, spec.jet_dim))


def canonical_map(spec: FrequencySpectrum) -> np.ndarray:
    """Square read-only map u -> (q_{k,i}, p_{k,i}, z_i) block-diagonalizing
    the Dirac structure into symplectic pairs plus the z-sector.

    q_{k,i} = sqrt(1/(2 w_k)) (dx_{k,1} + (-1)^i ddx_{k,2} / w_k)
    p_{k,i} = (-1)^k sqrt(w_k/2) (dx_{k,2} + (-1)^{i+1} ddx_{k,1} / w_k)
    z_i     = (-1)^i / (w_0...w_{n-1}) sum_k sigma_k x_i^{(2k)}

    Row order: (q[k][1], p[k][1], q[k][2], p[k][2]) per mode, then z[1], z[2].
    Built once per spectrum instance.
    """
    return spec.memo("canonical_map", lambda: _canonical_map(spec))


def _canonical_map(spec: FrequencySpectrum) -> np.ndarray:
    n = spec.n
    osc = oscillator_map(spec).reshape(n, 3, 2, spec.jet_dim)
    dx1, dx2, ddx1, ddx2 = osc[:, 1, 0], osc[:, 1, 1], osc[:, 2, 0], osc[:, 2, 1]
    w = np.array(spec.omegas)[:, None]
    sign_k = (-1.0) ** np.arange(n)[:, None]
    T = np.zeros((spec.jet_dim, spec.jet_dim))
    qp = T[:4 * n].reshape(n, 2, 2, spec.jet_dim)     # (k, i - 1, q|p)
    for i in (1, 2):
        qp[:, i - 1, 0] = np.sqrt(1.0 / (2 * w)) * (dx1 + (-1.0) ** i / w * ddx2)
        qp[:, i - 1, 1] = sign_k * np.sqrt(w / 2.0) * (dx2 + (-1.0) ** (i + 1) / w * ddx1)
    wprod = _omega_product(spec)
    sigma = np.array(spec.table.sigma)
    for i in (1, 2):
        T[4 * n + i - 1, i - 1::4] = (-1.0) ** i / wprod * sigma   # at x_i^{(2k)}
    return _read_only(T)


def _omega_product(spec: FrequencySpectrum) -> float:
    """w_0 w_1 ... w_{n-1}, the product that scales the z rows."""
    return float(np.prod(spec.omegas))


def _pair_weights(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """kappa_{k,i} = (-1)^{k+i+1} gamma_{k,i} = 1 / c_{k,i}, shape (n, 2)."""
    k, i = np.arange(spec.n)[:, None], np.array([1, 2])
    return (-1.0) ** (k + i + 1) * np.array(g.gamma)


def scaled_canonical_map(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """Gamma-scaled canonical coordinates for the alternative structure: the
    rows of ``canonical_map`` times sqrt|gamma_{k,i}| at q_{k,i},
    (-1)^{k+i+1} sign(gamma_{k,i}) sqrt|gamma_{k,i}| at p_{k,i}, and
    1/(w_0...w_{n-1} sqrt|s|), times sign(s) for the second, at the two
    z rows (now pi_1, pi_2).  Read-only.

    Requires a nondegenerate gamma set: the pi_i rows carry 1/sqrt(|s|).
    """
    if gamma_is_degenerate(spec, g):
        raise DegeneracyError("degenerate gamma weights: scalar s vanishes")
    s = degeneracy_scalar(spec, g)
    kappa = _pair_weights(spec, g)                      # (k, i - 1)
    root = np.sqrt(np.abs(kappa))
    scale = 1.0 / (_omega_product(spec) * np.sqrt(abs(s)))
    d = np.concatenate((np.stack((root, np.sign(kappa) * root), axis=-1).ravel(),
                        [scale, np.sign(s) * scale]))
    return _read_only(d[:, None] * canonical_map(spec))


def structure_rank(spec: FrequencySpectrum, omega: np.ndarray) -> int:
    """Rank of Omega read off its canonical block form B = T Omega T^T
    (T = ``canonical_map``, invertible): the numerical rank of B at
    tolerance 1e-8 * max(max |B|, 1).  B's z-block s (w_0...w_{n-1})^2 J2
    vanishes exactly when the structure degenerates."""
    T = canonical_map(spec)
    B = T @ omega @ T.T
    scale = max(np.abs(B).max(), 1.0)
    return int(np.linalg.matrix_rank(B, tol=1e-8 * scale))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _oscillator_weights(spec: FrequencySpectrum, weights) -> np.ndarray:
    """The weights D of the oscillator sum (1/2) sum_{k,i} weights[k][i-1]
    (p_{k,i}^2 + w_k^2 q_{k,i}^2) over the canonical map: weights * w_k^2
    at q_{k,i}, weights at p_{k,i}, and 0 at z_1, z_2.  ``weights`` is
    (n, 2), or a stack (..., n, 2) that gives one D per slice, (..., 4n+2)."""
    g = np.array(weights, dtype=float)
    stack = g.shape[:-2]
    D = np.zeros(stack + (spec.jet_dim,))
    D[..., 0:4 * spec.n:2] = (g * np.array(spec.omega_sq)[:, None]).reshape(stack + (-1,))
    D[..., 1:4 * spec.n:2] = g.reshape(stack + (-1,))
    return D


def energy_observable(spec: FrequencySpectrum) -> FactoredObservable:
    """The Noether energy sum_k (-1)^{k+1} eps_{ij} dx_{k,i} ddx_{k,j}: the
    alternating sum of mode oscillators, ``alt_hamiltonian_observable`` at
    the weights ``dirac_equivalent_gamma(n)``."""
    return FactoredObservable(canonical_map(spec),
                              _oscillator_weights(spec, dirac_equivalent_gamma(spec.n).gamma))


def alt_hamiltonian_observable(spec: FrequencySpectrum, g: GammaWeights) -> FactoredObservable:
    """The gamma-weighted Hamiltonian
    (1/2) sum_k [gamma_{k,1} (p_{k,1}^2 + w_k^2 q_{k,1}^2)
                 + gamma_{k,2} (p_{k,2}^2 + w_k^2 q_{k,2}^2)]."""
    _require_sizes_match(spec, g)
    return FactoredObservable(canonical_map(spec), _oscillator_weights(spec, g.gamma))


def mode_integrals(spec: FrequencySpectrum):
    """The 2n positive-semidefinite conserved integrals
    J_{k,i} = p_{k,i}^2 + w_k^2 q_{k,i}^2, as ((k, i), observable) pairs:
    the oscillator sum with weight 2 on mode (k, i) and 0 elsewhere, all
    2n weight vectors from one stack."""
    n = spec.n
    T = canonical_map(spec)
    D = _oscillator_weights(spec, 2.0 * np.eye(2 * n).reshape(2 * n, n, 2))
    return [((j // 2, j % 2 + 1), FactoredObservable(T, D[j])) for j in range(2 * n)]


def conserved_observables(spec: FrequencySpectrum, g: GammaWeights | None = None) -> list:
    """The conserved columns as (name, observable) pairs: H, then Hcal when
    weights are given, then each J_k_i."""
    pairs = [("H", energy_observable(spec))]
    if g is not None:
        pairs.append(("Hcal", alt_hamiltonian_observable(spec, g)))
    return pairs + [("J_%d_%d" % ki, obs) for ki, obs in mode_integrals(spec)]


def quadratic_ansatz_observable(omega0: float, b: float, c: float, f: float) -> QuadraticObservable:
    """W = b (ddx_i + w0^2 x_i)^2 + c (dx_i^2 - 2 x_i ddx_i - w0^2 x_i^2)
    + f eps_{ij} dx_i ddx_j, summed over i, on the n = 1 jet space."""
    w2 = omega0 * omega0
    # the b and c terms as a symmetric form in (x, dx, ddx), doubled for
    # the value convention u.A.u/2, on the delta_ij blocks
    form = 2 * np.array([[b * (w2 * w2) - c * w2, 0.0, b * w2 - c],
                         [0.0, c, 0.0],
                         [b * w2 - c, 0.0, b]])
    A = np.zeros((6, 6))
    blocks = block_view(A)
    blocks[..., (0, 1), (0, 1)] = form[..., None]
    # f eps_{ij} off the diagonal only: f * J2 would put -0.0 on it
    blocks[1, 2, (0, 1), (1, 0)] = f, -f
    blocks[2, 1, (0, 1), (1, 0)] = -f, f
    return QuadraticObservable(A)


def _antisymmetric_basis():
    """Rotation-covariant antisymmetric 6x6 patterns for the n = 1 bracket
    ansatz {x_i^{(s)}, x_j^{(m)}} = a_{sm} delta_{ij} + d_{sm} eps_{ij}.

    Bracket antisymmetry forces a_{sm} = -a_{ms} (3 unknowns) and
    d_{sm} = d_{ms} (6 unknowns).  The d_{00} pattern is excluded:
    positions commute in both structure families (the (0,0) block of the
    gamma family vanishes by definition), and without that constraint a
    structure would exist for every coefficient choice, emptying the
    uniqueness statement.  8 basis matrices in all, each a block at
    (s, m) and its mirror -block^T at (m, s).
    """
    I2 = np.eye(2)
    patterns = [(0, 1, I2), (0, 2, I2), (1, 2, I2),
                (0, 1, J2), (0, 2, J2), (1, 1, J2), (1, 2, J2), (2, 2, J2)]
    mats = []
    for s, m, block in patterns:
        E = np.zeros((6, 6))
        block_view(E)[m, s] -= block.T     # from zeros: no -0.0; J2 is its own mirror
        block_view(E)[s, m] = block
        mats.append(E)
    return mats


def uniqueness_check(omega0: float, b: float, c: float, f: float) -> dict:
    """Third-order uniqueness analysis for a candidate Hamiltonian W, as
    the plain dict {"conserved_residual", "structure_residual"}.

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
    return {"conserved_residual": float(drift), "structure_residual": resid}
