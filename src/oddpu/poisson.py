"""Poisson structures on the jet phase space.

A structure is its constant antisymmetric matrix Omega, a plain
(4n+2, 4n+2) float64 array in the jet layout: x_i^{(s)} at index
2s + i - 1.  It is built from 2x2 blocks a_{sm} delta_ij or d_{sm} eps_ij
(``dynamics.block_view``, eps = ``dynamics.J2``).  Two families are built:

* ``dirac_structure``  -- the bracket inherited from the constrained
  first-order formulation, with entries built from the complete
  homogeneous polynomials P_{2k};
* ``alt_structure``    -- the two-parameter-per-mode family weighted by
  nonzero constants gamma_{k,i}, which renders the positive-definite
  Hamiltonians canonical.

Each is built for a batch of spectra that share one n, as a
(batch, 4n+2, 4n+2) stack, by ``dirac_structures`` and ``alt_structures``;
the single builders are their batches of one.  The blocks are placed from
(s, m) index grids, every weighted moment is one row-by-column product,
and an eps block is its coefficient times ``J2``, so each matrix has the
bits of the block-at-a-time loop, -0.0 entries included, in any batch.

A quadratic observable u.A.u/2 generates the linear flow
du/dt = Omega A u, so its Hamiltonian vector field is the plain product
``Omega @ A``; the conserved quadratics are weight vectors over the
canonical map, whose A is ``canonical.quadratic_form``.  The rank of a
structure is read off its canonical block form by
``canonical.structure_rank``.  Because the matrices are constant, the
Jacobi identity holds identically.  Both builders are exactly
antisymmetric: the block at (m, s) is minus the transpose of the one at
(s, m), built from the same moment.  The interesting checks are rank and
closure of Hamilton's equations, which live in :mod:`oddpu.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import J2, block_view
from .spectrum import FrequencySpectrum, batch_n

GAMMA_FLOOR = 1e-9


class DegeneracyError(ValueError):
    """Requested an operation needing a nondegenerate structure."""


@dataclass(frozen=True)
class GammaWeights:
    """The 2n nonzero weights gamma_{k,i} of the alternative family."""

    gamma: tuple  # ((g_{0,1}, g_{0,2}), ..., (g_{n-1,1}, g_{n-1,2}))

    def __post_init__(self):
        g = tuple((float(a), float(b)) for a, b in self.gamma)
        if any(not GAMMA_FLOOR <= abs(v) < math.inf for pair in g for v in pair):
            raise ValueError("every gamma weight must be finite with |gamma| >= %g"
                             % GAMMA_FLOOR)
        object.__setattr__(self, "gamma", g)

    @classmethod
    def from_flat(cls, values) -> "GammaWeights":
        values = list(values)
        if len(values) % 2 != 0:
            raise ValueError("need an even number of gamma values")
        return cls(tuple((values[2 * k], values[2 * k + 1])
                         for k in range(len(values) // 2)))

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def alpha_plus(self) -> np.ndarray:
        g = np.array(self.gamma)
        return 0.5 * (1.0 / g[:, 0] + 1.0 / g[:, 1])

    @property
    def alpha_minus(self) -> np.ndarray:
        g = np.array(self.gamma)
        return 0.5 * (1.0 / g[:, 0] - 1.0 / g[:, 1])


def _require_sizes_match(spec: FrequencySpectrum, g: GammaWeights):
    if g.n != spec.n:
        raise ValueError("gamma weights sized for n=%d, spectrum has n=%d" % (g.n, spec.n))


def dirac_equivalent_gamma(n: int) -> GammaWeights:
    """The weights gamma_{k,1} = (-1)^k, gamma_{k,2} = (-1)^{k+1} at which
    the alternative family reproduces the Dirac structure."""
    return GammaWeights(tuple(((-1.0) ** k, (-1.0) ** (k + 1)) for k in range(n)))


def _block_grid(n: int, parity: int):
    """The (s, m) of the blocks with s + m of ``parity``, in row order."""
    s, m = np.indices((2 * n + 1, 2 * n + 1)).reshape(2, -1)
    kept = (s + m) % 2 == parity
    return s[kept], m[kept]


def dirac_structures(specs) -> np.ndarray:
    """``dirac_structure`` of each spectrum in ``specs``, a batch that shares
    one n (a ValueError otherwise), as a (batch, 4n+2, 4n+2) stack."""
    n = batch_n(specs)
    s, m = _block_grid(n, 0)
    k = (s + m) // 2 - n
    P = np.array([spec.table.P[:n + 1] for spec in specs])
    coef = (-1.0) ** ((s - m) // 2 + n + 1) * np.where(k >= 0, P[:, np.maximum(k, 0)], 0.0)
    omega = np.zeros((len(specs), 4 * n + 2, 4 * n + 2))
    block_view(omega)[:, s, m] = coef[..., None, None] * J2
    return omega


def dirac_structure(spec: FrequencySpectrum) -> np.ndarray:
    """Structure with {x_i^{(s)}, x_j^{(m)}} = 0 for s+m odd and
    (-1)^{(s-m)/2 + n + 1} P_{s+m-2n} eps_{ij} for s+m even."""
    return dirac_structures([spec])[0]


def alt_structures(specs, gammas) -> np.ndarray:
    """``alt_structure`` of each spectrum in ``specs``, a batch that shares
    one n (a ValueError otherwise), at its weights in ``gammas``, as a
    (batch, 4n+2, 4n+2) stack."""
    n = batch_n(specs)
    for spec, g in zip(specs, gammas, strict=True):
        _require_sizes_match(spec, g)
    # an entry depends on (s, m) through its sign and the weighted moments
    # (sum_k rho_k w_k^e alpha_k^+, sum_k rho_k w_k^e alpha_k^-) at e = s+m-2,
    # each sum one (1, n) @ (n, 1) product
    rhos = np.array([spec.table.rho for spec in specs])
    w = np.array([spec.omegas for spec in specs])
    alphas = np.array([(g.alpha_plus, g.alpha_minus) for g in gammas])
    moments = np.stack([rhos * w ** e for e in range(-1, 4 * n - 1)], axis=1)
    sums = (moments[:, :, None, None, :] @ alphas[:, None, :, :, None])[..., 0, 0]
    omega = np.zeros((len(specs), 4 * n + 2, 4 * n + 2))
    blocks = block_view(omega)
    s, m = _block_grid(n, 1)
    blocks[:, s, m, 0, 0] = blocks[:, s, m, 1, 1] = (
        (-1.0) ** ((s - m + 1) // 2) * sums[:, s + m - 1, 0])
    s, m = (grid[1:] for grid in _block_grid(n, 0))    # (0, 0), first, stays zero
    blocks[:, s, m] = ((-1.0) ** ((s - m) // 2) * sums[:, s + m - 1, 1])[..., None, None] * J2
    return omega


def alt_structure(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """Structure of the gamma-weighted family.

    Entries: zero at s = m = 0; for s+m odd a delta_{ij} block weighted by
    (-1)^{(s-m+1)/2} sum_k rho_k w_k^{s+m-2} alpha_k^+; for s+m even and
    nonzero an eps_{ij} block weighted by
    (-1)^{(s-m)/2} sum_k rho_k w_k^{s+m-2} alpha_k^-.

    The matrix is constructed even when the family is degenerate; only
    flows that need invertibility reject degenerate weights.
    """
    return alt_structures([spec], [g])[0]


def _degeneracy_terms(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """The terms rho_k alpha_k^- / w_k^2 of the degeneracy scalar, refused
    with a ValueError when the sum of their sizes overflows: the spectrum's
    float64 range rule bounds powers of w, not rho_k / w_k^2."""
    _require_sizes_match(spec, g)
    t = spec.table
    with np.errstate(over="ignore"):
        terms = np.array(t.rho) * g.alpha_minus / np.array(spec.omega_sq)
        if not np.isfinite(np.sum(np.abs(terms))):
            raise ValueError("degeneracy scalar out of float64 range")
    return terms


def degeneracy_scalar(spec: FrequencySpectrum, g: GammaWeights) -> float:
    """s = sum_k rho_k alpha_k^- / w_k^2; the alternative structure drops
    rank (by 2, in the z-sector) exactly where this vanishes."""
    return float(np.sum(_degeneracy_terms(spec, g)))


def degeneracy_scale(spec: FrequencySpectrum, g: GammaWeights) -> float:
    """sum_k |rho_k alpha_k^-| / w_k^2: the size the degeneracy scalar is
    judged against."""
    return float(np.sum(np.abs(_degeneracy_terms(spec, g))))


def gamma_is_degenerate(spec: FrequencySpectrum, g: GammaWeights) -> bool:
    """Scale-relative degeneracy test: |s| <= 1e-10 * degeneracy_scale."""
    terms = _degeneracy_terms(spec, g)
    return bool(abs(np.sum(terms)) <= 1e-10 * np.sum(np.abs(terms)))


@dataclass(frozen=True)
class QuadraticObservable:
    """Homogeneous quadratic phase-space function u -> u.A.u/2, A symmetric.

    The model's Hamiltonians and mode integrals are all of this form, and
    brackets close on it.
    """

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if np.abs(A - A.T).max() > 1e-12:
            raise ValueError("quadratic part must be symmetric to 1e-12")
        object.__setattr__(self, "A", A)

    def value(self, u):
        """u.A.u/2 at one state (a float), or at each row of a (rows, dim)
        stack (an array of rows values)."""
        u = np.asarray(u, dtype=float)
        # Each state as a 1 x dim row times a dim x 1 column: matmul then
        # runs the same vector-matrix and dot kernels for every row of a
        # stack as for a single state, so both agree to the last bit.
        v = (0.5 * u[..., None, :] @ self.A @ u[..., :, None])[..., 0, 0]
        return float(v) if u.ndim == 1 else v
