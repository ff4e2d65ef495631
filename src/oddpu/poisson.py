"""Poisson structures on the jet phase space.

A structure is its constant antisymmetric matrix Omega, a plain
(4n+2, 4n+2) float64 array in the layout of ``dynamics.jet_index``, built
from 2x2 blocks a_{sm} delta_ij or d_{sm} eps_ij (``dynamics.block_view``,
eps = ``dynamics.J2``).  Two families are built:

* ``dirac_structure``  -- the bracket inherited from the constrained
  first-order formulation, with entries built from the complete
  homogeneous polynomials P_{2k};
* ``alt_structure``    -- the two-parameter-per-mode family weighted by
  nonzero constants gamma_{k,i}, which renders the positive-definite
  Hamiltonians canonical.

``bracket`` and ``hamiltonian_vector_field`` take Omega directly; the
rank of a structure is read off its canonical block form by
``canonical.structure_rank``.  Because the matrices are constant, the
Jacobi identity holds identically; the interesting checks are
antisymmetry, rank, and closure of Hamilton's equations, which live in
:mod:`oddpu.verify`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import J2, block_view
from .spectrum import FrequencySpectrum

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


def _antisymmetric(omega: np.ndarray) -> np.ndarray:
    """omega itself, refused unless antisymmetric to 1e-12."""
    if np.abs(omega + omega.T).max() > 1e-12:
        raise ValueError("structure matrix must be antisymmetric to 1e-12")
    return omega


def dirac_structure(spec: FrequencySpectrum) -> np.ndarray:
    """Structure with {x_i^{(s)}, x_j^{(m)}} = 0 for s+m odd and
    (-1)^{(s-m)/2 + n + 1} P_{s+m-2n} eps_{ij} for s+m even."""
    n = spec.n
    P = spec.table.P
    omega = np.zeros((spec.jet_dim, spec.jet_dim))
    blocks = block_view(omega)
    for s in range(2 * n + 1):
        for m in range(s % 2, 2 * n + 1, 2):
            k = (s + m - 2 * n) // 2
            coef = (-1.0) ** ((s - m) // 2 + n + 1) * (P[k] if k >= 0 else 0.0)
            blocks[s, m] = coef * J2
    return _antisymmetric(omega)


def alt_structure(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """Structure of the gamma-weighted family.

    Entries: zero at s = m = 0; for s+m odd a delta_{ij} block weighted by
    (-1)^{(s-m+1)/2} sum_k rho_k w_k^{s+m-2} alpha_k^+; for s+m even and
    nonzero an eps_{ij} block weighted by
    (-1)^{(s-m)/2} sum_k rho_k w_k^{s+m-2} alpha_k^-.

    The matrix is constructed even when the family is degenerate; only
    flows that need invertibility reject degenerate weights.
    """
    _require_sizes_match(spec, g)
    n = spec.n
    # an entry depends on (s, m) through its sign and the weighted moments
    # (sum_k rho_k w_k^e alpha_k^+, sum_k rho_k w_k^e alpha_k^-) at e = s+m-2
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
    return _antisymmetric(omega)


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
    return abs(degeneracy_scalar(spec, g)) <= 1e-10 * degeneracy_scale(spec, g)


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

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def value(self, u):
        """u.A.u/2 at one state (a float), or at each row of a (rows, dim)
        stack (an array of rows values)."""
        u = np.asarray(u, dtype=float)
        # Each state as a 1 x dim row times a dim x 1 column: matmul then
        # runs the same vector-matrix and dot kernels for every row of a
        # stack as for a single state, so both agree to the last bit.
        v = (0.5 * u[..., None, :] @ self.A @ u[..., :, None])[..., 0, 0]
        return float(v) if u.ndim == 1 else v


@dataclass(frozen=True, eq=False)
class FactoredObservable:
    """u -> (1/2) sum_j D_j (T u)_j^2: a homogeneous quadratic observable
    diagonal in the coordinates of a map T, with weights D.  T is held,
    not copied (the canonical builders pass their shared read-only map);
    D is copied and made read-only.

    ``value`` takes one state (a float) or a (rows, dim) stack (an array
    of rows values).  ``coordinates`` (T u) and ``from_coordinates`` are
    its two halves, so observables over one T can share T u (see
    ``dynamics.trajectory``).  Each row is one row-by-matrix and one
    row-by-column product, the same kernels for a stack as for a single
    state, so both agree to the last bit.

    ``A`` = T^T diag(D) T, symmetrized and built on first access, is what
    ``bracket`` and ``hamiltonian_vector_field`` read, as they read a
    ``QuadraticObservable``'s.
    """

    T: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        D = np.array(self.weights, dtype=float)
        D.setflags(write=False)
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "weights", D)

    @property
    def dim(self) -> int:
        return self.weights.size

    @functools.cached_property
    def A(self) -> np.ndarray:
        A = self.T.T @ np.diag(self.weights) @ self.T
        return 0.5 * (A + A.T)

    def coordinates(self, u) -> np.ndarray:
        """T u at one state, or at each row of a (rows, dim) stack."""
        u = np.asarray(u, dtype=float)
        return (u[..., None, :] @ self.T.T)[..., 0, :]

    def from_coordinates(self, coords):
        """(1/2) sum_j D_j coords_j^2 at each T u that ``coordinates`` gave.

        A row whose squares overflow, with every coordinate finite, is
        evaluated again at coords / 2^e, max |coords / 2^e| in [1, 2), and
        scaled back by 2^e twice: an indefinite sum such as H = 0 at
        coordinates near 1e160 stays finite, and only a value that is
        itself out of range is non-finite."""
        v = self._half_weighted_squares(coords)
        if np.isfinite(v).all():
            return v
        redo = ~np.isfinite(v) & np.isfinite(coords).all(axis=-1)
        if redo.any():
            big = coords[redo]
            scale = np.ldexp(1.0, np.frexp(np.abs(big).max(axis=-1))[1] - 1)
            v = np.array(v)
            with np.errstate(over="ignore"):
                v[redo] = self._half_weighted_squares(big / scale[:, None]) * scale * scale
        return v

    def _half_weighted_squares(self, coords):
        squares = coords * coords
        return 0.5 * (squares[..., None, :] @ self.weights[:, None])[..., 0, 0]

    def value(self, u):
        v = self.from_coordinates(self.coordinates(u))
        return float(v) if v.ndim == 0 else v


def bracket(omega: np.ndarray, f: QuadraticObservable,
            g: QuadraticObservable) -> QuadraticObservable:
    """{f, g} = grad(f) . Omega . grad(g); closes on quadratic observables."""
    if f.dim != len(omega) or g.dim != len(omega):
        raise ValueError("observable dimensions do not match the structure")
    A = f.A @ omega @ g.A - g.A @ omega @ f.A
    return QuadraticObservable(0.5 * (A + A.T))


def hamiltonian_vector_field(omega: np.ndarray, H: QuadraticObservable) -> np.ndarray:
    """Matrix of the linear flow du/dt = Omega A_H u generated by H."""
    if H.dim != len(omega):
        raise ValueError("observable dimension does not match the structure")
    return omega @ H.A
