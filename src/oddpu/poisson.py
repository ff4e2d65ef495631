"""Poisson structures on the jet phase space.

Two families of constant antisymmetric structure matrices are built:

* ``dirac_structure``  -- the bracket inherited from the constrained
  first-order formulation, with entries built from the complete
  homogeneous polynomials P_{2k};
* ``alt_structure``    -- the two-parameter-per-mode family weighted by
  nonzero constants gamma_{k,i}, which renders the positive-definite
  Hamiltonians canonical.

Because the matrices are constant, the Jacobi identity holds identically;
the interesting checks are antisymmetry, rank, and closure of Hamilton's
equations, which live in :mod:`oddpu.verify`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .spectrum import FrequencySpectrum

#: Levi-Civita sign, eps[i-1][j-1] with eps_{12} = +1.
EPS = ((0.0, 1.0), (-1.0, 0.0))

GAMMA_FLOOR = 1e-9


class DegeneracyError(ValueError):
    """Requested an operation needing a nondegenerate structure."""


@dataclass(frozen=True)
class GammaWeights:
    """The 2n nonzero weights gamma_{k,i} of the alternative family."""

    gamma: tuple  # ((g_{0,1}, g_{0,2}), ..., (g_{n-1,1}, g_{n-1,2}))

    def __post_init__(self):
        g = tuple((float(a), float(b)) for a, b in self.gamma)
        if any(abs(v) < GAMMA_FLOOR for pair in g for v in pair):
            raise ValueError("every gamma weight must satisfy |gamma| >= %g" % GAMMA_FLOOR)
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

    def flat(self) -> list:
        return [v for pair in self.gamma for v in pair]


def _require_sizes_match(spec: FrequencySpectrum, g: GammaWeights):
    if g.n != spec.n:
        raise ValueError("gamma weights sized for n=%d, spectrum has n=%d" % (g.n, spec.n))


def dirac_equivalent_gamma(n: int) -> GammaWeights:
    """The weights gamma_{k,1} = (-1)^k, gamma_{k,2} = (-1)^{k+1} at which
    the alternative family reproduces the Dirac structure."""
    return GammaWeights(tuple(((-1.0) ** k, (-1.0) ** (k + 1)) for k in range(n)))


@dataclass(frozen=True)
class StructureMatrix:
    """Constant antisymmetric matrix encoding a Poisson structure."""

    omega: np.ndarray
    spec: FrequencySpectrum
    provenance: str                      # "dirac" | "alternative"
    gamma: GammaWeights = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.omega, dtype=float)
        if np.abs(m + m.T).max() > 1e-12:
            raise ValueError("structure matrix must be antisymmetric to 1e-12")
        object.__setattr__(self, "omega", m)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    def rank(self) -> int:
        scale = max(np.abs(self.omega).max(), 1.0)
        return int(np.linalg.matrix_rank(self.omega, tol=1e-8 * scale))

    def degeneracy_scalar(self) -> float:
        g = self.gamma if self.gamma is not None else dirac_equivalent_gamma(self.spec.n)
        return degeneracy_scalar(self.spec, g)

    def is_degenerate(self) -> bool:
        g = self.gamma if self.gamma is not None else dirac_equivalent_gamma(self.spec.n)
        return gamma_is_degenerate(self.spec, g)

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "omegas": list(self.spec.omegas),
            "gamma": ([list(pair) for pair in self.gamma.gamma]
                      if self.gamma is not None else None),
            "matrix": self.omega.tolist(),
            "degeneracy_scalar": self.degeneracy_scalar(),
        }


def dirac_structure(spec: FrequencySpectrum) -> StructureMatrix:
    """Structure with {x_i^{(s)}, x_j^{(m)}} = 0 for s+m odd and
    (-1)^{(s-m)/2 + n + 1} P_{s+m-2n} eps_{ij} for s+m even."""
    n = spec.n
    dim = spec.jet_dim
    P = spec.table.P
    omega = np.zeros((dim, dim))
    for s in range(2 * n + 1):
        for m in range(2 * n + 1):
            if (s + m) % 2 != 0:
                continue
            k = (s + m - 2 * n) // 2
            coef = (-1.0) ** ((s - m) // 2 + n + 1) * (P[k] if k >= 0 else 0.0)
            for i in (1, 2):
                for j in (1, 2):
                    omega[2 * s + i - 1, 2 * m + j - 1] = coef * EPS[i - 1][j - 1]
    return StructureMatrix(omega, spec, "dirac")


def alt_structure(spec: FrequencySpectrum, g: GammaWeights) -> StructureMatrix:
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
    dim = spec.jet_dim
    # an entry depends on (s, m) through its sign and the moment sums at s+m-2
    sums = moment_sums(spec, g, -1, 4 * n - 2)
    omega = np.zeros((dim, dim))
    for s in range(2 * n + 1):
        for m in range(2 * n + 1):
            if s == 0 and m == 0:
                continue
            plus, minus = sums[s + m - 2]
            if (s + m) % 2 == 1:
                coef = (-1.0) ** ((s - m + 1) // 2) * plus
                for i in (1, 2):
                    omega[2 * s + i - 1, 2 * m + i - 1] = coef
            else:
                coef = (-1.0) ** ((s - m) // 2) * minus
                for i in (1, 2):
                    for j in (1, 2):
                        omega[2 * s + i - 1, 2 * m + j - 1] = coef * EPS[i - 1][j - 1]
    return StructureMatrix(omega, spec, "alternative", g)


def moment_sums(spec: FrequencySpectrum, g: GammaWeights, lo: int, hi: int) -> dict:
    """{e: (sum_k rho_k w_k^e alpha_k^+, sum_k rho_k w_k^e alpha_k^-)} for
    lo <= e <= hi: the weighted moments every alternative-family entry
    (and every deformation constraint) is made of."""
    rhos = np.array(spec.table.rho)
    w = np.array(spec.omegas)
    ap, am = g.alpha_plus, g.alpha_minus
    sums = {}
    for e in range(lo, hi + 1):
        moments = rhos * w ** e
        sums[e] = (float(moments @ ap), float(moments @ am))
    return sums


def degeneracy_scalar(spec: FrequencySpectrum, g: GammaWeights) -> float:
    """s = sum_k rho_k alpha_k^- / w_k^2; the alternative structure drops
    rank (by 2, in the z-sector) exactly where this vanishes."""
    _require_sizes_match(spec, g)
    t = spec.table
    return float(np.sum(np.array(t.rho) * g.alpha_minus / np.array(t.omega_sq)))


def degeneracy_scale(spec: FrequencySpectrum, g: GammaWeights) -> float:
    """sum_k |rho_k alpha_k^-| / w_k^2: the size the degeneracy scalar is
    judged against."""
    _require_sizes_match(spec, g)
    t = spec.table
    return float(np.sum(np.abs(np.array(t.rho) * g.alpha_minus) / np.array(t.omega_sq)))


def gamma_is_degenerate(spec: FrequencySpectrum, g: GammaWeights) -> bool:
    """Scale-relative degeneracy test: |s| <= 1e-10 * degeneracy_scale."""
    return abs(degeneracy_scalar(spec, g)) <= 1e-10 * degeneracy_scale(spec, g)


@dataclass(frozen=True)
class QuadraticObservable:
    """Phase-space function u -> u.A.u/2 + b.u + c with A symmetric.

    Houses every function the model brackets: the Hamiltonians, the mode
    integrals, and coordinate functionals (A = 0, b a unit vector).
    """

    A: np.ndarray
    b: np.ndarray = None
    c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if np.abs(A - A.T).max() > 1e-12:
            raise ValueError("quadratic part must be symmetric to 1e-12")
        b = np.zeros(A.shape[0]) if self.b is None else np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "QuadraticObservable":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def coordinate(cls, dim: int, s: int, i: int) -> "QuadraticObservable":
        """The jet-entry functional x_i^{(s)}."""
        b = np.zeros(dim)
        b[2 * s + i - 1] = 1.0
        return cls(np.zeros((dim, dim)), b)

    def value(self, u):
        """u.A.u/2 + b.u + c at one state (a float), or at each row of a
        (rows, dim) stack (an array of rows values)."""
        u = np.asarray(u, dtype=float)
        # Each state as a 1 x dim row times a dim x 1 column: matmul then
        # runs the same vector-matrix and dot kernels for every row of a
        # stack as for a single state, so both agree to the last bit.
        row, col = u[..., None, :], u[..., :, None]
        v = (0.5 * row @ self.A @ col + row @ self.b[:, None])[..., 0, 0] + self.c
        return float(v) if u.ndim == 1 else v

    def grad(self, u) -> np.ndarray:
        return self.A @ np.asarray(u, dtype=float) + self.b

    def __add__(self, other):
        return QuadraticObservable(self.A + other.A, self.b + other.b, self.c + other.c)

    def __mul__(self, scalar):
        return QuadraticObservable(scalar * self.A, scalar * self.b, scalar * self.c)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class FactoredObservable:
    """u -> (1/2) sum_j D_j (T u)_j^2: a quadratic observable diagonal in
    the coordinates of a map T (shared, read-only), with weights D.

    ``value`` takes one state (a float) or a (rows, dim) stack (an array
    of rows values).  ``coordinates`` (T u) and ``from_coordinates`` are
    its two halves, so observables over one T can share T u (see
    ``dynamics.trajectory``).  Each row is one row-by-matrix and one
    row-by-column product, the same kernels for a stack as for a single
    state, so both agree to the last bit.

    As a ``QuadraticObservable`` for brackets and vector fields:
    A = T^T diag(D) T, symmetrized and built on first access; b = 0, c = 0.
    """

    T: np.ndarray
    weights: np.ndarray

    c = 0.0

    def __post_init__(self):
        D = np.array(self.weights, dtype=float)
        D.setflags(write=False)
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "weights", D)

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def b(self) -> np.ndarray:
        return np.zeros(self.dim)

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

    def grad(self, u) -> np.ndarray:
        return self.A @ np.asarray(u, dtype=float)


def bracket(S: StructureMatrix, f: QuadraticObservable,
            g: QuadraticObservable) -> QuadraticObservable:
    """{f, g} = grad(f) . Omega . grad(g); closes on quadratic observables."""
    if f.dim != S.dim or g.dim != S.dim:
        raise ValueError("observable dimensions do not match the structure")
    Om = S.omega
    A = f.A @ Om @ g.A - g.A @ Om @ f.A
    b = f.A @ Om @ g.b - g.A @ Om @ f.b
    c = float(f.b @ Om @ g.b)
    return QuadraticObservable(0.5 * (A + A.T), b, c)


def hamiltonian_vector_field(S: StructureMatrix, H: QuadraticObservable) -> np.ndarray:
    """Matrix of the linear flow du/dt = Omega A_H u generated by H."""
    if H.dim != S.dim:
        raise ValueError("observable dimension does not match the structure")
    if np.abs(H.b).max() > 0.0:
        raise ValueError("Hamiltonian must be a homogeneous quadratic (b = 0)")
    return S.omega @ H.A
