"""Admissible nonlinear deformations of the odd-order oscillator.

A potential U may be added to the gamma-weighted Hamiltonian without
breaking the lower jet-chain equations iff its gradient is annihilated by
the lower 4n rows of the alternative structure.  Those rows are the
constraint system (``deformation_system``), a linear homogeneous system
on the 4n+2 gradient components whose null space is two-dimensional;
potentials are polynomials in the two resulting invariant scalars
w_a = v_a . u.

``invariant_directions`` writes the null space in closed form from the
canonical block form of the structure, at every n and for degenerate
weights too, in one stated basis: w_1 is the invariant whose position
part is x_1, w_2 its rotation, whose position part is x_2.
``deformation_system`` and ``null_space_complete_pivot`` remain as the
oracle ``verify`` checks the closed form against.

``deformed_field`` is written in companion form: its lower 4n rows copy
the jet, du_{(s,i)}/dt = u_{(s+1,i)} exactly, and only the top two rows
carry the companion equation plus a rank-2 force F (g1, g2), with the
2x2 F = Omega_alt[-2:] [v1 v2] read off the same closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import (_omega_product, _pair_weights, alt_hamiltonian_observable,
                        canonical_map)
from .dynamics import J2, block_view, companion_matrix
from .poisson import GammaWeights, alt_structure, degeneracy_scalar
from .spectrum import FrequencySpectrum

MAX_POTENTIAL_DEGREE = 8


def null_space_complete_pivot(C: np.ndarray):
    """Rank and orthonormal null-space basis by Gauss-Jordan elimination
    with complete pivoting; pivot threshold 1e-10 * ||C||_inf.

    Returns (rank, basis) with basis of shape (n - rank, n).  The
    threshold misjudges the rank of an ill-conditioned matrix (the
    deformation system at n >= 5), so the runtime uses
    ``invariant_directions``; this solver remains the oracle that
    ``verify`` checks it against at small n.
    """
    A = np.array(C, dtype=float)
    m, n = A.shape
    tol = 1e-10 * max(np.linalg.norm(A, np.inf), 1.0)
    perm = list(range(n))
    r = 0
    while r < min(m, n):
        sub = np.abs(A[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= tol:
            break
        i, j = i + r, j + r
        A[[r, i]] = A[[i, r]]
        A[:, [r, j]] = A[:, [j, r]]
        perm[r], perm[j] = perm[j], perm[r]
        for k in range(m):
            if k != r and A[k, r] != 0.0:
                A[k] -= A[k, r] / A[r, r] * A[r]
        r += 1
    basis = []
    for free in range(r, n):
        x = np.zeros(n)
        x[perm[free]] = 1.0
        for lead in range(r):
            x[perm[lead]] = -A[lead, free] / A[lead, lead]
        basis.append(x)
    if basis:
        q, _ = np.linalg.qr(np.array(basis).T)
        basis = q.T
    else:
        basis = np.empty((0, n))
    return r, basis


def deformation_system(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """The constraint matrix C (4n x (4n+2)) acting on grad U in jet order:
    the lower 4n rows of the alternative structure, the rows of
    x_i^{(s)} for s < 2n."""
    return alt_structure(spec, g)[:4 * spec.n]


def invariant_directions(spec: FrequencySpectrum, g: GammaWeights):
    """Unit basis (v1, v2) of the constraint null space, in closed form.

    Potentials built over w_a = v_a . u leave the lower jet-chain
    equations intact.  The canonical map T_c puts the alternative
    structure into block form,

      T_c Omega_alt T_c^T = blockdiag(c_{k,i} J2 per (q_{k,i}, p_{k,i}),
                                      s (w_0...w_{n-1})^2 J2 for (z_1, z_2))

    with c_{k,i} = (-1)^{k+i+1} / gamma_{k,i}, s the degeneracy scalar and
    J2 = [[0, 1], [-1, 0]] (``dynamics.J2``).  So s Omega_alt^{-1} = T_c^T K T_c
    with K written pair by pair on the diagonal of ``dynamics.block_view(K)``,

      K = blockdiag(-s (-1)^{k+i+1} gamma_{k,i} J2, -(w_0...w_{n-1})^{-2} J2),

    which stays finite at s = 0.  The constraint rows are the lower 4n
    rows of Omega_alt, so the null space is spanned by the columns of
    T_c^T K T_c at the top jet indices 4n, 4n+1; at s = 0 these are
    combinations of the z rows, which span the kernel of Omega_alt.  No
    rank is decided and no tolerance is used.

    Basis convention: N_1 is the vector of the null space whose position
    part (jet entries x_1, x_2) is (1, 0), and v1 = N_1 / |N_1|.  The
    system is invariant under the rotation R: x_1^(s) -> x_2^(s),
    x_2^(s) -> -x_1^(s), so v2 = R v1 is the unit vector of the plane
    with position part along x_2, and v1 . v2 = 0.  At w = 1,
    gamma = (1, -1) this gives w_a = x_a, so the README's potential
    0.05 w1^4 acts on x_1.
    """
    v1, v2, _ = _invariant_plane(spec, g)
    return v1, v2


def _invariant_plane(spec: FrequencySpectrum, g: GammaWeights):
    """(v1, v2, (a, b)): the basis of ``invariant_directions`` and the top
    two entries of Omega_alt v1, the only nonzero ones.

    Omega_alt T_c^T K T_c = s I, so N_1 = (T_c^T K T_c)[:, 4n:] c_1, with
    c_1 the 2x2 solve that fixes its position part, has Omega_alt N_1 =
    s c_1 on the top coordinates.  (a, b) = s c_1 / |N_1| is read off that
    solve, within 3e-15 relative of its 60-digit value at n = 1..8 on
    random spectra; the product Omega_alt v1 loses it to cancellation, by
    up to 2e-6 at n = 8.  By rotation covariance Omega_alt v2 has top
    entries (-b, a).
    """
    n = spec.n
    s = degeneracy_scalar(spec, g)
    T = canonical_map(spec)
    coef = (-s * _pair_weights(spec, g)).ravel()
    K = np.zeros((spec.jet_dim, spec.jet_dim))
    pairs = block_view(K)              # pair 2k + i - 1 is rows q[k][i], p[k][i] of T_c
    pairs[range(2 * n), range(2 * n)] = coef[:, None, None] * J2
    pairs[2 * n, 2 * n] = -J2 / _omega_product(spec) ** 2
    plane = T.T @ (K @ T[:, 4 * n:])
    c1 = np.linalg.solve(plane[:2], [1.0, 0.0])
    N1 = plane @ c1
    norm = np.linalg.norm(N1)
    v1 = N1 / norm
    v2 = np.empty_like(v1)
    v2[0::2], v2[1::2] = -v1[1::2], v1[0::2]
    return v1, v2, tuple((s * c1 / norm).tolist())


def closed_form_direction_n1(spec: FrequencySpectrum, g: GammaWeights, i: int) -> np.ndarray:
    """The single-mode invariant combination, written out in jet order:
    ((a^-)^2 - (a^+)^2) x_i + (a^- a^+ / w) eps_{ij} dx_j - (a^+/w)^2 ddx_i."""
    if spec.n != 1:
        raise ValueError("closed form applies to n = 1 only")
    ap, am = float(g.alpha_plus[0]), float(g.alpha_minus[0])
    w = spec.omegas[0]
    v = np.zeros((3, 2))           # (derivative order, component)
    v[0, i - 1] = am * am - ap * ap
    v[1, 2 - i] = J2[i - 1, 2 - i] * am * ap / w
    v[2, i - 1] = -(ap / w) ** 2
    return v.ravel()


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential sum_t value * w1^i * w2^j over the invariant
    scalars, total degree 1..8.  Exponents are integers >= 0 and values
    finite numbers; a bool, a string or a fraction is refused, not cast."""

    terms: tuple  # ((i, j, value), ...)

    def __post_init__(self):
        for i, j, v in self.terms:
            if not (_is_exponent(i) and _is_exponent(j) and _is_finite_number(v)):
                raise ValueError("bad potential term (i=%r, j=%r, value=%r): exponents "
                                 "must be integers >= 0 and the value a finite number"
                                 % (i, j, v))
        terms = tuple((int(i), int(j), float(v)) for i, j, v in self.terms)
        if not terms:
            raise ValueError("potential needs at least one term")
        object.__setattr__(self, "terms", terms)
        if self.degree < 1:
            raise ValueError("potential degree must be >= 1")
        if self.degree > MAX_POTENTIAL_DEGREE:
            raise ValueError("potential degree capped at %d" % MAX_POTENTIAL_DEGREE)
        # gradient monomials (power of w1, power of w2, coefficient) in the
        # order of the terms, with the products v * i and v * j taken once
        object.__setattr__(self, "_grad_monomials", (
            tuple((i - 1, j, v * i) for i, j, v in terms if i > 0),
            tuple((i, j - 1, v * j) for i, j, v in terms if j > 0)))

    @property
    def degree(self) -> int:
        return max(i + j for i, j, _ in self.terms)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PotentialSpec":
        """The potential {"degree": d, "coeffs": [{"i": .., "j": .., "value": ..},
        ...]}, "degree" optional; a missing, unknown or mistyped field is
        refused by name."""
        _check_keys(obj, "bad potential", ("coeffs",), ("degree",))
        if not isinstance(obj["coeffs"], list):
            raise ValueError("bad potential: coeffs must be an array, got %r" % (obj["coeffs"],))
        for t in obj["coeffs"]:
            _check_keys(t, "bad potential term %r" % (t,), ("i", "j", "value"))
        terms = tuple((t["i"], t["j"], t["value"]) for t in obj["coeffs"])
        pot = cls(terms)
        if "degree" in obj:
            if not _is_exponent(obj["degree"]):
                raise ValueError("potential degree must be an integer >= 0, got %r"
                                 % (obj["degree"],))
            if obj["degree"] != pot.degree:
                raise ValueError("declared degree %r does not match terms" % obj["degree"])
        return pot

    def to_json_dict(self) -> dict:
        return {"degree": self.degree,
                "coeffs": [{"i": i, "j": j, "value": v} for i, j, v in self.terms]}

    # Python's float ** raises OverflowError where float * gives inf; both
    # methods return inf instead, so that a blown-up state reaches the
    # integrator's finiteness check.

    def value(self, w1: float, w2: float) -> float:
        try:
            return float(_sum_monomials(self.terms, w1, w2))
        except OverflowError:
            return np.inf

    def grad(self, w1: float, w2: float):
        d1_terms, d2_terms = self._grad_monomials
        try:
            return (float(_sum_monomials(d1_terms, w1, w2)),
                    float(_sum_monomials(d2_terms, w1, w2)))
        except OverflowError:
            return np.inf, np.inf


def _check_keys(obj, what: str, required, optional=()):
    """Refuse obj, as "<what>: <reason>", unless it is a JSON object with
    every required key and no key outside required and optional."""
    if not isinstance(obj, dict):
        raise ValueError("%s: not an object" % what)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError("%s: unknown key %s" % (what, ", ".join(map(repr, unknown))))
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError("%s: missing key %s" % (what, ", ".join(map(repr, missing))))


def _is_finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past the float range
        return False


def _is_exponent(value) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _sum_monomials(monomials, w1, w2):
    """Sum of c * w1 ** a * w2 ** b over the (a, b, c) monomials, added left
    to right from an int 0 as ``sum`` adds, so a -0.0 total reads 0.0.  A
    factor w ** 0 is 1.0 and x * 1.0 == x, so it is skipped."""
    total = 0
    for a, b, c in monomials:
        if a:
            c = c * w1 ** a
        if b:
            c = c * w2 ** b
        total = total + c
    return total


def deformed_field(spec: FrequencySpectrum, g: GammaWeights, potential: PotentialSpec = None):
    """State-derivative function of the deformed flow
    du/dt = Omega_alt (A_H u + grad U(u)), in companion form.

    Omega_alt A_H is the companion matrix M, and grad U = g1 v1 + g2 v2
    lies in the constraint null space, so the lower chain equations
    du_{(s,i)}/dt = u_{(s+1,i)} (s < 2n) hold exactly: the field copies
    u[2:] into its lower 4n rows.  Only the top two rows carry the
    force, M[-2:] u + F (g1, g2) with F = Omega_alt[-2:] [v1 v2] =
    [[a, -b], [b, a]] from ``invariant_directions``' own solve.  One
    product of the stacked rows (v1, v2, M[-2:]) with u gives w1, w2 and
    M[-2:] u; the force is four scalar multiply-adds.

    Returns (field, v1, v2); the field returns a fresh array per call.
    With no potential the field is the linear one, M u, and v1, v2 are
    None: the null space is not needed.
    """
    top = companion_matrix(spec)[-2:]
    dim = spec.jet_dim
    if potential is None:
        top_dot = top.dot

        def field(_t, u):
            du = np.empty(dim)
            du[:-2] = u[2:]
            du[-2:] = top_dot(u)
            return du

        return field, None, None
    v1, v2, (a, b) = _invariant_plane(spec, g)
    rows_dot, grad = np.vstack((v1, v2, top)).dot, potential.grad

    def field(_t, u):
        w1, w2, m1, m2 = rows_dot(u).tolist()
        g1, g2 = grad(w1, w2)
        du = np.empty(dim)
        du[:-2] = u[2:]
        du[-2] = m1 + (a * g1 - b * g2)
        du[-1] = m2 + (b * g1 + a * g2)
        return du

    return field, v1, v2


@dataclass(frozen=True)
class PotentialObservable:
    """U(u) = potential(v1 . u, v2 . u); ``value`` takes one state (a
    float) or a (rows, dim) stack (an array of rows values)."""

    potential: PotentialSpec
    v1: np.ndarray
    v2: np.ndarray

    def value(self, u):
        u = np.asarray(u, dtype=float)
        # w_a = v_a . u as one row-by-column product per state, which
        # rounds as the dot product of a single state does
        rows = np.atleast_2d(u)[:, None, :]
        w1 = (rows @ self.v1[:, None])[:, 0, 0].tolist()
        w2 = (rows @ self.v2[:, None])[:, 0, 0].tolist()
        values = np.array([self.potential.value(a, b) for a, b in zip(w1, w2)])
        return values if u.ndim == 2 else float(values[0])


def deformed_energy(spec: FrequencySpectrum, g: GammaWeights, potential: PotentialSpec,
                    v1: np.ndarray, v2: np.ndarray):
    """Callable u -> H_gamma(u) + U(u), conserved along the deformed flow;
    u is one state or a (rows, dim) stack."""
    H = alt_hamiltonian_observable(spec, g)
    U = PotentialObservable(potential, v1, v2)

    def total(u):
        return H.value(u) + U.value(u)

    return total
